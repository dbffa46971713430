package repro.er

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, SortMergeJoinExec}
import repro.SparkSpec
import repro.data.{Rec, RecordsDF}

class BlockingPairingSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private def mkRecords(recs: Seq[Rec]) = RecordsDF.toDF(spark, recs)

  private val records = mkRecords(Seq(
    Rec(1, "s1", 10, "artist", Map("name" -> "neil diamond", "genre" -> "rock")),
    Rec(2, "s2", 10, "artist", Map("name" -> "Neil Diamond", "genre" -> "rock")),
    Rec(3, "s3", 10, "artist", Map("name" -> "neil d", "genre" -> "rock")),
    Rec(4, "s1", 20, "artist", Map("name" -> "neil young", "genre" -> "folk")),
    Rec(5, "s2", 20, "artist", Map("name" -> "neil young")),
    Rec(6, "s3", 30, "artist", Map("name" -> "adele a")),
    Rec(7, "s1", 30, "artist", Map("name" -> "adele")),
    Rec(8, "s2", 40, "artist", Map("genre" -> "pop")), // name missing: no block key
  ))

  test("blockKeys emits one row per distinct token; no keys for missing values") {
    val keys = Blocking.blockKeys(records, "name").collect()
    val k1 = keys.filter(_.getAs[Long]("id") == 1).map(_.getAs[String]("key")).toSet
    assert(k1 == Set("neil", "diamond"))
    assert(!keys.exists(_.getAs[Long]("id") == 8)) // record 8 has no name
  }

  test("candidates pairs records sharing a block key") {
    val cand = Blocking.candidates(records, "name").collect()
    val pairs = cand.map(r => (r.getAs[Long]("id1"), r.getAs[Long]("id2"))).toSet
    // "neil" block: records 1,2,3,4,5 -> C(5,2) = 10 pairs; "adele": (6,7)
    assert(pairs.size == 11)
    assert(pairs.contains((1L, 2L)) && pairs.contains((6L, 7L)))
    assert(cand.forall(r => r.getAs[Long]("id1") < r.getAs[Long]("id2")))
  }

  test("oversized blocks are dropped") {
    // maxBlockSize=4 drops the "neil" block (5 members); the smaller
    // "diamond"/"young"/"adele" blocks survive.
    val cand = Blocking.candidates(records, "name", maxBlockSize = 4).collect()
    val pairs = cand.map(r => (r.getAs[Long]("id1"), r.getAs[Long]("id2"))).toSet
    assert(pairs == Set((1L, 2L), (4L, 5L), (6L, 7L)))
  }

  test("candidate pairs agree with a DuckDB self-join oracle") {
    val keys = Blocking.blockKeys(records, "name")
      .select(F.col("id").cast("string").as("id"), F.col("key"))
    val cand = Blocking.candidates(records, "name")
      .select(F.col("id1").cast("string").as("id1"), F.col("id2").cast("string").as("id2"))
    repro.Oracle.assertEquivalent(cand,
      """SELECT DISTINCT a.id AS id1, b.id AS id2
        |FROM keys a JOIN keys b ON a.key = b.key
        |WHERE CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)""".stripMargin,
      "keys" -> keys)
  }

  test("candidate pairs agree with a DuckDB oracle when the block-size cap binds") {
    val keys = Blocking.blockKeys(records, "name")
      .select(F.col("id").cast("string").as("id"), F.col("key"))
    val cand = Blocking.candidates(records, "name", maxBlockSize = 4)
      .select(F.col("id1").cast("string").as("id1"), F.col("id2").cast("string").as("id2"))
    repro.Oracle.assertEquivalent(cand,
      """SELECT DISTINCT a.id AS id1, b.id AS id2
        |FROM keys a JOIN keys b ON a.key = b.key
        |WHERE CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)
        |  AND a.key IN (SELECT key FROM keys GROUP BY key HAVING COUNT(*) <= 4)""".stripMargin,
      "keys" -> keys)
  }

  test("a block of exactly maxBlockSize members is kept") {
    // the "neil" block has 5 members; (3, 5) shares no other token
    val pairs = Blocking.candidates(records, "name", maxBlockSize = 5).collect()
      .map(r => (r.getAs[Long]("id1"), r.getAs[Long]("id2"))).toSet
    assert(pairs.size == 11 && pairs.contains((3L, 5L)))
  }

  test("positives pair same-entity records across different sources") {
    val pos = Pairing.positives(records).collect()
    val pairs = pos.map(r => (r.getAs[Long]("id1"), r.getAs[Long]("id2"))).toSet
    assert(pairs == Set((1L, 2L), (1L, 3L), (2L, 3L), (4L, 5L), (6L, 7L)))
    assert(pos.forall(_.getAs[Double]("label") == 1.0))
    assert(pos.forall(r => r.getAs[String]("src1") != r.getAs[String]("src2")))
  }

  test("positive pair count agrees with a DuckDB oracle") {
    val recs = records.select(
      F.col("id").cast("string").as("id"), F.col("source"),
      F.col("entity_id").cast("string").as("entity_id"))
    val pos = Pairing.positives(records)
      .select(F.col("id1").cast("string").as("id1"), F.col("id2").cast("string").as("id2"))
    repro.Oracle.assertEquivalent(pos,
      """SELECT a.id AS id1, b.id AS id2
        |FROM recs a JOIN recs b
        |  ON a.entity_id = b.entity_id
        | AND CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)
        | AND a.source <> b.source""".stripMargin,
      "recs" -> recs)
  }

  test("hard negatives share a block token but not the entity") {
    val hn = Pairing.hardNegatives(records, "name").collect()
    assert(hn.nonEmpty)
    hn.foreach { r =>
      assert(r.getAs[Long]("e1") != r.getAs[Long]("e2"))
      assert(r.getAs[Double]("label") == 0.0)
    }
    val pairs = hn.map(r => (r.getAs[Long]("id1"), r.getAs[Long]("id2"))).toSet
    assert(pairs.contains((1L, 4L))) // neil diamond vs neil young
  }

  test("random negatives never pair a record with its own entity") {
    val rn = Pairing.randomNegatives(records, seed = 5).collect()
    rn.foreach(r => assert(r.getAs[Long]("e1") != r.getAs[Long]("e2")))
  }

  test("the pair joins are planned as broadcast hash joins, not sort-merge joins") {
    // The session turns auto-broadcast off, so only the explicit hints give
    // these plans; a dropped hint brings back a shuffle and sort per side.
    def joins(df: DataFrame): Seq[String] = collect(df.queryExecution.executedPlan) {
      case _: BroadcastHashJoinExec => "broadcast"
      case _: SortMergeJoinExec => "sort-merge"
    }
    Seq(
      "candidates" -> Blocking.candidates(records, "name"),
      "positives" -> Pairing.positives(records),
      "hardNegatives" -> Pairing.hardNegatives(records, "name"),
      "randomNegatives" -> Pairing.randomNegatives(records, seed = 5),
    ).foreach { case (name, df) =>
      val js = joins(df)
      assert(js.contains("broadcast") && !js.contains("sort-merge"), s"$name plans $js")
    }
  }

  test("sample is deterministic in seed") {
    val pos = Pairing.positives(records)
    val s1 = Pairing.sample(pos, 3, 42).collect().map(_.getAs[Long]("id1")).toSeq
    val s2 = Pairing.sample(pos, 3, 42).collect().map(_.getAs[Long]("id1")).toSeq
    assert(s1 == s2)
  }

  test("finalizePairs assigns unique sequential pair ids and dedupes") {
    val pos = Pairing.positives(records)
    val fin = Pairing.finalizePairs(Seq(pos, pos)) // duplicated input
    val ids = fin.collect().map(_.getAs[Long]("pair_id")).sorted.toSeq
    assert(ids == (1L to ids.length))
    assert(fin.count() == Pairing.positives(records).count())
  }

  test("finalizePairs unlabel strips labels to -1") {
    val fin = Pairing.finalizePairs(Seq(Pairing.positives(records)), unlabel = true)
    assert(fin.collect().forall(_.getAs[Double]("label") == -1.0))
  }

  test("finalized pairs feed the feature pipeline end to end") {
    val fin = Pairing.finalizePairs(Seq(Pairing.positives(records)))
    val batch = FeaturePipeline.collectBatch(fin, Seq("name", "genre"), dim = 8)
    assert(batch.n == 5)
    assert(batch.pairs.forall(_.features.length == 4 * 8))
  }
}
