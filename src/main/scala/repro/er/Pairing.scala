package repro.er

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window

/** Builds labeled/unlabeled pair DataFrames from record DataFrames.
  *
  * Produces the pair schema expected by [[FeaturePipeline]]:
  * `pair_id, label, src1, src2, a1, a2`, plus the ground-truth entity ids
  * `e1`, `e2` and the record ids `id1`, `id2`, which [[finalizePairs]] keeps
  * for split bookkeeping (labels, disjointness checks).
  *
  * All sampling is deterministic: candidate sets are ordered by
  * `xxhash64(id1, id2, seed)` before `limit`, so a (data, seed) pair always
  * yields the same batch regardless of partitioning.
  *
  * Joins whose build side is one record pool are broadcast: a pool is small
  * enough to ship to every task, and a broadcast hash join needs no shuffle
  * or sort of the other side.
  */
object Pairing {

  private def side(records: DataFrame, n: Int): DataFrame =
    records.select(
      F.col("id").as(s"id$n"), F.col("source").as(s"src$n"),
      F.col("entity_id").as(s"e$n"), F.col("attrs").as(s"a$n"))

  /** Cross-source positive pairs: two records of the same ground-truth entity
    * from different sources. */
  def positives(records: DataFrame): DataFrame =
    side(records, 1).join(F.broadcast(side(records, 2)),
        F.col("e1") === F.col("e2") && F.col("id1") < F.col("id2") &&
          F.col("src1") =!= F.col("src2"))
      .withColumn("label", F.lit(1.0))

  /** Hard negatives: different entities sharing a block key on `blockAttr`
    * (e.g. a title word) — the pairs naive matchers confuse. Runs the Spark
    * job of [[Blocking.candidates]] when called. */
  def hardNegatives(records: DataFrame, blockAttr: String, maxBlockSize: Int = 50): DataFrame = {
    val cand = Blocking.candidates(records, blockAttr, maxBlockSize)
      .where(F.col("e1") =!= F.col("e2"))
      .select("id1", "id2")
    val r1 = side(records, 1)
    val r2 = side(records, 2)
    cand.join(F.broadcast(r1), "id1").join(F.broadcast(r2), "id2")
      .withColumn("label", F.lit(0.0))
  }

  /** Random negatives: a deterministic pseudo-random derangement join. */
  def randomNegatives(records: DataFrame, seed: Long): DataFrame = {
    val w1 = Window.orderBy(F.xxhash64(F.col("id"), F.lit(seed)))
    val w2 = Window.orderBy(F.xxhash64(F.col("id"), F.lit(seed + 1)))
    val l = records.withColumn("rn", F.row_number().over(w1))
    val r = records.withColumn("rn", F.row_number().over(w2))
    val l2 = l.select(F.col("id").as("id1"), F.col("source").as("src1"),
      F.col("entity_id").as("e1"), F.col("attrs").as("a1"), F.col("rn"))
    val r2 = r.select(F.col("id").as("id2"), F.col("source").as("src2"),
      F.col("entity_id").as("e2"), F.col("attrs").as("a2"), F.col("rn"))
    l2.join(F.broadcast(r2), "rn")
      .where(F.col("e1") =!= F.col("e2"))
      .drop("rn")
      .withColumn("label", F.lit(0.0))
  }

  /** Deterministically subsample a pair DataFrame to at most `n` rows. */
  def sample(pairs: DataFrame, n: Int, seed: Long): DataFrame =
    pairs.orderBy(F.xxhash64(F.col("id1"), F.col("id2"), F.lit(seed))).limit(n)

  /** Union parts, assign a stable `pair_id`, project to the pipeline schema.
    * Set `unlabel = true` for target-domain batches (label := -1). */
  def finalizePairs(parts: Seq[DataFrame], unlabel: Boolean = false): DataFrame = {
    val cols = Seq("id1", "id2", "label", "src1", "src2", "e1", "e2", "a1", "a2")
    val all = parts.map(_.select(cols.map(F.col): _*)).reduce(_ unionByName _)
      .dropDuplicates("id1", "id2")
    val w = Window.orderBy(F.col("id1"), F.col("id2"))
    val lab = if (unlabel) F.lit(-1.0) else F.col("label")
    all.withColumn("pair_id", F.row_number().over(w).cast("long"))
      .withColumn("label", lab)
      .select("pair_id", "label", "src1", "src2", "a1", "a2", "e1", "e2", "id1", "id2")
  }
}
