package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}
import repro.SparkSpec

class ScenariosSpec extends SparkSpec {
  import ScenariosSpec._

  private lazy val records = artistRecords(spark)

  private lazy val overlapping = Scenarios.build(records, MusicGen.seenSources, cfg)
  private lazy val disjoint = Scenarios.build(records, MusicGen.seenSources, cfg.copy(disjoint = true))
  private lazy val twin = Scenarios.buildSplit(weakLabelTwin(records), records, MusicGen.seenSources, cfg)
  private lazy val singleDomain = Scenarios.buildSingleDomain(records, cfg)

  private def srcs(df: DataFrame): Seq[(String, String)] =
    df.select("src1", "src2").collect().map(r => (r.getString(0), r.getString(1))).toSeq

  test("all four splits are non-empty") {
    Seq(overlapping.train, overlapping.support, overlapping.target, overlapping.test)
      .foreach(df => assert(df.count() > 0))
  }

  test("train pairs use only seen sources (D_S definition)") {
    srcs(overlapping.train).foreach { case (a, b) =>
      assert(MusicGen.seenSources(a) && MusicGen.seenSources(b))
    }
  }

  test("overlapping target pairs have at least one unseen source (Def. 3.1)") {
    (srcs(overlapping.test) ++ srcs(overlapping.support)).foreach { case (a, b) =>
      assert(!MusicGen.seenSources(a) || !MusicGen.seenSources(b))
    }
  }

  test("disjoint target pairs have both sources unseen (S2)") {
    (srcs(disjoint.test) ++ srcs(disjoint.support)).foreach { case (a, b) =>
      assert(!MusicGen.seenSources(a) && !MusicGen.seenSources(b))
    }
  }

  test("support set is balanced 50/50 (§5.2)") {
    val labels = overlapping.support.select("label").collect().map(_.getDouble(0))
    assert(labels.count(_ == 1.0) == 10 && labels.count(_ == 0.0) == 10)
  }

  test("support pairs do not overlap the test pairs") {
    assert(unordered(overlapping.test).intersect(unordered(overlapping.support)).isEmpty)
  }

  test("target domain batch is fully unlabeled") {
    assert(overlapping.target.select("label").collect().forall(_.getDouble(0) == -1.0))
  }

  test("target domain contains the test pairs (transductive DA)") {
    val t = overlapping.test.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val tgt = overlapping.target.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(t.subsetOf(tgt))
  }

  test("test labels are consistent with ground-truth entity ids") {
    overlapping.test.select("label", "e1", "e2").collect().foreach { r =>
      val same = r.getLong(1) == r.getLong(2)
      assert(r.getDouble(0) == (if (same) 1.0 else 0.0))
    }
  }

  test("scenario construction is deterministic in seed") {
    val again = Scenarios.build(records, MusicGen.seenSources, cfg)
    val a = overlapping.test.select("id1", "id2").collect().map(_.toSeq).toSeq
    val b = again.test.select("id1", "id2").collect().map(_.toSeq).toSeq
    assert(a == b)
  }

  test("train set has the requested composition") {
    val labels = overlapping.train.select("label").collect().map(_.getDouble(0))
    assert(labels.count(_ == 1.0) <= 40 && labels.count(_ == 1.0) > 10)
    assert(labels.count(_ == 0.0) <= 80 && labels.count(_ == 0.0) > 20)
  }

  private def keys(df: DataFrame): Set[(Long, Long)] =
    df.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  /** Each pair as the set `{id1, id2}`: random negatives are not ordered, so
    * one record pair can appear as `(a, b)` in one split and `(b, a)` in
    * another. */
  private def unordered(df: DataFrame): Set[Set[Long]] =
    df.select("id1", "id2").collect().map(r => Set(r.getLong(0), r.getLong(1))).toSet

  private val buildPaths = Seq(
    "build overlapping" -> (() => overlapping),
    "build disjoint" -> (() => disjoint))
  private val otherPaths = Seq(
    "buildSplit (distinct pools)" -> (() => twin),
    "buildSingleDomain" -> (() => singleDomain))

  for ((name, splits) <- buildPaths ++ otherPaths) {
    test(s"$name: train, support and test are pairwise disjoint") {
      val s = splits()
      val (tr, sup, te) = (unordered(s.train), unordered(s.support), unordered(s.test))
      assert(tr.intersect(te).isEmpty, "train ∩ test")
      assert(tr.intersect(sup).isEmpty, "train ∩ support")
      assert(te.intersect(sup).isEmpty, "test ∩ support")
    }
  }

  for ((name, splits) <- otherPaths) {

    test(s"$name: support set is balanced 50/50") {
      val labels = splits().support.select("label").collect().map(_.getDouble(0))
      assert(labels.count(_ == 1.0) == cfg.nSupport / 2 && labels.count(_ == 0.0) == cfg.nSupport / 2)
    }

    test(s"$name: target is fully unlabeled") {
      assert(splits().target.select("label").collect().forall(_.getDouble(0) == -1.0))
    }

    test(s"$name: pair_id is unique within each split") {
      val s = splits()
      Seq(s.train, s.support, s.target, s.test).foreach { df =>
        val ids = df.select("pair_id").collect().map(_.getLong(0))
        assert(ids.distinct.length == ids.length)
      }
    }
  }

  test("buildSplit (distinct pools): train labels come from the train pool") {
    // The twin relabels every 7th record as a singleton, so its positives
    // never contain such a record while the clean pool's can.
    val relabeled = (id: Long) => id % 7 == 0
    twin.train.where("label = 1.0").select("id1", "id2").collect().foreach { r =>
      assert(!relabeled(r.getLong(0)) && !relabeled(r.getLong(1)))
    }
  }

  test("buildSingleDomain: target holds exactly the test pairs") {
    assert(keys(singleDomain.target) == keys(singleDomain.test))
  }
}

object ScenariosSpec {
  /** The artist records of a 60-artist Music corpus. */
  def artistRecords(spark: SparkSession): DataFrame = RecordsDF.toDF(spark,
    MusicGen.generate(MusicConfig(nArtists = 60, seed = 11)).filter(_.etype == "artist"))

  /** The same records with weak labels: every 7th record gets an entity id of
    * its own, as a wrong hyperlink would give it (same ids and sources). */
  def weakLabelTwin(records: DataFrame): DataFrame =
    records.withColumn("entity_id",
      F.when(F.col("id") % 7 === 0, -F.col("id") - 1).otherwise(F.col("entity_id")))

  val cfg: ScenarioConfig = ScenarioConfig(
    nTrainPos = 40, nTrainNeg = 80, nSupport = 20,
    nTestPos = 40, nTestNeg = 60, nTargetExtra = 50,
    blockAttr = "name", seed = 3)
}
