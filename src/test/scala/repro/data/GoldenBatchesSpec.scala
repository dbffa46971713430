package repro.data

import java.nio.ByteBuffer
import java.security.MessageDigest

import org.apache.spark.sql.{functions => F}
import repro.SparkSpec
import repro.er.{Blocking, FeaturePipeline, PairBatch}

/** Golden `PairBatch`es of the four `Scenarios` paths on the `ScenariosSpec`
  * records: `build` overlapping and disjoint, `buildSplit` with a
  * weak-label twin as the train pool, and `buildSingleDomain`; and of
  * `build` overlapping on a small Monitor corpus blocked on `page_title`,
  * whose largest blocks exceed `maxBlockSize`, so the block-size cap binds.
  *
  * Pins each split's size and a SHA-256 of its attributes, labels, sources,
  * token sets and feature bytes (perfbench's batch digest encoding), so a
  * rewrite of the pair or feature dataflow must yield the same pairs in the
  * same order with the same feature bits. Each digest is also computed at 1
  * and at 64 shuffle partitions, which must agree: the batches may not
  * depend on Spark's layout.
  *
  * The digests were pinned while the `er` actions ran with generated code;
  * they now run interpreted (`SmallQueries`), so the same digests show that
  * interpreted and generated evaluation give the same batches on every path,
  * `buildSingleDomain`'s included, at both partition counts.
  */
class GoldenBatchesSpec extends SparkSpec {
  import GoldenBatchesSpec._
  import ScenariosSpec.{cfg, weakLabelTwin}

  private lazy val records = ScenariosSpec.artistRecords(spark)
  private lazy val monitors = RecordsDF.toDF(spark, MonitorGen.generate(MonitorConfig(nMonitors = 60, seed = 17)))

  /** Name, attributes and builder of each golden path. */
  private val paths: Seq[(String, Seq[String], () => MELSplits)] = Seq(
    ("build overlapping", MusicGen.attrs, () => Scenarios.build(records, MusicGen.seenSources, cfg)),
    ("build disjoint", MusicGen.attrs,
      () => Scenarios.build(records, MusicGen.seenSources, cfg.copy(disjoint = true))),
    ("buildSplit (weak-label twin)", MusicGen.attrs,
      () => Scenarios.buildSplit(weakLabelTwin(records), records, MusicGen.seenSources, cfg)),
    ("buildSingleDomain", MusicGen.attrs, () => Scenarios.buildSingleDomain(records, cfg)),
    ("Monitor build overlapping (capped blocks)", MonitorGen.attrs,
      () => Scenarios.build(monitors, MonitorGen.seenSources.toSet, monitorCfg)),
  )

  /** (size, digest) of each split's batch, built and collected at `partitions`. */
  private def batches(attrs: Seq[String], build: () => MELSplits, partitions: Int): Seq[(Int, String)] = {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    spark.conf.set(key, partitions.toString)
    try {
      val s = build()
      Seq(s.train, s.support, s.target, s.test)
        .map(FeaturePipeline.collectBatch(_, attrs, Dim))
        .map(b => (b.n, digest(b)))
    } finally spark.conf.set(key, before)
  }

  private val at64Memo = scala.collection.mutable.Map.empty[String, Seq[(Int, String)]]
  private def at64(name: String, attrs: Seq[String], build: () => MELSplits) =
    at64Memo.getOrElseUpdate(name, batches(attrs, build, 64))

  test("the Monitor fixture's largest page_title block exceeds maxBlockSize") {
    val largest = Blocking.blockKeys(monitors, monitorCfg.blockAttr).groupBy("key").count()
      .agg(F.max("count")).head().getLong(0)
    assert(largest > monitorCfg.maxBlockSize, s"largest block $largest")
  }

  for ((name, attrs, build) <- paths) {
    test(s"$name: split sizes and batch digests match the golden values") {
      val got = at64(name, attrs, build)
      assert(got == Golden(name), s"$name (size, digest) per split: ${Splits.zip(got).mkString(", ")}")
    }

    test(s"$name: batches are identical at 1 and 64 shuffle partitions") {
      Splits.zip(batches(attrs, build, 1)).zip(at64(name, attrs, build)).foreach { case ((split, one), many) =>
        assert(one == many, s"$name $split: $one at 1 partition, $many at 64")
      }
    }
  }
}

object GoldenBatchesSpec {
  val Dim = 16
  val Splits: Seq[String] = Seq("train", "support", "target", "test")

  /** The Monitor path's scenario: blocked on `page_title`, where tokens such
    * as "monitor" (in every title) form blocks above the default cap of 50. */
  val monitorCfg: ScenarioConfig = ScenarioConfig(
    nTrainPos = 40, nTrainNeg = 80, nSupport = 20,
    nTestPos = 40, nTestNeg = 60, nTargetExtra = 50,
    blockAttr = "page_title", seed = 5)

  /** SHA-256 over the batch in perfbench's `Checks.digest` encoding (all 32 bytes). */
  def digest(b: PairBatch): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def str(s: String): Unit = { md.update(s.getBytes("UTF-8")); md.update(0.toByte) }
    b.attrs.foreach(str)
    b.pairs.foreach { p =>
      str(p.label.toString); str(p.src1); str(p.src2)
      (p.toks1 ++ p.toks2).foreach(ts => str(ts.mkString(" ")))
      val buf = ByteBuffer.allocate(8 * p.features.length)
      p.features.foreach(buf.putDouble)
      md.update(buf.array())
    }
    md.digest().map(x => f"${x & 0xff}%02x").mkString
  }

  /** Per path, (size, digest) of train, support, target and test. */
  val Golden: Map[String, Seq[(Int, String)]] = Map(
    "build overlapping" -> Seq(
      (120, "bd77495a26a8867c93f48b74bc8c805a2c10276d0dc7416ec18c4dba234609b1"),
      (20, "93d4b7234c56d46ea9ed9c8d2eccf9695800e4360ceecdd9f4bc643faa062d44"),
      (156, "6272b2864149b08cabb82dad40a5e3439d176d0b45cc09ac73c85559cf05bd57"),
      (100, "a35aaf25af4f40d69ca20e10ba1794de628cf479e9f5b0870f71509d847b10ed"),
    ),
    "build disjoint" -> Seq(
      (120, "bd77495a26a8867c93f48b74bc8c805a2c10276d0dc7416ec18c4dba234609b1"),
      (20, "861dadf0d7e064bb3d6d12866838f5a7eeddf734d5480448629f64ecf88ab342"),
      (152, "04584289850679a69aa579f00ecd51977a4328095afd268230c9ea5f661ef1d1"),
      (100, "18dd8fb57358128ae645d1edf847b91110e250cb4852d7b333d8c78da6cbe5d9"),
    ),
    "buildSplit (weak-label twin)" -> Seq(
      (112, "37befd19f949500aa23e2d3970b08c2716da07f937c37ff8991a856f1f6364fb"),
      (20, "93d4b7234c56d46ea9ed9c8d2eccf9695800e4360ceecdd9f4bc643faa062d44"),
      (156, "6272b2864149b08cabb82dad40a5e3439d176d0b45cc09ac73c85559cf05bd57"),
      (100, "a35aaf25af4f40d69ca20e10ba1794de628cf479e9f5b0870f71509d847b10ed"),
    ),
    "buildSingleDomain" -> Seq(
      (120, "e824efa95574709e91a1eca192645672a604248e34f3110a26ea0bb400558de3"),
      (20, "82cc131bf6fd446f804eeb3f76ee9a77ebf8e912fdbeb94206feb71ff9415220"),
      (100, "32a396732942f734c141e8f875e5fa18ffaec4fb99335299fefd0f29b238252f"),
      (100, "22f9db73e6a58c418fdc4d19bdb14dfd3cdf6635926bddfa1e52219dbc0c7681"),
    ),
    "Monitor build overlapping (capped blocks)" -> Seq(
      (120, "e4c852bee4bbe8a3b23faef2cf9bf9ba42d5672503e8feb04336a6cce16d07a2"),
      (20, "0728633facbeace58bb19db12ec1d49637d8af7f25f057bc5c364a1387dcea98"),
      (162, "ab7b21ccd430678196db2e5440d197fa89e5d744580d48bf980159d681a0ff9f"),
      (100, "dc4d6a35df59ee2e2e75e2dcef361caf87ad730fbd64f27ca0f61ea5b7e0e43a"),
    ),
  )
}
