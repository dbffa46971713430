package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.core.AdaMELConfig
import repro.data._
import repro.eval.MELData

/** Shared, lazily cached datasets for the table benches.
  *
  * Sizes are the paper's Table 3 shapes scaled to the CPU substrate (see
  * DESIGN.md §5 and its local deviations): Music-3K is ~1:1, the Music-1M
  * analog is 7,310 records (1,533 artist / 2,313 album / 3,464 track) with
  * generator-level weak-label noise, Monitor keeps the paper's extreme
  * negative skew. All construction is deterministic; batches
  * are cached per (dataset, scenario) so the 9 methods x 3 seeds reuse one
  * Spark extraction.
  */
object BenchDatasets {
  val dim = 32

  /** Paper hyperparameters scaled to the substrate (DESIGN.md §5). */
  val adamelCfg: AdaMELConfig = AdaMELConfig(epochs = 60, lr = 1e-2, lambda = 0.98, phi = 1.0)

  lazy val spark: SparkSession = SparkSpec.shared

  private val cache = scala.collection.mutable.Map.empty[String, MELData]
  private def cached(key: String)(mk: => MELData): MELData =
    synchronized(cache.getOrElseUpdate(key, mk))

  // ---------------------------------------------------------------- Music
  private lazy val music3kRecords: DataFrame =
    RecordsDF.toDF(spark, MusicGen.generate(MusicConfig(nArtists = 260, seed = 42))).cache()

  // Music-1M analog: same universe shape but larger and weakly labeled.
  // Clean twin (same records, true entity ids) supplies support/target/test.
  private lazy val music1mNoisy: DataFrame =
    RecordsDF.toDF(spark, MusicGen.generate(
      MusicConfig(nArtists = 450, seed = 77, weakLabelNoise = 0.10))).cache()
  private lazy val music1mClean: DataFrame =
    RecordsDF.toDF(spark, MusicGen.generate(MusicConfig(nArtists = 450, seed = 77))).cache()

  private def musicScenario(disjoint: Boolean, big: Boolean): ScenarioConfig = ScenarioConfig(
    nTrainPos = if (big) 500 else 130,
    nTrainNeg = if (big) 1500 else 250,
    nSupport = 100,
    nTestPos = 200, nTestNeg = 340,
    nTargetExtra = 300,
    disjoint = disjoint,
    blockAttr = "name",
    seed = if (big) 19L else 13L)

  def music3k(etype: String, disjoint: Boolean): MELData =
    cached(s"music3k-$etype-$disjoint") {
      val recs = music3kRecords.where(org.apache.spark.sql.functions.col("etype") === etype)
      val s = Scenarios.build(recs, MusicGen.seenSources, musicScenario(disjoint, big = false))
      MELData.collect(s"Music-3K/$etype/${scen(disjoint)}", MusicGen.attrs, dim,
        s.train, s.support, s.target, s.test)
    }

  def music1m(etype: String, disjoint: Boolean): MELData =
    cached(s"music1m-$etype-$disjoint") {
      val f = org.apache.spark.sql.functions.col("etype") === etype
      val s = Scenarios.buildSplit(music1mNoisy.where(f), music1mClean.where(f),
        MusicGen.seenSources, musicScenario(disjoint, big = true))
      MELData.collect(s"Music-1M/$etype/${scen(disjoint)}", MusicGen.attrs, dim,
        s.train, s.support, s.target, s.test)
    }

  // -------------------------------------------------------------- Monitor
  lazy val monitorRecords: DataFrame =
    RecordsDF.toDF(spark, MonitorGen.generate(MonitorConfig(nMonitors = 320, seed = 99))).cache()

  def monitorScenario(disjoint: Boolean): ScenarioConfig = ScenarioConfig(
    nTrainPos = 100, nTrainNeg = 1900, // paper: 302+/17766 total — same skew
    nSupport = 100,
    nTestPos = 300, nTestNeg = 1000, // paper: 432+/1000-
    nTargetExtra = 400,
    disjoint = disjoint,
    blockAttr = "page_title",
    seed = 23L)

  def monitor(disjoint: Boolean): MELData =
    cached(s"monitor-$disjoint") {
      val s = Scenarios.build(monitorRecords, MonitorGen.seenSources.toSet, monitorScenario(disjoint))
      MELData.collect(s"Monitor/${scen(disjoint)}", MonitorGen.attrs, dim,
        s.train, s.support, s.target, s.test)
    }

  // ------------------------------------------------------------ Table 7
  /** Single-domain benchmark: train/support/target/test all from the same
    * two-catalog distribution (no C1-C3). */
  def benchmark(cfg: BenchConfig): MELData =
    cached(s"bench-${cfg.name}") {
      val recs = RecordsDF.toDF(spark, BenchmarkGen.generate(cfg))
      val s = Scenarios.buildSingleDomain(recs, ScenarioConfig(
        nTrainPos = 120, nTrainNeg = 240, nSupport = 50,
        nTestPos = 100, nTestNeg = 200, nTargetExtra = 150,
        disjoint = false, blockAttr = "title", seed = 31L))
      MELData.collect(s"bench-${cfg.name}", BenchmarkGen.attrs, dim,
        s.train, s.support, s.target, s.test)
    }

  private def scen(disjoint: Boolean): String = if (disjoint) "disjoint" else "overlapping"
}
