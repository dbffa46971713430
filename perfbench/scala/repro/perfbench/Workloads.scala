package repro.perfbench

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core.{AdaMELConfig, Variant}
import repro.data._

/** A named workload: one MEL scenario's records, split into the four
  * pair sets by `Scenarios.build`, then AdaMEL-hyb (which reads the pairs'
  * `features`) and DeepMatcher (which reads `toks1/toks2`) fitted and scored
  * by PRAUC.
  *
  * @param expectedSizes   train / support / target / test sizes the scenario is known to give
  * @param expectedQuality method name -> PRAUC the seed is known to give
  */
final case class Workload(
    name: String,
    attrs: Vector[String],
    scenario: ScenarioConfig,
    generate: () => Seq[Rec],
    split: DataFrame => MELSplits,
    adamel: AdaMELConfig,
    deepMatcherEpochs: Int,
    expectedSizes: Seq[Int],
    expectedQuality: Map[String, Double],
)

/** The benchmark's workloads: the `BenchDatasets` Music-3K artist and
  * Monitor cells, in the overlapping scenario.
  *
  * The records and the four splits are the `BenchDatasets` ones, whatever the
  * seed, so their sizes are known; `seed` offsets the method seeds
  * (initialisation and batch order), and seed 0 gives the `BenchDatasets`
  * defaults. The `paper` profile trains with the table benches' epochs
  * (AdaMEL 60, DeepMatcher 120) at seed 0 and also checks the PRAUC those
  * cells are known to give. The default profile trains for fewer epochs, so
  * that a run fits the benchmark's time budget.
  */
object Workloads {
  val Dim = 32
  val Names: Seq[String] = Seq("music3k-artist", "monitor")

  def apply(name: String, seed: Long, paper: Boolean): Workload = {
    def adamel(epochs: Int) = AdaMELConfig(
      variant = Variant.Hyb, epochs = if (paper) 60 else epochs, lr = 1e-2, lambda = 0.98, phi = 1.0,
      seed = 1L + seed)
    def dmEpochs(epochs: Int) = if (paper) 120 else epochs
    def quality(kv: (String, Double)*) = if (paper) kv.toMap else Map.empty[String, Double]

    name match {
      case "music3k-artist" =>
        val sc = ScenarioConfig(
          nTrainPos = 130, nTrainNeg = 250, nSupport = 100, nTestPos = 200, nTestNeg = 340,
          nTargetExtra = 300, disjoint = false, blockAttr = "name", seed = 13L)
        Workload(name, MusicGen.attrs, sc,
          () => MusicGen.generate(MusicConfig(nArtists = 260, seed = 42L)),
          recs => Scenarios.build(recs.where(F.col("etype") === "artist"), MusicGen.seenSources, sc),
          adamel(12), dmEpochs(30), Seq(380, 100, 890, 540),
          quality("AdaMEL-hyb" -> 0.979165, "DeepMatcher" -> 0.807099))

      case "monitor" =>
        val sc = ScenarioConfig(
          nTrainPos = 100, nTrainNeg = 1900, nSupport = 100, nTestPos = 300, nTestNeg = 1000,
          nTargetExtra = 400, disjoint = false, blockAttr = "page_title", seed = 23L)
        Workload(name, MonitorGen.attrs, sc,
          () => MonitorGen.generate(MonitorConfig(nMonitors = 320, seed = 99L)),
          recs => Scenarios.build(recs, MonitorGen.seenSources.toSet, sc),
          adamel(12), dmEpochs(4), Seq(2000, 100, 1754, 1300),
          quality("AdaMEL-hyb" -> 0.762523))

      case other =>
        throw new IllegalArgumentException(
          s"unknown workload '$other' (expected one of ${Names.mkString(", ")})")
    }
  }
}
