package repro.eval

import repro.SparkSpec
import repro.core.AdaMELConfig
import repro.data._

class HarnessSpec extends SparkSpec {

  private val dim = 16

  private lazy val data: MELData = {
    val records = RecordsDF.toDF(spark,
      MusicGen.generate(MusicConfig(nArtists = 60, seed = 21)).filter(_.etype == "artist"))
    val s = Scenarios.build(records, MusicGen.seenSources,
      ScenarioConfig(nTrainPos = 40, nTrainNeg = 80, nSupport = 20,
        nTestPos = 40, nTestNeg = 60, nTargetExtra = 40, blockAttr = "name", seed = 5))
    MELData.collect("music-artist-test", MusicGen.attrs, dim, s.train, s.support, s.target, s.test)
  }

  private val fastCfg = AdaMELConfig(epochs = 25)

  test("MethodRunner.all lists the nine methods in the paper's row order") {
    val names = MethodRunner.all(dim, 1L, fastCfg).map(_.name)
    assert(names == Seq("TLER", "DeepMatcher", "EntityMatcher", "Ditto", "CorDel-Attention",
      "AdaMEL-base", "AdaMEL-zero", "AdaMEL-few", "AdaMEL-hyb"))
  }

  test("collected MELData batches have the expected schema") {
    assert(data.attrs == MusicGen.attrs)
    assert(data.train.isLabeled && data.support.isLabeled && data.test.isLabeled)
    assert(!data.target.isLabeled)
    assert(data.train.numFeatures == 2 * MusicGen.attrs.size)
  }

  test("a baseline runner produces a valid PRAUC over 2 seeds") {
    val res = Harness.evalPRAUC(data,
      s => MethodRunner.all(dim, s, fastCfg).head, seeds = Seq(1L, 2L))
    assert(res.method == "TLER")
    assert(res.runs.size == 2 && res.runs.forall(r => r >= 0 && r <= 1))
  }

  test("an AdaMEL runner produces a valid PRAUC and beats random") {
    val res = Harness.evalPRAUC(data,
      s => MethodRunner.adamel(fastCfg.copy(seed = s)), seeds = Seq(1L))
    val posRate = data.test.labels.count(_ == 1.0).toDouble / data.test.n
    assert(res.runs.head > posRate, s"PRAUC ${res.runs.head} vs positive rate $posRate")
  }

  test("Result formats mean ± std") {
    val r = Harness.Result("x", Seq(0.5, 0.7))
    assert(r.fmt == "0.6000 ± 0.1000" && math.abs(r.mean - 0.6) < 1e-12)
  }
}
