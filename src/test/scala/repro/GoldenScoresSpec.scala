package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core.{AdaMEL, AdaMELConfig, Variant}
import repro.er.{PairBatch, TestPairs}

/** Golden seeded outputs of all nine methods (no Spark), on two fixtures:
  * the `TestPairs.separable` task of `AdaMELSpec` and `BaselinesSpec`
  * (F = 4, D = 16), and a Monitor-shaped `TestPairs.wide` task (F = 26,
  * D = 32, batch 16, a 30-pair support set).
  *
  * Pins the test-set scores of the four AdaMEL variants and the five
  * baselines, and the per-epoch losses `AdaMEL.fit` returns. A refactor of
  * the models, their training loop or the autodiff substrate must reproduce
  * them to 1e-12; a change that means to move them must say why and
  * regenerate the values.
  */
class GoldenScoresSpec extends AnyFunSuite {
  import GoldenScoresSpec._

  private def assertClose(what: String, got: Seq[Double], want: Seq[Double]): Unit = {
    assert(got.length == want.length, s"$what: ${got.length} values, expected ${want.length}")
    val worst = got.indices.maxBy(i => math.abs(got(i) - want(i)))
    val delta = math.abs(got(worst) - want(worst))
    assert(delta <= Tol, s"$what: |Δ| = $delta at index $worst (got ${got(worst)}, expected ${want(worst)})")
  }

  private def goldenTests(prefix: String, fixture: => Fixture,
                          wantLosses: Map[String, Array[Double]], wantScores: Map[String, Array[Double]]): Unit = {
    lazy val (losses, scores) = {
      val (l, s) = fitAll(fixture)
      (l.toMap, s.toMap)
    }
    for (v <- Variant.all) test(s"$prefix${v.name} per-epoch losses match the golden values") {
      assertClose(s"${v.name} losses", losses(v.name), wantLosses(v.name).toSeq)
    }
    for (name <- Methods) test(s"$prefix$name test-set scores match the golden values") {
      assertClose(s"$name scores", scores(name).toSeq, wantScores(name).toSeq)
    }
  }

  goldenTests("", Toy, GoldenValues.losses, GoldenValues.scores)
  goldenTests("Monitor-shaped: ", MonitorShaped, GoldenValues.monitorLosses, GoldenValues.monitorScores)
}

object GoldenScoresSpec {
  val Tol = 1e-12
  /** AdaMEL and DeepMatcher epochs; the other baselines train their fixed epochs. */
  val Epochs = 3

  final case class Fixture(dim: Int, train: PairBatch, test: PairBatch, support: PairBatch)

  def Toy: Fixture = Fixture(16,
    TestPairs.separable(120, 16, seed = 1), TestPairs.separable(60, 16, seed = 2),
    TestPairs.separable(30, 16, seed = 9))

  /** Monitor's F = 26 and D = 32; the support size is not a multiple of 4. */
  def MonitorShaped: Fixture = Fixture(32,
    TestPairs.wide(96, 13, 32, seed = 11), TestPairs.wide(40, 13, 32, seed = 12),
    TestPairs.wide(30, 13, 32, seed = 13))

  val Methods: Seq[String] = Seq("TLER", "DeepMatcher", "EntityMatcher", "Ditto", "CorDel-Attention") ++
    Variant.all.map(_.name)

  /** Fits every method on `f`: (AdaMEL losses by variant, test scores by method). */
  def fitAll(f: Fixture): (Seq[(String, Seq[Double])], Seq[(String, Array[Double])]) = {
    val Fixture(dim, train, test, support) = f
    val baselines: Seq[Matcher] = Seq(
      new TLER(seed = 5),
      new DeepMatcherLite(dim, seed = 5, epochs = Epochs),
      new EntityMatcherLite(seed = 5),
      new DittoLite(dim, seed = 5),
      new CorDelLite(seed = 5),
    )
    val baselineScores = baselines.map { m => m.fit(train); m.name -> m.scores(test) }
    val adamel = Variant.all.map { v =>
      val m = new AdaMEL(AdaMELConfig(variant = v, epochs = Epochs, seed = 3), dim, train.featureNames)
      val target = if (v == Variant.Zero || v == Variant.Hyb) Some(test) else None
      val sup = if (v == Variant.Few || v == Variant.Hyb) Some(support) else None
      val losses = m.fit(train, target, sup)
      (v.name -> losses, v.name -> m.scores(test))
    }
    (adamel.map(_._1), baselineScores ++ adamel.map(_._2))
  }
}
