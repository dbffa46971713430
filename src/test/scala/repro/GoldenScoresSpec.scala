package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core.{AdaMEL, AdaMELConfig, Variant}
import repro.er.TestPairs

/** Golden seeded outputs of all nine methods on the `TestPairs.separable`
  * fixtures of `AdaMELSpec` and `BaselinesSpec` (no Spark).
  *
  * Pins the test-set scores of the four AdaMEL variants and the five
  * baselines, and the per-epoch losses `AdaMEL.fit` returns. A refactor of
  * the models or their training loop must reproduce them to 1e-12; a change
  * that means to move them must say why and regenerate the values.
  */
class GoldenScoresSpec extends AnyFunSuite {
  import GoldenScoresSpec._

  private lazy val (losses, scores) = {
    val (l, s) = fitAll()
    (l.toMap, s.toMap)
  }

  private def assertClose(what: String, got: Seq[Double], want: Seq[Double]): Unit = {
    assert(got.length == want.length, s"$what: ${got.length} values, expected ${want.length}")
    val worst = got.indices.maxBy(i => math.abs(got(i) - want(i)))
    val delta = math.abs(got(worst) - want(worst))
    assert(delta <= Tol, s"$what: |Δ| = $delta at index $worst (got ${got(worst)}, expected ${want(worst)})")
  }

  for (v <- Variant.all) test(s"${v.name} per-epoch losses match the golden values") {
    assertClose(s"${v.name} losses", losses(v.name), GoldenValues.losses(v.name).toSeq)
  }

  for (name <- Methods) test(s"$name test-set scores match the golden values") {
    assertClose(s"$name scores", scores(name).toSeq, GoldenValues.scores(name).toSeq)
  }
}

object GoldenScoresSpec {
  val Tol = 1e-12
  val Dim = 16
  /** AdaMEL and DeepMatcher epochs; the other baselines train their fixed epochs. */
  val Epochs = 3

  val Methods: Seq[String] = Seq("TLER", "DeepMatcher", "EntityMatcher", "Ditto", "CorDel-Attention") ++
    Variant.all.map(_.name)

  /** Fits every method on the fixtures: (AdaMEL losses by variant, test scores by method). */
  def fitAll(): (Seq[(String, Seq[Double])], Seq[(String, Array[Double])]) = {
    val train = TestPairs.separable(120, Dim, seed = 1)
    val test = TestPairs.separable(60, Dim, seed = 2)
    val support = TestPairs.separable(30, Dim, seed = 9)
    val baselines: Seq[Matcher] = Seq(
      new TLER(seed = 5),
      new DeepMatcherLite(Dim, seed = 5, epochs = Epochs),
      new EntityMatcherLite(seed = 5),
      new DittoLite(Dim, seed = 5),
      new CorDelLite(seed = 5),
    )
    val baselineScores = baselines.map { m => m.fit(train); m.name -> m.scores(test) }
    val adamel = Variant.all.map { v =>
      val m = new AdaMEL(AdaMELConfig(variant = v, epochs = Epochs, seed = 3), Dim, train.featureNames)
      val target = if (v == Variant.Zero || v == Variant.Hyb) Some(test) else None
      val sup = if (v == Variant.Few || v == Variant.Hyb) Some(support) else None
      val losses = m.fit(train, target, sup)
      (v.name -> losses, v.name -> m.scores(test))
    }
    (adamel.map(_._1), baselineScores ++ adamel.map(_._2))
  }
}
