package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.er.{PairBatch, PairData, TestPairs}
import repro.eval.Metrics

class BaselinesSpec extends AnyFunSuite {

  private val dim = 16
  private lazy val train = TestPairs.separable(120, dim, seed = 1)
  private lazy val test = TestPairs.separable(60, dim, seed = 2)

  private def allMatchers: Seq[Matcher] = Seq(
    new TLER(seed = 5),
    new DeepMatcherLite(dim, seed = 5),
    new EntityMatcherLite(seed = 5),
    new DittoLite(dim, seed = 5),
    new CorDelLite(seed = 5),
  )

  /** One pair's feature vector, as the matcher writes it into its feature matrix. */
  private def features(m: MLPMatcher, batch: PairBatch, p: PairData): Array[Double] = {
    val out = new Array[Double](m.featureDim(batch))
    m.featurize(p, batch.attrs, out, 0)
    out
  }

  test("every baseline solves the separable toy task") {
    allMatchers.foreach { m =>
      m.fit(train)
      val ap = Metrics.prauc(m.scores(test), test.labels)
      assert(ap > 0.85, s"${m.name}: PRAUC $ap")
    }
  }

  test("scores are probabilities") {
    allMatchers.foreach { m =>
      m.fit(train)
      assert(m.scores(test).forall(s => s >= 0 && s <= 1), m.name)
    }
  }

  test("a non-finite loss fails naming the epoch and the step") {
    val e = intercept[ArithmeticException](new CorDelLite(seed = 5).fit(TestPairs.withNaNFeature(train, 0)))
    assert(e.getMessage.matches("non-finite loss NaN at epoch 1, step \\d+: L_base not finite .*"), e.getMessage)
  }

  test("scoring an empty batch gives no scores") {
    val empty = test.subset(Array.empty[Int])
    allMatchers.foreach { m =>
      m.fit(train)
      assert(m.scores(empty).isEmpty, m.name)
    }
  }

  test("scoring before fit fails") {
    intercept[IllegalArgumentException](new TLER(1).scores(test))
  }

  test("baseline names match the paper's method names") {
    assert(allMatchers.map(_.name) ==
      Seq("TLER", "DeepMatcher", "EntityMatcher", "Ditto", "CorDel-Attention"))
  }

  test("TLER feature space is 6 similarities per attribute") {
    val t = new TLER(1)
    assert(features(t, train, train.pairs(0)).length == 6 * train.attrs.size)
  }

  test("TLER similarity features are bounded in [0,1]") {
    val t = new TLER(1)
    train.pairs.take(20).foreach { p =>
      assert(features(t, train, p).forall(x => x >= 0.0 && x <= 1.0))
    }
  }

  test("DeepMatcherLite representation is [|u-v|, u⊙v] per attribute") {
    val d = new DeepMatcherLite(dim, 1)
    assert(features(d, train, train.pairs(0)).length == train.attrs.size * 2 * dim)
  }

  test("DittoLite representation is [u, v, |u-v|, u⊙v] plus domain-knowledge spans") {
    val d = new DittoLite(dim, 1)
    assert(features(d, train, train.pairs(0)).length == 4 * dim + train.attrs.size)
  }

  test("CorDelLite consumes the contrastive pipeline features directly") {
    val c = new CorDelLite(1)
    val f = features(c, train, train.pairs(0))
    assert(f.sameElements(train.pairs(0).features))
  }

  test("EntityMatcherLite aligns tokens across attributes (dirty-robustness)") {
    val e = new EntityMatcherLite(1)
    // Same value, but displaced into the other attribute on side 2.
    val displaced = TestPairs.fromTokens(Vector("a0", "a1"), dim, Seq(
      (1.0, Array(Seq("alpha", "beta"), Seq.empty), Array(Seq.empty, Seq("alpha", "beta")))))
    val f = features(e, displaced, displaced.pairs(0))
    // Feature 0 of attr a0 is coverage of side-1 tokens anywhere in side 2 -> 1.0
    assert(f(0) == 1.0)
    // Same-attribute Jaccard is 0 (value moved away).
    assert(f(2) == 0.0)
  }

  test("DeepMatcherLite does NOT align across attributes (contrast with EntityMatcher)") {
    val dm = new DeepMatcherLite(dim, 1)
    val displaced = TestPairs.fromTokens(Vector("a0", "a1"), dim, Seq(
      (1.0, Array(Seq("alpha", "beta"), Seq.empty), Array(Seq.empty, Seq("alpha", "beta")))))
    val aligned = TestPairs.fromTokens(Vector("a0", "a1"), dim, Seq(
      (1.0, Array(Seq("alpha", "beta"), Seq.empty), Array(Seq("alpha", "beta"), Seq.empty))))
    val fD = features(dm, displaced, displaced.pairs(0))
    val fA = features(dm, aligned, aligned.pairs(0))
    // |u - v| portion of attr a0 is larger when the value is displaced.
    val diffD = fD.slice(0, dim).sum
    val diffA = fA.slice(0, dim).sum
    assert(diffD > diffA + 0.5)
  }

  test("each featurizer writes exactly its pair's slot of the feature matrix") {
    allMatchers.collect { case m: MLPMatcher => m }.foreach { m =>
      val c = m.featureDim(train)
      train.pairs.take(5).foreach { p =>
        val out = Array.fill(3 * c)(Double.NaN)
        m.featurize(p, train.attrs, out, c)
        assert(out.take(c).forall(_.isNaN) && out.drop(2 * c).forall(_.isNaN), s"${m.name} wrote outside its slot")
        assert(java.util.Arrays.equals(out.slice(c, 2 * c), features(m, train, p)), s"${m.name} depends on the offset")
        assert(!out.slice(c, 2 * c).exists(_.isNaN), s"${m.name} left a feature unwritten")
      }
    }
  }

  test("baselines are deterministic in seed") {
    val a = new DeepMatcherLite(dim, 7); val b = new DeepMatcherLite(dim, 7)
    a.fit(train); b.fit(train)
    assert(a.scores(test).toSeq == b.scores(test).toSeq)
  }

  test("Sim helpers behave on edge cases") {
    assert(Sim.jaccard(Seq.empty, Seq.empty) == 0.0)
    assert(Sim.jaccard(Seq("a"), Seq("a")) == 1.0)
    assert(Sim.containment(Seq.empty, Seq("a")) == 0.0)
    assert(Sim.containment(Seq("a", "b"), Seq("a")) == 0.5)
    assert(Sim.bothPresent(Seq("a"), Seq.empty) == 0.0)
    assert(Sim.lengthRatio(Seq.empty, Seq.empty) == 1.0)
    assert(Sim.lengthRatio(Seq("a"), Seq("a", "b")) == 0.5)
  }
}
