package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Alloc
import repro.er.{PairBatch, TestPairs}
import repro.eval.Metrics

class AdaMELSpec extends AnyFunSuite {

  private val dim = 16
  private def cfg(v: Variant, epochs: Int = 80) =
    AdaMELConfig(variant = v, epochs = epochs, seed = 3)

  private lazy val train = TestPairs.separable(120, dim, seed = 1)
  private lazy val test = TestPairs.separable(60, dim, seed = 2)

  test("attention rows sum to one (simplex invariant, Eq. 5-6)") {
    val m = new AdaMEL(cfg(Variant.Base, epochs = 1), dim, train.featureNames)
    m.fit(train)
    val att = m.forwardPlain(test)._1
    for (r <- 0 until att.rows) {
      assert(math.abs((0 until att.cols).map(att(r, _)).sum - 1.0) < 1e-9)
    }
  }

  test("scores are probabilities in (0,1)") {
    val m = AdaMEL.fitted(cfg(Variant.Base, 10), train)
    assert(m.scores(test).forall(s => s > 0 && s < 1))
  }

  test("scoring an empty batch gives no scores") {
    val m = AdaMEL.fitted(cfg(Variant.Base, 1), train)
    assert(m.scores(test.subset(Array.empty[Int])).isEmpty)
  }

  test("scores and attention over 2·256 + 3 rows equal forwardPlain's, bit for bit") {
    val source = TestPairs.wide(200, 13, dim, seed = 5) // Monitor's F = 26
    val m = AdaMEL.fitted(cfg(Variant.Hyb, 3), source, Some(TestPairs.wide(100, 13, dim, seed = 7)),
      Some(TestPairs.wide(30, 13, dim, seed = 8)))
    val big = TestPairs.wide(2 * 256 + 3, 13, dim, seed = 6)
    val (att, probs) = m.forwardPlain(big)
    def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)
    assert(bits(m.scores(big)) == bits(probs.data))
    assert(bits(m.attention(big)) == bits(att.colMean.data))
  }

  test("a second scores call on the same batch allocates under 1 MB") {
    val wide = TestPairs.wide(2 * 256 + 3, 13, dim, seed = 6) // Monitor's F = 26
    val m = AdaMEL.fitted(cfg(Variant.Base, 1), wide)
    m.scores(wide)
    val bytes = Alloc.bytes(m.scores(wide))
    assert(bytes < (1 << 20), s"$bytes bytes")
  }

  test("a warm training step allocates under 96 KB: its tape arrays are recycled") {
    // Monitor's shapes: F = 26, D = 32, so W1 is 416 x 32 and its transpose
    // alone 106 KB. A warm step allocated ~51 KB, its tape objects and Mat
    // wrappers; with a fresh array for each transpose it allocated ~612 KB.
    val wide = TestPairs.wide(64, 13, 32, seed = 9)
    val m = new AdaMEL(cfg(Variant.Base), 32, wide.featureNames)
    val trainer = new Trainer(m.parameters, 1e-2, 1e-2)
    val idx = Array.range(0, 16)
    val y = wide.labelCol.rowsAt(idx)
    def step(): Double = trainer.step {
      val l = Trainer.bce(m.forward(wide.feats.map(_.rowsAt(idx)))._2, y)
      Loss(l, "L_base" -> l)
    }
    step()
    val bytes = Alloc.bytes(step())
    assert(bytes < 96 * 1024, s"$bytes bytes")
  }

  test("base loss decreases during training (Eq. 8)") {
    val m = new AdaMEL(cfg(Variant.Base), dim, train.featureNames)
    val losses = m.fit(train)
    assert(losses.last < losses.head * 0.5, s"losses ${losses.head} -> ${losses.last}")
  }

  test("base overfits a separable training set") {
    val m = AdaMEL.fitted(cfg(Variant.Base), train)
    assert(Metrics.prauc(m.scores(train), train.labels) > 0.99)
  }

  test("base generalizes to held-out pairs of the same distribution") {
    val m = AdaMEL.fitted(cfg(Variant.Base), train)
    assert(Metrics.prauc(m.scores(test), test.labels) > 0.9)
  }

  test("training is deterministic given the seed") {
    val m1 = AdaMEL.fitted(cfg(Variant.Base, 20), train)
    val m2 = AdaMEL.fitted(cfg(Variant.Base, 20), train)
    assert(m1.scores(test).toSeq == m2.scores(test).toSeq)
  }

  test("different seeds give different parameters") {
    val m1 = AdaMEL.fitted(cfg(Variant.Base, 10), train)
    val m2 = AdaMEL.fitted(cfg(Variant.Base, 10).copy(seed = 99), train)
    assert(m1.scores(test).toSeq != m2.scores(test).toSeq)
  }

  test("zero requires a target domain, few a support set, hyb both") {
    intercept[IllegalArgumentException](new AdaMEL(cfg(Variant.Zero), dim, train.featureNames).fit(train))
    intercept[IllegalArgumentException](new AdaMEL(cfg(Variant.Few), dim, train.featureNames).fit(train))
    intercept[IllegalArgumentException](
      new AdaMEL(cfg(Variant.Hyb), dim, train.featureNames).fit(train, Some(test), None))
  }

  test("fit rejects an empty source, naming the variant") {
    val support = TestPairs.separable(30, dim, seed = 9)
    val empty = train.subset(Array.empty[Int])
    Variant.all.foreach { v =>
      val e = intercept[IllegalArgumentException](
        new AdaMEL(cfg(v, epochs = 1), dim, train.featureNames).fit(empty, Some(test), Some(support)))
      assert(e.getMessage.contains(v.name) && e.getMessage.contains("empty source"), e.getMessage)
    }
  }

  test("zero and hyb reject an empty target, few and hyb an empty support set, naming the variant and the split") {
    val support = TestPairs.separable(30, dim, seed = 9)
    def failure(v: Variant, target: PairBatch, sup: PairBatch): String =
      intercept[IllegalArgumentException](
        new AdaMEL(cfg(v, epochs = 1), dim, train.featureNames).fit(train, Some(target), Some(sup))).getMessage
    val none = Array.empty[Int]
    for (v <- Seq(Variant.Zero, Variant.Hyb)) {
      val e = failure(v, test.subset(none), support)
      assert(e.contains(v.name) && e.contains("empty target"), e)
    }
    for (v <- Seq(Variant.Few, Variant.Hyb)) {
      val e = failure(v, test, support.subset(none))
      assert(e.contains(v.name) && e.contains("empty support"), e)
    }
  }

  test("few and hyb need both classes in the source (Eq. 11 centroids are per class)") {
    val support = TestPairs.separable(30, dim, seed = 9)
    for (v <- Seq(Variant.Few, Variant.Hyb); source <- Seq(train.positives, train.negatives)) {
      val e = intercept[IllegalArgumentException](
        new AdaMEL(cfg(v, epochs = 1), dim, train.featureNames).fit(source, Some(test), Some(support)))
      assert(e.getMessage.contains(v.name) && e.getMessage.contains("both classes"), e.getMessage)
    }
  }

  test("a non-finite loss fails naming the epoch, the step and the term") {
    val support = TestPairs.separable(30, dim, seed = 9)
    def failure(v: Variant, source: PairBatch, target: PairBatch, sup: PairBatch): String =
      intercept[ArithmeticException](
        new AdaMEL(cfg(v, epochs = 2), dim, train.featureNames).fit(source, Some(target), Some(sup))).getMessage
    val nanSource = failure(Variant.Base, TestPairs.withNaNFeature(train, 7), test, support)
    assert(nanSource.matches("non-finite loss NaN at epoch 1, step \\d+: L_base not finite \\(L_base = NaN\\)"), nanSource)
    val nanTarget = failure(Variant.Zero, train, TestPairs.withNaNFeature(test, 3), support)
    assert(nanTarget.startsWith("non-finite loss NaN at epoch 1, step 1: KL not finite"), nanTarget)
    val nanSupport = failure(Variant.Few, train, test, TestPairs.withNaNFeature(support, 0))
    val steps = math.ceil(train.n / 16.0).toInt + 1 // one epoch's balanced batches, then the support step
    assert(nanSupport.startsWith(s"non-finite loss NaN at epoch 1, step $steps: L_support not finite"), nanSupport)
  }

  test("zero trains with unlabeled target and still solves the task") {
    val m = AdaMEL.fitted(cfg(Variant.Zero), train, target = Some(test))
    assert(Metrics.prauc(m.scores(test), test.labels) > 0.85)
  }

  test("few trains with a support set and solves the task") {
    val support = TestPairs.separable(30, dim, seed = 9)
    val m = AdaMEL.fitted(cfg(Variant.Few), train, support = Some(support))
    assert(Metrics.prauc(m.scores(test), test.labels) > 0.9)
  }

  test("hyb trains with both and solves the task") {
    val support = TestPairs.separable(30, dim, seed = 9)
    val m = AdaMEL.fitted(cfg(Variant.Hyb), train, Some(test), Some(support))
    assert(Metrics.prauc(m.scores(test), test.labels) > 0.9)
  }

  test("adaptation shrinks the source-target attention gap (Q2 mechanism)") {
    // Target domain: informative tokens moved to the other attribute.
    val targetShifted = TestPairs.separable(120, dim, seed = 4, informativeAttr = 1)
    def gap(m: AdaMEL): Double = {
      val aS = m.attention(train); val aT = m.attention(targetShifted)
      aS.zip(aT).map { case (x, y) => math.abs(x - y) }.sum
    }
    val base = AdaMEL.fitted(cfg(Variant.Base), train)
    val zero = AdaMEL.fitted(cfg(Variant.Zero), train, target = Some(targetShifted))
    assert(gap(zero) < gap(base), s"zero gap ${gap(zero)} vs base gap ${gap(base)}")
  }

  test("attention concentrates on the informative attribute's features") {
    val m = AdaMEL.fitted(cfg(Variant.Base), train)
    val att = m.attention(train)
    val names = m.featureNames
    val informative = names.zipWithIndex.filter(_._1.startsWith("attr0")).map(a => att(a._2)).sum
    assert(informative > 0.5, s"attention on attr0 features = $informative")
  }

  test("attentionReport returns top-k sorted feature importances") {
    val m = AdaMEL.fitted(cfg(Variant.Base, 10), train)
    val rep = m.attentionReport(train, topK = 3)
    assert(rep.size == 3)
    assert(rep.sliding(2).forall { case Seq(a, b) => a._2 >= b._2 })
    assert(rep.forall(r => m.featureNames.contains(r._1)))
  }

  test("featureIdx restricts the model to a feature subset (Table 5/6 support)") {
    val idx = Seq(0, 1) // attr0_shared, attr0_unique
    val m = AdaMEL.fitted(cfg(Variant.Base).copy(featureIdx = Some(idx)), train)
    assert(m.numFeatures == 2)
    assert(m.featureNames == Vector("attr0_shared", "attr0_unique"))
    assert(Metrics.prauc(m.scores(test), test.labels) > 0.9) // attr0 is sufficient
  }

  test("shared-only subset on the uninformative attribute performs poorly") {
    val idx = Seq(2, 3) // attr1 features: pure noise
    val m = AdaMEL.fitted(cfg(Variant.Base).copy(featureIdx = Some(idx)), train)
    assert(Metrics.prauc(m.scores(test), test.labels) < 0.8)
  }

  test("parameter count matches the §4.5 formula") {
    val c = cfg(Variant.Base)
    val m = new AdaMEL(c, dim, train.featureNames)
    val f = train.numFeatures
    val expected = f.toLong * (dim * c.h + c.h) + // V_j, b_j
      c.h * c.hPrime + c.hPrime + // W, a
      f * c.h * c.hidden + c.hidden + // W1, b1
      c.hidden + 1 // W2, b2
    assert(m.parameterCount == expected)
  }
}
