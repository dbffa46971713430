package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Rng

class MetricsSpec extends AnyFunSuite {

  test("perfect ranking gives PRAUC 1") {
    val s = Array(0.9, 0.8, 0.2, 0.1)
    val y = Array(1.0, 1.0, 0.0, 0.0)
    assert(math.abs(Metrics.prauc(s, y) - 1.0) < 1e-12)
  }

  test("inverted ranking gives low PRAUC") {
    val s = Array(0.1, 0.2, 0.8, 0.9)
    val y = Array(1.0, 1.0, 0.0, 0.0)
    assert(Metrics.prauc(s, y) < 0.6)
  }

  test("PRAUC of all-negative labels is 0") {
    assert(Metrics.prauc(Array(0.5, 0.4), Array(0.0, 0.0)) == 0.0)
  }

  test("PRAUC hand-computed example") {
    // Ranking: pos, neg, pos  ->  AP = (1/1 + 2/3) / 2
    val s = Array(0.9, 0.8, 0.7)
    val y = Array(1.0, 0.0, 1.0)
    assert(math.abs(Metrics.prauc(s, y) - (1.0 + 2.0 / 3.0) / 2) < 1e-12)
  }

  test("PRAUC is invariant to monotone score transforms") {
    val rng = new Rng(1)
    val s = Array.fill(50)(rng.nextDouble())
    val y = Array.fill(50)(if (rng.nextBoolean(0.3)) 1.0 else 0.0)
    val s2 = s.map(x => math.exp(3 * x) + 1)
    assert(math.abs(Metrics.prauc(s, y) - Metrics.prauc(s2, y)) < 1e-12)
  }

  test("PRAUC is invariant to joint permutation") {
    val rng = new Rng(2)
    val s = Array.fill(30)(rng.nextDouble())
    val y = Array.fill(30)(if (rng.nextBoolean(0.4)) 1.0 else 0.0)
    val perm = rng.shuffle(s.indices.toSeq).toArray
    assert(math.abs(Metrics.prauc(perm.map(s), perm.map(y)) - Metrics.prauc(s, y)) < 1e-12)
  }

  test("random scores give PRAUC near the positive rate") {
    val rng = new Rng(3)
    val n = 5000
    val s = Array.fill(n)(rng.nextDouble())
    val y = Array.fill(n)(if (rng.nextBoolean(0.2)) 1.0 else 0.0)
    val ap = Metrics.prauc(s, y)
    assert(math.abs(ap - 0.2) < 0.05, s"AP $ap")
  }

  test("length mismatch throws") {
    intercept[IllegalArgumentException](Metrics.prauc(Array(1.0), Array(1.0, 0.0)))
  }

  test("PRAUC rejects non-finite scores and names the first bad index") {
    val nan = intercept[IllegalArgumentException](
      Metrics.prauc(Array(Double.NaN, Double.NaN, Double.NaN), Array(1.0, 0.0, 0.0)))
    assert(nan.getMessage.contains("index 0"), nan.getMessage)
    val inf = intercept[IllegalArgumentException](
      Metrics.prauc(Array(0.5, Double.PositiveInfinity, Double.NaN), Array(1.0, 0.0, 0.0)))
    assert(inf.getMessage.contains("index 1"), inf.getMessage)
  }

  test("PRAUC handles ties as a single threshold group") {
    // Two positives and two negatives all tied: P=0.5 at R=1.
    assert(math.abs(Metrics.prauc(Array(1.0, 1.0, 1.0, 1.0), Array(1.0, 0.0, 1.0, 0.0)) - 0.5) < 1e-12)
    // Tie group order must not matter.
    assert(Metrics.prauc(Array(0.9, 0.9, 0.1), Array(1.0, 0.0, 0.0)) ==
      Metrics.prauc(Array(0.9, 0.9, 0.1), Array(0.0, 1.0, 0.0)))
  }

  test("precision/recall/F1 hand-computed") {
    val s = Array(0.9, 0.8, 0.4, 0.3)
    val y = Array(1.0, 0.0, 1.0, 0.0)
    val (p, r, f1) = Metrics.precisionRecallF1(s, y, 0.5)
    assert(p == 0.5 && r == 0.5 && math.abs(f1 - 0.5) < 1e-12)
  }

  test("threshold above all scores gives zero recall") {
    val (_, r, f1) = Metrics.precisionRecallF1(Array(0.1, 0.2), Array(1.0, 1.0), 0.9)
    assert(r == 0.0 && f1 == 0.0)
  }

  test("bestF1 of a perfect ranker is 1") {
    val s = Array(0.9, 0.8, 0.2, 0.1)
    val y = Array(1.0, 1.0, 0.0, 0.0)
    assert(math.abs(Metrics.bestF1(s, y) - 1.0) < 1e-12)
  }

  test("bestF1 at least matches any fixed threshold") {
    val rng = new Rng(4)
    val s = Array.fill(100)(rng.nextDouble())
    val y = Array.fill(100)(if (rng.nextBoolean(0.5)) 1.0 else 0.0)
    val best = Metrics.bestF1(s, y)
    Seq(0.1, 0.3, 0.5, 0.7, 0.9).foreach { t =>
      assert(best >= Metrics.precisionRecallF1(s, y, t)._3 - 1e-12)
    }
  }

  test("bestF1 on empty scores is 0") {
    assert(Metrics.bestF1(Array.empty, Array.empty) == 0.0)
  }

  test("bestF1 equals the max over thresholds of precisionRecallF1 on random scores with ties") {
    // The reference: F1 at every distinct score threshold, O(n^2).
    def reference(scores: Array[Double], labels: Array[Double]): Double = {
      val thresholds = scores.distinct.sorted
      if (thresholds.isEmpty) 0.0
      else thresholds.foldLeft(0.0)((best, t) => math.max(best, Metrics.precisionRecallF1(scores, labels, t)._3))
    }
    val rng = new Rng(5)
    (1 to 300).foreach { c =>
      val n = rng.nextInt(60)
      val levels = 1 + rng.nextInt(12) // few levels: many ties
      val s = Array.fill(n)(rng.nextInt(levels).toDouble / levels)
      val y = Array.fill(n)(if (rng.nextBoolean(0.4)) 1.0 else 0.0)
      assert(Metrics.bestF1(s, y) == reference(s, y), s"case $c: scores ${s.toSeq}, labels ${y.toSeq}")
    }
  }

  test("bestF1 rejects non-finite scores") {
    intercept[IllegalArgumentException](Metrics.bestF1(Array(0.5, Double.NaN), Array(1.0, 0.0)))
  }

  test("meanStd of constant sequence") {
    val (m, s) = Metrics.meanStd(Seq(2.0, 2.0, 2.0))
    assert(m == 2.0 && s == 0.0)
  }

  test("meanStd hand-computed") {
    val (m, s) = Metrics.meanStd(Seq(1.0, 3.0))
    assert(m == 2.0 && s == 1.0)
  }

  test("meanStd of empty throws") {
    intercept[IllegalArgumentException](Metrics.meanStd(Seq.empty))
  }

  test("fmtMeanStd formats with four decimals") {
    assert(Metrics.fmtMeanStd(Seq(0.5, 0.7)) == "0.6000 ± 0.1000")
  }
}
