package repro.eval

/** Evaluation metrics used by the paper: PRAUC (average precision, the
  * paper's primary metric, §5.1) and F1 (Table 7).
  */
object Metrics {

  /** Average precision — the step-interpolation PRAUC sklearn's
    * `average_precision_score` computes: AP = Σ_k (R_k − R_{k−1}) · P_k over
    * descending *distinct* score thresholds. Tie-aware: all items with an
    * equal score enter at one threshold (saturated sigmoids produce exact
    * 1.0/0.0 ties; breaking them by input order would reward or punish
    * arbitrary ordering). Scores must be finite: a diverged fit's NaN
    * scores would otherwise form one tie group and yield a plausible AP.
    */
  def prauc(scores: Array[Double], labels: Array[Double]): Double = {
    requireScores("prauc", scores, labels)
    val nPos = labels.count(_ == 1.0)
    if (nPos == 0) return 0.0
    val byScore = scores.indices.groupBy(scores(_)).toSeq.sortBy(-_._1)
    var tp = 0
    var seen = 0
    var ap = 0.0
    byScore.foreach { case (_, idx) =>
      val dTp = idx.count(labels(_) == 1.0)
      tp += dTp
      seen += idx.size
      if (dTp > 0) ap += dTp.toDouble / nPos * (tp.toDouble / seen)
    }
    ap
  }

  private def requireScores(metric: String, scores: Array[Double], labels: Array[Double]): Unit = {
    require(scores.length == labels.length, s"$metric length mismatch")
    val bad = scores.indexWhere(s => s.isNaN || s.isInfinite)
    require(bad < 0, s"$metric: non-finite score ${scores(bad)} at index $bad")
  }

  def precisionRecallF1(scores: Array[Double], labels: Array[Double],
                        threshold: Double): (Double, Double, Double) = {
    var tp = 0; var fp = 0; var fn = 0
    scores.indices.foreach { i =>
      val pred = scores(i) >= threshold
      if (pred && labels(i) == 1.0) tp += 1
      else if (pred) fp += 1
      else if (labels(i) == 1.0) fn += 1
    }
    fromCounts(tp, fp, fn)
  }

  private def fromCounts(tp: Int, fp: Int, fn: Int): (Double, Double, Double) = {
    val p = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val r = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    (p, r, f1)
  }

  /** Max F1 over all score thresholds — the usual EM-paper protocol
    * (threshold tuned on a validation split drawn from the same
    * distribution; at our scale we report the attainable optimum, applied
    * identically to every method). One descending sort, then a sweep that
    * admits each tie group at once, as the threshold at its score would.
    * Scores must be finite, as for [[prauc]]. */
  def bestF1(scores: Array[Double], labels: Array[Double]): Double = {
    requireScores("bestF1", scores, labels)
    val nPos = labels.count(_ == 1.0)
    val order = scores.indices.sortBy(i => -scores(i))
    var tp = 0; var fp = 0; var k = 0
    var best = 0.0
    while (k < order.length) {
      val s = scores(order(k))
      while (k < order.length && scores(order(k)) == s) {
        if (labels(order(k)) == 1.0) tp += 1 else fp += 1
        k += 1
      }
      best = math.max(best, fromCounts(tp, fp, nPos - tp)._3)
    }
    best
  }

  def meanStd(xs: Seq[Double]): (Double, Double) = {
    require(xs.nonEmpty, "meanStd of empty seq")
    val m = xs.sum / xs.size
    val v = xs.map(x => (x - m) * (x - m)).sum / xs.size
    (m, math.sqrt(v))
  }

  def fmtMeanStd(xs: Seq[Double]): String = {
    val (m, s) = meanStd(xs)
    f"$m%.4f ± $s%.4f"
  }
}
