package repro.baselines

import repro.core.{Classifier, Loss, Trainer}
import repro.er.{PairBatch, PairData}
import repro.linalg.{AD, Mat, Rng}

/** Common interface for the supervised baselines of §5.1.
  *
  * Per the paper's experimental setup, every baseline trains only on the
  * labeled source-domain pairs (no adaptation, no support set) — that is
  * precisely the behaviour AdaMEL is compared against.
  */
trait Matcher {
  def name: String
  def fit(source: PairBatch): Unit
  def scores(batch: PairBatch): Array[Double]
}

/** Generic MLP matcher over a per-pair feature extractor.
  *
  * All deep baselines (DeepMatcherLite, EntityMatcherLite, DittoLite,
  * CorDelLite) specialize this with their own featurization — the part the
  * respective papers differ in — while sharing AdaMEL's classifier head and
  * training loop (class-stratified batch-16 Adam + BCE, see [[Trainer]]) for
  * a fair comparison. `hidden = 0` degrades to logistic regression (TLER).
  */
abstract class MLPMatcher(val name: String, hidden: Int, epochs: Int, lr: Double, seed: Long)
    extends Matcher {

  /** Length of the feature vector of each pair of `batch`. */
  def featureDim(batch: PairBatch): Int

  /** Writes the feature vector of `p`, a pair of a batch with attributes
    * `attrs`, into `out(at until at + featureDim(batch))`. */
  def featurize(p: PairData, attrs: Vector[String], out: Array[Double], at: Int): Unit

  private var head: Option[Classifier] = None

  /** One row per pair, each featurized straight into the matrix. */
  private def featureMat(batch: PairBatch): Mat = {
    val c = featureDim(batch)
    val out = new Array[Double](batch.n * c)
    var i = 0
    while (i < batch.n) { featurize(batch.pairs(i), batch.attrs, out, i * c); i += 1 }
    new Mat(batch.n, c, out)
  }

  override def fit(source: PairBatch): Unit = {
    require(source.n > 0, s"$name: fit on an empty batch")
    val x = featureMat(source)
    val theta = new Classifier(x.cols, hidden, new Rng(seed))
    val trainer = new Trainer(theta.parameters, lr, MLPMatcher.WeightDecay)
    val y = source.labelCol
    val batchRng = new Rng(seed * 7 + 3)
    for (_ <- 0 until epochs)
      trainer.epoch(source.labels, MLPMatcher.BatchSize, batchRng) { idx =>
        val lBase = Trainer.bce(theta(AD.input(x.rowsAt(idx))), y.rowsAt(idx))
        Loss(lBase, "L_base" -> lBase)
      }
    head = Some(theta)
  }

  override def scores(batch: PairBatch): Array[Double] = {
    require(head.nonEmpty, s"$name: fit before scores")
    head.get(AD.input(featureMat(batch))).v.data.map(s => 1.0 / (1.0 + math.exp(-s)))
  }
}

object MLPMatcher {
  /** Paper §5.1 batch size, as AdaMEL's. */
  private val BatchSize = 16
  /** Decoupled weight decay, as AdaMEL's default. */
  private val WeightDecay = 1e-2
}

/** Shared string-similarity helpers for featurizers. */
object Sim {
  def jaccard(a: Seq[String], b: Seq[String]): Double = {
    if (a.isEmpty && b.isEmpty) return 0.0
    val sa = a.toSet; val sb = b.toSet
    val inter = sa.intersect(sb).size.toDouble
    inter / (sa.size + sb.size - inter)
  }

  def containment(a: Seq[String], b: Seq[String]): Double =
    if (a.isEmpty) 0.0 else a.count(b.toSet).toDouble / a.size

  def bothPresent(a: Seq[String], b: Seq[String]): Double =
    if (a.nonEmpty && b.nonEmpty) 1.0 else 0.0

  def lengthRatio(a: Seq[String], b: Seq[String]): Double = {
    val m = math.max(a.size, b.size)
    if (m == 0) 1.0 else math.min(a.size, b.size).toDouble / m
  }
}
