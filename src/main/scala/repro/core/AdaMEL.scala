package repro.core

import repro.er.{Batching, PairBatch}
import repro.linalg.{AD, Buffers, Mat, Rng}

/** Which loss the model trains with (paper §4.4). */
sealed trait Variant { def name: String }
object Variant {
  /** Eq. (8): cross-entropy on labeled source pairs only. */
  case object Base extends Variant { val name = "AdaMEL-base" }
  /** Eq. (9)-(10): + unsupervised domain adaptation (KL to the target-domain
    * average attention vector). */
  case object Zero extends Variant { val name = "AdaMEL-zero" }
  /** Eq. (11)-(13): + centroid-distance-weighted CE over the labeled support set. */
  case object Few extends Variant { val name = "AdaMEL-few" }
  /** Eq. (14): both adaptation terms. */
  case object Hyb extends Variant { val name = "AdaMEL-hyb" }
  val all: Seq[Variant] = Seq(Base, Zero, Few, Hyb)
}

/** Hyperparameters. Defaults are the paper's §5.1 values scaled to the
  * CPU-driver substrate (see DESIGN.md §5); λ and φ are kept at the paper's
  * 0.98 / 1.0.
  *
  * @param featureIdx optional subset of feature indices to train on —
  *                   used by the Table 5 (attribute subsets) and Table 6
  *                   (shared/unique ablation) experiments.
  */
final case class AdaMELConfig(
    variant: Variant = Variant.Hyb,
    h: Int = 16,
    hPrime: Int = 32,
    hidden: Int = 32,
    epochs: Int = 60,
    batchSize: Int = 16, // paper §5.1
    lr: Double = 1e-2,
    lambda: Double = 0.98,
    phi: Double = 1.0,
    weightDecay: Double = 1e-2,
    seed: Long = 7L,
    featureIdx: Option[Seq[Int]] = None,
)

/** AdaMEL (paper §4): attribute-level attention over contrastive relational
  * features, trained with one of four domain-adaptation losses.
  *
  * Forward pass, batched over N pairs (Eq. 4-7):
  * {{{
  *   X_j = relu(H_j V_j + b_j)            // N x H   per-feature affine
  *   E_j = tanh(X_j W) a                  // N x 1   energy (shared W, a)
  *   G   = softmax_rows([E_1 .. E_F])     // N x F   attention = knowledge K
  *   Z_j = relu(g_j ⊙ X_j)                // N x H   gated features
  *   s   = Θ([Z_1 .. Z_F])                // N x 1   logits; ŷ = sigmoid(s)
  * }}}
  *
  * Training is class-stratified batch-16 Adam ([[Trainer]]; the local
  * deviations from Algorithms 1-3 are listed in DESIGN.md §5). The
  * target-domain average attention (Eq. 10) and the support-set weights
  * (Eq. 12) are recomputed each epoch from the current parameters, exactly
  * as Algorithms 1-3 do per epoch, in the epoch's [[Buffers]] scope, which
  * the batch steps' scopes nest in.
  */
final class AdaMEL(val config: AdaMELConfig, val dim: Int, allFeatureNames: Vector[String]) {
  import config._

  private val fIdx: Array[Int] =
    featureIdx.map(_.toArray).getOrElse(allFeatureNames.indices.toArray)
  val numFeatures: Int = fIdx.length
  val featureNames: Vector[String] = fIdx.map(allFeatureNames).toVector

  private val rng = new Rng(seed)
  // Parameters (paper §4.5): per-feature V_j (D x H), b_j (1 x H); shared
  // W (H x H'), a (H' x 1); classifier Θ over the F*H gated features.
  private val vs = Array.fill(numFeatures)(AD.leaf(Mat.glorot(dim, h, rng)))
  private val bs = Array.fill(numFeatures)(AD.leaf(Mat.zeros(1, h)))
  private val w = AD.leaf(Mat.glorot(h, hPrime, rng))
  private val a = AD.leaf(Mat.glorot(hPrime, 1, rng))
  private val theta = new Classifier(numFeatures * h, hidden, rng)

  def parameters: Seq[AD.V] = (vs ++ bs ++ Seq(w, a) ++ theta.parameters).toSeq
  def parameterCount: Long = parameters.map(_.v.size.toLong).sum

  private def selFeats(batch: PairBatch): Array[Mat] = fIdx.map(batch.feats)

  /** Differentiable forward pass: (attention G, logits s). */
  private[core] def forward(feats: Array[Mat]): (AD.V, AD.V) = {
    val xs = Array.tabulate(numFeatures) { j =>
      AD.relu(AD.addRowVec(AD.matmul(AD.input(feats(j)), vs(j)), bs(j)))
    }
    val es = xs.map(x => AD.matmul(AD.tanh(AD.matmul(x, w)), a))
    val g = AD.softmaxRows(AD.hcat(es.toIndexedSeq))
    val zs = Array.tabulate(numFeatures)(j => AD.relu(AD.mulColVec(xs(j), AD.colSlice(g, j))))
    (g, theta(AD.hcat(zs.toIndexedSeq)))
  }

  /** Detached (no-tape-reuse) forward for inference / statistics: returns
    * (attention N x F, match probability N x 1), in one pass over the whole
    * batch. [[scores]] and [[attention]] give its values in chunks; the
    * tests hold them to it bit for bit. */
  def forwardPlain(batch: PairBatch): (Mat, Mat) = {
    val (g, s) = forward(selFeats(batch))
    (g.v, s.v.map(x => 1.0 / (1.0 + math.exp(-x))))
  }

  /** Match probabilities, bit-identical to [[forwardPlain]]'s. */
  def scores(batch: PairBatch): Array[Double] = {
    val out = new Array[Double](batch.n)
    forwardChunks(batch) { (start, _, s) =>
      var i = 0
      while (i < s.rows) { out(start + i) = 1.0 / (1.0 + math.exp(-s.data(i))); i += 1 }
    }
    out
  }

  /** Attention averaged over a batch — the learned feature importance
    * reported in Table 4. Sums to 1. Bit-identical to the `colMean` of
    * [[forwardPlain]]'s attention: the rows are summed in row order, then
    * scaled by 1/n. */
  def attention(batch: PairBatch): Array[Double] = {
    val sum = new Array[Double](numFeatures)
    forwardChunks(batch) { (_, g, _) =>
      var k = 0
      while (k < g.size) { sum(k % numFeatures) += g.data(k); k += 1 }
    }
    val inv = 1.0 / batch.n
    var j = 0
    while (j < numFeatures) { sum(j) *= inv; j += 1 }
    sum
  }

  /** Runs [[forward]] over the batch in chunks of [[AdaMEL.ScoreChunk]]
    * rows, each in its own [[Buffers]] scope, so every chunk after the first
    * full one reuses its arrays; `use(start, attention, logits)` reads a
    * chunk's values before its scope closes. `forward` is row-local, so
    * each row's values are those of one pass over the whole batch. */
  private def forwardChunks(batch: PairBatch)(use: (Int, Mat, Mat) => Unit): Unit = {
    val feats = selFeats(batch)
    var start = 0
    while (start < batch.n) {
      val end = math.min(start + AdaMEL.ScoreChunk, batch.n)
      val rows = Array.range(start, end)
      Buffers.scoped {
        val (g, s) = forward(feats.map(_.rowsAt(rows)))
        use(start, g.v, s.v)
      }
      start = end
    }
  }

  def attentionReport(batch: PairBatch, topK: Int = 5): Seq[(String, Double)] =
    featureNames.zip(attention(batch)).sortBy(-_._2).take(topK)

  /** Euclidean distance of row `i` of `m` to `c`, summed in column order. */
  private def rowDistance(m: Mat, i: Int, c: Array[Double]): Double = {
    var s = 0.0; var j = 0
    while (j < c.length) { val d = m(i, j) - c(j); s += d * d; j += 1 }
    math.sqrt(s)
  }

  /** Train per the configured variant.
    *
    * @param source labeled source-domain pairs (D_S)
    * @param target unlabeled target-domain pairs (D_T); required by Zero/Hyb, ignored by Base/Few
    * @param support labeled support set (S_U); required by Few/Hyb, ignored by Base/Zero
    * @return per-epoch loss: the summed step losses over the number of batches
    */
  def fit(source: PairBatch, target: Option[PairBatch] = None,
          support: Option[PairBatch] = None): Seq[Double] = {
    val usesTarget = variant == Variant.Zero || variant == Variant.Hyb
    val usesSupport = variant == Variant.Few || variant == Variant.Hyb
    require(!usesTarget || target.nonEmpty, s"${variant.name} requires the unlabeled target domain")
    require(!usesSupport || support.nonEmpty, s"${variant.name} requires the labeled support set")
    require(source.n > 0, s"${variant.name}: fit on an empty source batch")
    require(!usesTarget || target.get.n > 0, s"${variant.name}: fit on an empty target batch")
    require(!usesSupport || support.get.n > 0, s"${variant.name}: fit on an empty support batch")
    if (usesSupport) {
      val pos = source.labels.count(_ == 1.0)
      require(pos > 0 && pos < source.n, s"${variant.name}: the source needs both classes for the " +
        s"per-class Eq. (11) centroids, got $pos positive of ${source.n}")
    }

    val srcFeats = selFeats(source)
    val tgtFeats = target.filter(_ => usesTarget).map(selFeats)
    val sup = support.filter(_ => usesSupport)
    val ySrc = source.labelCol
    val trainer = new Trainer(parameters, lr, weightDecay)
    val epochRng = new Rng(seed * 31 + 17) // batch shuffling stream

    /** Source rows `idx`: (attention, Eq. 8 loss). */
    def baseLoss(idx: Array[Int]): (AD.V, AD.V) = {
      val (g, s) = forward(srcFeats.map(_.rowsAt(idx)))
      (g, Trainer.bce(s, ySrc.rowsAt(idx)))
    }

    Vector.fill(epochs)(Buffers.scoped {
      val targetAvg = tgtFeats.map(targetAverage(_, epochRng))
      val supWeights = sup.map(supportWeights(source, srcFeats, _, epochRng))

      // Mini-batch steps over D_S (line 7 of Algorithms 1-3): the loss is
      // L_base, plus the λ-weighted KL to the epoch-frozen target average
      // for Zero/Hyb (Eq. 9).
      val (batchLoss, steps) = trainer.epoch(source.labels, batchSize, epochRng) { idx =>
        val (gSrc, lBase) = baseLoss(idx)
        targetAvg.fold(Loss(lBase, "L_base" -> lBase)) { t =>
          val kl = AD.klToConst(gSrc, t)
          Loss(AD.add(AD.scale(lBase, 1.0 - lambda), AD.scale(kl, lambda)), "L_base" -> lBase, "KL" -> kl)
        }
      }

      // Support step ONCE per epoch, after the batch loop — exactly where
      // Algorithm 2/3 place lines 9-12, and with L_ssl = L_base + φ·L_support
      // (line 10): the base term anchors the step so the support gradient
      // cannot undo source learning. (Folding φ·L_support into every
      // mini-batch instead trains the 100 support pairs two orders of
      // magnitude harder than any source pair and anti-generalizes.)
      val supportLoss = sup.zip(supWeights).map { case (s, wts) =>
        // Anchor batch sized to the support set, so the two CE terms in
        // L_ssl carry comparable evidence (a 16-row anchor against 100
        // support rows lets the support gradient dominate the step).
        val anchor = Batching.balancedBatches(source.labels, math.max(batchSize, s.n), epochRng).head
        trainer.step {
          val (_, lAnchor) = baseLoss(anchor)
          val (_, sSup) = forward(selFeats(s))
          val lSupport = AD.bceWithLogits(sSup, s.labelCol, wts)
          Loss(AD.add(lAnchor, AD.scale(lSupport, phi)), "L_base" -> lAnchor, "L_support" -> lSupport)
        }
      }
      (batchLoss + supportLoss.getOrElse(0.0)) / math.max(steps, 1)
    })
  }

  /** Eq. (10): attention averaged over D_T with the current parameters,
    * detached (Algorithm 1 line 5, before the batch loop). The paper notes
    * the target average may be computed over *batches* of the unlabeled data
    * ("the unlabeled data could also come in batches", §4.4.1): at most
    * [[AdaMEL.EstimateRows]] sampled rows estimate the F-dim mean tightly and
    * cut the per-epoch cost several-fold. */
  private def targetAverage(tf: Array[Mat], rng: Rng): Mat = {
    val n = tf.head.rows
    val rows = if (n <= AdaMEL.EstimateRows) tf
      else { val idx = rng.sampleIndices(n, AdaMEL.EstimateRows); tf.map(_.rowsAt(idx)) }
    forward(rows)._1.v.colMean // value only; no backward through this tape
  }

  /** Eq. (11)-(12): the support weights d/d̄ — each support pair's distance
    * to the source attention centroid of its class over that class's mean
    * distance. The centroids are estimated on a stratified sample of at most
    * [[AdaMEL.EstimateRows]] source rows, for the same reason as
    * [[targetAverage]]. */
  private def supportWeights(source: PairBatch, srcFeats: Array[Mat], sup: PairBatch, rng: Rng): Mat = {
    val allPos = source.pairs.indices.filter(i => source.labels(i) == 1.0)
    val allNeg = source.pairs.indices.filter(i => source.labels(i) == 0.0)
    def sample(idx: Seq[Int]): Seq[Int] =
      if (idx.size <= AdaMEL.EstimateRows / 2) idx
      else rng.shuffle(idx).take(AdaMEL.EstimateRows / 2)
    val srcIdx = (sample(allPos) ++ sample(allNeg)).toArray
    val gS = forward(srcFeats.map(_.rowsAt(srcIdx)))._1.v
    val pos = srcIdx.indices.filter(i => source.labels(srcIdx(i)) == 1.0)
    val neg = srcIdx.indices.filter(i => source.labels(srcIdx(i)) == 0.0)
    def centroid(idx: Seq[Int]): Array[Double] = {
      val c = new Array[Double](numFeatures)
      idx.foreach { i => var j = 0; while (j < numFeatures) { c(j) += gS(i, j); j += 1 } }
      if (idx.nonEmpty) { var j = 0; while (j < numFeatures) { c(j) /= idx.size; j += 1 } }
      c
    }
    val cPos = centroid(pos); val cNeg = centroid(neg)
    def meanDist(idx: Seq[Int], c: Array[Double]): Double =
      if (idx.isEmpty) 1.0
      else {
        var s = 0.0
        idx.foreach(i => s += rowDistance(gS, i, c))
        math.max(s / idx.size, 1e-6)
      }
    val dPos = meanDist(pos, cPos); val dNeg = meanDist(neg, cNeg)
    val gSup = forward(selFeats(sup))._1.v
    // Eq. (12) weights d/d̄, clipped: when the source attention collapses
    // toward a point, d̄ -> 0 and unclipped ratios explode, making the
    // support loss fit a handful of outliers (observed on Monitor).
    Mat.colVec(Array.tabulate(sup.n) { i =>
      val r = if (sup.labels(i) == 1.0) rowDistance(gSup, i, cPos) / dPos else rowDistance(gSup, i, cNeg) / dNeg
      math.min(math.max(r, 0.1), 10.0)
    })
  }
}

object AdaMEL {
  /** Rows that estimate the per-epoch Eq. (10) and Eq. (11) statistics. */
  private val EstimateRows = 400

  /** Rows per [[AdaMEL.forwardChunks]] pass when scoring. */
  private val ScoreChunk = 256

  /** Convenience: build + fit in one call. */
  def fitted(config: AdaMELConfig, source: PairBatch,
             target: Option[PairBatch] = None, support: Option[PairBatch] = None): AdaMEL = {
    val m = new AdaMEL(config, source.dim, source.featureNames)
    m.fit(source, target, support)
    m
  }
}
