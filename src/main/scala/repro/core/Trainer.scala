package repro.core

import repro.er.Batching
import repro.linalg.{AD, Adam, Buffers, Mat, Rng}

/** The classifier head Θ: `relu(x·W1 + b1)·W2 + b2`, or the linear
  * `x·W2 + b2` when `hidden = 0` (logistic regression). AdaMEL applies it to
  * the gated features (Eq. 7); every baseline applies it to its own
  * featurization. Weights are Glorot-initialised from `rng`, W1 before W2.
  */
final class Classifier(inDim: Int, hidden: Int, rng: Rng) {
  private val layer1 = if (hidden == 0) None
    else Some((AD.leaf(Mat.glorot(inDim, hidden, rng)), AD.leaf(Mat.zeros(1, hidden))))
  private val w2 = AD.leaf(Mat.glorot(if (hidden == 0) inDim else hidden, 1, rng))
  private val b2 = AD.leaf(Mat.zeros(1, 1))

  def parameters: Seq[AD.V] = layer1.toSeq.flatMap { case (w1, b1) => Seq(w1, b1) } ++ Seq(w2, b2)

  /** N x 1 logits for N x inDim inputs. */
  def apply(x: AD.V): AD.V = {
    val h = layer1.fold(x) { case (w1, b1) => AD.relu(AD.addRowVec(AD.matmul(x, w1), b1)) }
    AD.addRowVec(AD.matmul(h, w2), b2)
  }
}

/** A step's objective and the named terms it is built from (`L_base`,
  * `KL`, `L_support`), by which a non-finite objective is reported. */
final case class Loss(total: AD.V, terms: (String, AD.V)*)

/** The one training loop of AdaMEL and the baselines: decoupled-weight-decay
  * Adam over a fixed parameter set, stepped on class-stratified mini-batches
  * (see [[Batching]]). Each step builds its loss, runs `backward` and steps
  * Adam in one [[Buffers]] scope, so the next step reuses its arrays; a
  * `Trainer` is therefore created outside every scope.
  */
final class Trainer(params: Seq[AD.V], lr: Double, weightDecay: Double) {
  private val opt = new Adam(params, lr, weightDecay = weightDecay)
  private var epochNo = 0 // epochs begun, from 1
  private var stepNo = 0  // steps taken in the current epoch, from 1

  /** One optimizer step on the loss `buildLoss` builds, in the step's
    * buffer scope; returns its value. Throws an `ArithmeticException` naming the epoch,
    * the step and the non-finite terms if the objective is not finite,
    * before any parameter moves. */
  def step(buildLoss: => Loss): Double = Buffers.scoped {
    val loss = buildLoss
    stepNo += 1
    val value = loss.total.scalar
    if (!value.isFinite) {
      val bad = loss.terms.collect { case (name, t) if !t.scalar.isFinite => name }
      val values = loss.terms.map { case (name, t) => s"$name = ${t.scalar}" }.mkString(", ")
      throw new ArithmeticException(s"non-finite loss $value at epoch $epochNo, step $stepNo: " +
        (if (bad.nonEmpty) s"${bad.mkString(", ")} not finite" else "its finite terms overflow") + s" ($values)")
    }
    opt.zeroGrad()
    AD.backward(loss.total)
    opt.step()
    value
  }

  /** One epoch: a step on `loss(idx)` for each balanced batch `idx` of
    * `labels`, drawn from `rng`. Returns the summed loss and the step count. */
  def epoch(labels: Array[Double], batchSize: Int, rng: Rng)(loss: Array[Int] => Loss): (Double, Int) = {
    epochNo += 1
    stepNo = 0
    val batches = Batching.balancedBatches(labels, batchSize, rng)
    (batches.map(idx => step(loss(idx))).sum, batches.size)
  }
}

object Trainer {
  /** Eq. (8): unweighted mean binary cross-entropy of logits against labels. */
  def bce(logits: AD.V, y: Mat): AD.V = AD.bceWithLogits(logits, y, Mat.fill(y.rows, 1, 1.0))
}
