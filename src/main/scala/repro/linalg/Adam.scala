package repro.linalg

/** Adam optimizer (Kingma & Ba 2014), as used by the paper (§5.1).
  *
  * Holds first/second moment buffers per parameter. Parameters are the
  * [[AD.V]] leaves whose `grad` is populated by [[AD.backward]]; `step`
  * applies the update in place on their value matrices. The moments live
  * across steps, so an `Adam` is created outside every [[Buffers]] scope.
  *
  * @param weightDecay decoupled (AdamW-style) L2 shrinkage applied at each
  *                    step — the substrate-scale regularizer that stands in
  *                    for the implicit regularization of the paper's
  *                    mini-batch SGD on much larger data.
  */
final class Adam(params: Seq[AD.V], lr: Double = 1e-2,
                 beta1: Double = 0.9, beta2: Double = 0.999, eps: Double = 1e-8,
                 weightDecay: Double = 0.0) {
  require(!Buffers.inScope, "Adam's moments are created outside every buffer scope")
  private[linalg] val m = params.map(p => Mat.zeros(p.v.rows, p.v.cols)).toArray
  private[linalg] val v = params.map(p => Mat.zeros(p.v.rows, p.v.cols)).toArray
  private var t = 0

  def step(): Unit = {
    t += 1
    val bc1 = 1.0 - math.pow(beta1, t)
    val bc2 = 1.0 - math.pow(beta2, t)
    var k = 0
    while (k < params.length) {
      val p = params(k); val g = p.grad
      val mk = m(k); val vk = v(k)
      var i = 0
      while (i < p.v.size) {
        val gi = g.data(i)
        mk.data(i) = beta1 * mk.data(i) + (1 - beta1) * gi
        vk.data(i) = beta2 * vk.data(i) + (1 - beta2) * gi * gi
        val mHat = mk.data(i) / bc1
        val vHat = vk.data(i) / bc2
        p.v.data(i) -= lr * (mHat / (math.sqrt(vHat) + eps) + weightDecay * p.v.data(i))
        i += 1
      }
      k += 1
    }
  }

  /** Zero-fills every parameter's gradient buffer, so a parameter the next
    * backward does not reach steps on a zero gradient. */
  def zeroGrad(): Unit = params.foreach(_.zeroGrad())
}
