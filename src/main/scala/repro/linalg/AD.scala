package repro.linalg

/** Reverse-mode automatic differentiation over [[Mat]].
  *
  * Micrograd-style tape: every op returns a [[AD.V]] node holding its value,
  * its parents and a closure that scatters the node's cotangent into the
  * parents' gradients. Call [[AD.backward]] on a scalar (1x1) node to
  * populate `grad` on every upstream node that needs one.
  *
  * Data enters as constants ([[AD.input]]): a constant, and every node
  * computed from constants only, gets no gradient, so `backward` neither
  * visits it nor computes, say, the N x D input gradient of a `matmul`.
  * A parameter's gradient buffer is allocated with it, outside every
  * [[Buffers]] scope, and zero-filled by each `backward`; any other node's
  * is allocated in `backward`, never in a forward pass, and inside a scope
  * is recycled with the node's value when the scope closes, as are the
  * transposes and products a `matmul`'s backward forms. Every gradient is
  * bit-identical to accumulating each op's contribution, computed on its
  * own, into a zeroed buffer.
  *
  * The op set is what the AdaMEL losses and the baseline MLPs need, plus
  * `mul` and `sumAll`, the weighting and the reducer of the
  * finite-difference checks in `ADSpec` that gate every op's gradient.
  */
object AD {

  final class V private[AD] (val v: Mat, val parents: Seq[V], bw: V => Unit, val needsGrad: Boolean) {
    private var g: Mat = if (needsGrad && parents.isEmpty) Mat.zeros(v.rows, v.cols) else null
    private[AD] var mark = 0L // the stamp of the last backward that ordered this node

    /** The gradient the last [[backward]] through this node accumulated
      * (zeros before any). A constant has none. */
    def grad: Mat = {
      require(needsGrad, "a constant has no gradient")
      if (g == null) g = Mat.zeros(v.rows, v.cols)
      g
    }

    def scalar: Double = { require(v.rows == 1 && v.cols == 1, "not a scalar node"); v.data(0) }

    /** Adds `m`, a product or column sum the caller formed for this node
      * alone, to the gradient; a node with no gradient buffer yet adopts
      * `m` as it. Every entry of a `%*%` or `colSum` is a sum that starts
      * from +0.0, so it is never −0.0, and adopting it gives the bits that
      * adding it to zeros would. */
    private[AD] def accumulate(m: Mat): Unit = if (g == null) g = m else g.addInPlace(m)

    private[linalg] def zeroGrad(): Unit = if (g != null) java.util.Arrays.fill(g.data, 0.0)

    private[AD] def backprop(): Unit = bw(this)
  }

  private def op(value: Mat, parents: Seq[V])(bw: V => Unit): V =
    new V(value, parents, bw, parents.exists(_.needsGrad))

  /** A parameter: a leaf whose gradient [[backward]] accumulates. Created
    * outside every [[Buffers]] scope, so its buffers are never recycled. */
  def leaf(m: Mat): V = {
    require(!Buffers.inScope, "a parameter is created outside every buffer scope")
    new V(m, Nil, _ => (), needsGrad = true)
  }

  /** A constant (data, labels): a leaf with no gradient. */
  def input(m: Mat): V = new V(m, Nil, _ => (), needsGrad = false)

  def matmul(a: V, b: V): V = op(a.v %*% b.v, Seq(a, b)) { out =>
    if (a.needsGrad) a.accumulate(out.grad %*% b.v.t)
    if (b.needsGrad) b.accumulate(a.v.t %*% out.grad)
  }

  def add(a: V, b: V): V = op(a.v + b.v, Seq(a, b)) { out =>
    if (a.needsGrad) a.grad.addInPlace(out.grad)
    if (b.needsGrad) b.grad.addInPlace(out.grad)
  }

  def mul(a: V, b: V): V = op(a.v * b.v, Seq(a, b)) { out =>
    if (a.needsGrad) addHadamard(a.grad, out.grad, b.v)
    if (b.needsGrad) addHadamard(b.grad, out.grad, a.v)
  }

  /** acc += x ⊙ y. */
  private def addHadamard(acc: Mat, x: Mat, y: Mat): Unit = {
    var i = 0
    while (i < acc.size) { acc.data(i) += x.data(i) * y.data(i); i += 1 }
  }

  def scale(a: V, k: Double): V = op(a.v * k, Seq(a)) { out =>
    val ga = a.grad; val go = out.grad
    var i = 0
    while (i < ga.size) { ga.data(i) += go.data(i) * k; i += 1 }
  }

  /** Broadcast-add a 1 x C bias row to every row of a. */
  def addRowVec(a: V, bias: V): V = op(a.v.addRowVec(bias.v), Seq(a, bias)) { out =>
    if (a.needsGrad) a.grad.addInPlace(out.grad)
    if (bias.needsGrad) bias.accumulate(out.grad.colSum)
  }

  /** Broadcast-multiply every row of a (N x C) by column vector c (N x 1). */
  def mulColVec(a: V, c: V): V = op(a.v.mulColVec(c.v), Seq(a, c)) { out =>
    val go = out.grad; val cols = go.cols
    if (a.needsGrad) {
      val ga = a.grad
      var i = 0
      while (i < go.size) { ga.data(i) += go.data(i) * c.v.data(i / cols); i += 1 }
    }
    if (c.needsGrad) {
      val gc = c.grad
      var r = 0
      while (r < go.rows) {
        var s = 0.0; var j = 0
        while (j < cols) { s += go(r, j) * a.v(r, j); j += 1 }
        gc.data(r) += s
        r += 1
      }
    }
  }

  /** max(x, 0), NaN for NaN (a NaN input must reach the loss, not vanish). */
  def relu(a: V): V = op(a.v.map(x => if (x <= 0) 0.0 else x), Seq(a)) { out =>
    val ga = a.grad; val go = out.grad
    var i = 0
    while (i < ga.size) { ga.data(i) += (if (a.v.data(i) > 0) go.data(i) else 0.0); i += 1 }
  }

  def tanh(a: V): V = {
    val y = a.v.map(math.tanh)
    op(y, Seq(a)) { out =>
      val ga = a.grad; val go = out.grad
      var i = 0
      while (i < ga.size) { val t = y.data(i); ga.data(i) += go.data(i) * (1.0 - t * t); i += 1 }
    }
  }

  /** Row-wise softmax of an N x F matrix. */
  def softmaxRows(a: V): V = {
    val y = Mat.uninit(a.v.rows, a.v.cols)
    var r = 0
    while (r < a.v.rows) {
      var mx = Double.NegativeInfinity
      var c = 0
      while (c < a.v.cols) { mx = math.max(mx, a.v(r, c)); c += 1 }
      var s = 0.0
      c = 0
      while (c < a.v.cols) { val e = math.exp(a.v(r, c) - mx); y(r, c) = e; s += e; c += 1 }
      c = 0
      while (c < a.v.cols) { y(r, c) /= s; c += 1 }
      r += 1
    }
    op(y, Seq(a)) { out =>
      // dE = (dG - rowSum(dG * G)) * G
      val ga = a.grad; val go = out.grad
      var i = 0
      while (i < y.rows) {
        var dotted = 0.0
        var j = 0
        while (j < y.cols) { dotted += go(i, j) * y(i, j); j += 1 }
        j = 0
        while (j < y.cols) { ga(i, j) += (go(i, j) - dotted) * y(i, j); j += 1 }
        i += 1
      }
    }
  }

  def sumAll(a: V): V = op(new Mat(1, 1, Array(a.v.sum)), Seq(a)) { out =>
    val ga = a.grad; val go = out.grad.data(0)
    var i = 0
    while (i < ga.size) { ga.data(i) += go; i += 1 }
  }

  /** Column j of an N x C matrix as an N x 1 node. */
  def colSlice(a: V, j: Int): V = {
    require(j >= 0 && j < a.v.cols, s"colSlice $j out of ${a.v.cols}")
    val y = Mat.uninit(a.v.rows, 1)
    var r = 0
    while (r < a.v.rows) { y(r, 0) = a.v(r, j); r += 1 }
    op(y, Seq(a)) { out =>
      val ga = a.grad; val go = out.grad
      var i = 0
      while (i < a.v.rows) { ga(i, j) += go(i, 0); i += 1 }
    }
  }

  /** Horizontal concatenation of nodes with equal row counts. */
  def hcat(parts: Seq[V]): V = op(Mat.hcat(parts.map(_.v)), parts) { out =>
    val go = out.grad
    var off = 0
    parts.foreach { p =>
      if (p.needsGrad) {
        val gp = p.grad
        var r = 0
        while (r < gp.rows) {
          var c = 0
          while (c < gp.cols) { gp(r, c) += go(r, off + c); c += 1 }
          r += 1
        }
      }
      off += p.v.cols
    }
  }

  /** Numerically stable binary cross-entropy with logits.
    *
    * scores: N x 1 logits; y, w: N x 1 constants (labels in {0,1} and
    * per-sample weights). Returns the scalar `sum_i w_i * (softplus(s_i) - y_i s_i) / sum_i w_i`
    * — i.e. a weighted mean, matching Eq. (8)/(12) of the paper up to the
    * weighting scheme supplied by the caller.
    */
  def bceWithLogits(scores: V, y: Mat, w: Mat): V = {
    require(scores.v.cols == 1 && y.cols == 1 && w.cols == 1, "bce expects column vectors")
    require(scores.v.rows == y.rows && y.rows == w.rows, "bce shape mismatch")
    val n = y.rows
    val wSum = math.max(w.sum, 1e-12)
    var loss = 0.0
    var i = 0
    while (i < n) {
      val s = scores.v(i, 0)
      // softplus(s) - y*s, computed stably for both signs of s
      val sp = if (s > 0) s + math.log1p(math.exp(-s)) else math.log1p(math.exp(s))
      loss += w(i, 0) * (sp - y(i, 0) * s)
      i += 1
    }
    op(new Mat(1, 1, Array(loss / wSum)), Seq(scores)) { out =>
      val g = out.grad.data(0)
      val gs = scores.grad
      var j = 0
      while (j < n) {
        val s = scores.v(j, 0)
        val sig = 1.0 / (1.0 + math.exp(-s))
        gs(j, 0) += g * w(j, 0) * (sig - y(j, 0)) / wSum
        j += 1
      }
    }
  }

  /** KL(target || rows of g): `sum_i sum_j t_j * log(t_j / g_ij) / N`.
    *
    * `target` is a 1 x F constant distribution (the attention vector averaged
    * over the unlabeled target domain, Eq. (10), detached as in Algorithm 1
    * line 5); g is N x F of row-stochastic attention vectors. Normalized by
    * N so the magnitude is batch-size independent. Target entries below
    * 1e-12 add nothing; a NaN entry makes the loss NaN.
    */
  def klToConst(g: V, target: Mat): V = {
    require(target.rows == 1 && target.cols == g.v.cols, "klToConst target shape")
    val n = g.v.rows
    val eps = 1e-12
    var loss = 0.0
    var i = 0
    while (i < n) {
      var j = 0
      while (j < g.v.cols) {
        val t = target(0, j)
        if (t > eps || t.isNaN) loss += t * (math.log(t + eps) - math.log(g.v(i, j) + eps))
        j += 1
      }
      i += 1
    }
    op(new Mat(1, 1, Array(loss / n)), Seq(g)) { out =>
      val go = out.grad.data(0)
      val gg = g.grad
      var r = 0
      while (r < n) {
        var c = 0
        while (c < g.v.cols) {
          val t = target(0, c)
          if (t > eps || t.isNaN) gg(r, c) += -go * t / ((g.v(r, c) + eps) * n)
          c += 1
        }
        r += 1
      }
    }
  }

  /** Topologically-ordered reverse sweep from scalar `root` over the nodes
    * that need a gradient: their depth-first post-order from `root`,
    * parents in order, run backwards. */
  def backward(root: V): Unit = {
    require(root.v.rows == 1 && root.v.cols == 1, "backward root must be scalar")
    if (root.needsGrad) {
      val order = orders.get
      try {
        order.sort(root, stamps.incrementAndGet())
        var i = 0
        while (i < order.size) { order.nodes(i).zeroGrad(); i += 1 }
        root.grad.data(0) = 1.0
        i = order.size - 1
        while (i >= 0) { order.nodes(i).backprop(); i -= 1 }
      } finally order.clear()
    }
  }

  /** A fresh stamp per [[backward]] call, which marks the nodes it has
    * ordered; unique across threads. */
  private val stamps = new java.util.concurrent.atomic.AtomicLong

  /** Each thread's [[backward]] order, reused from call to call. */
  private val orders = ThreadLocal.withInitial[Order](() => new Order)

  private final class Order {
    var nodes = new Array[V](64)
    var size = 0
    private var stamp = 0L

    /** Fills `nodes` with the post-order of `root`'s nodes that need a
      * gradient, marking each with `stamp`. */
    def sort(root: V, stamp: Long): Unit = { this.stamp = stamp; visit(root) }

    private val visit: V => Unit = n =>
      if (n.needsGrad && n.mark != stamp) {
        n.mark = stamp
        n.parents.foreach(visit)
        if (size == nodes.length) nodes = java.util.Arrays.copyOf(nodes, 2 * size)
        nodes(size) = n
        size += 1
      }

    /** Drops the references to the last tape. */
    def clear(): Unit = { java.util.Arrays.fill(nodes.asInstanceOf[Array[AnyRef]], 0, size, null); size = 0 }
  }
}
