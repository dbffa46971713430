package repro.linalg

import scala.collection.mutable.ArrayBuffer

/** Reverse-mode automatic differentiation over [[Mat]].
  *
  * Micrograd-style tape: every op returns a [[AD.V]] node holding its value,
  * its parents and a closure that scatters the node's cotangent into the
  * parents' gradient buffers. Call [[AD.backward]] on a scalar (1x1) node to
  * populate `grad` on every upstream node.
  *
  * The op set is what the AdaMEL losses and the baseline MLPs need, plus
  * `mul` and `sumAll`, the weighting and the reducer of the
  * finite-difference checks in `ADSpec` that gate every op's gradient.
  */
object AD {

  final class V(val v: Mat, val parents: Seq[V], val bw: V => Unit) {
    var grad: Mat = Mat.zeros(v.rows, v.cols)
    def scalar: Double = { require(v.rows == 1 && v.cols == 1, "not a scalar node"); v.data(0) }
  }

  /** Leaf node (parameter or input). Gradients accumulate here. */
  def leaf(m: Mat): V = new V(m, Nil, _ => ())

  def matmul(a: V, b: V): V = new V(a.v %*% b.v, Seq(a, b), { out =>
    a.grad.addInPlace(out.grad %*% b.v.t)
    b.grad.addInPlace(a.v.t %*% out.grad)
  })

  def add(a: V, b: V): V = new V(a.v + b.v, Seq(a, b), { out =>
    a.grad.addInPlace(out.grad); b.grad.addInPlace(out.grad)
  })

  def mul(a: V, b: V): V = new V(a.v * b.v, Seq(a, b), { out =>
    a.grad.addInPlace(out.grad * b.v); b.grad.addInPlace(out.grad * a.v)
  })

  def scale(a: V, k: Double): V = new V(a.v * k, Seq(a), out => a.grad.addInPlace(out.grad * k))

  /** Broadcast-add a 1 x C bias row to every row of a. */
  def addRowVec(a: V, bias: V): V = new V(a.v.addRowVec(bias.v), Seq(a, bias), { out =>
    a.grad.addInPlace(out.grad)
    bias.grad.addInPlace(out.grad.colSum)
  })

  /** Broadcast-multiply every row of a (N x C) by column vector c (N x 1). */
  def mulColVec(a: V, c: V): V = new V(a.v.mulColVec(c.v), Seq(a, c), { out =>
    a.grad.addInPlace(out.grad.mulColVec(c.v))
    c.grad.addInPlace((out.grad * a.v).rowSum)
  })

  def relu(a: V): V = new V(a.v.map(x => if (x > 0) x else 0.0), Seq(a), { out =>
    a.grad.addInPlace(out.grad.zip(a.v)((g, x) => if (x > 0) g else 0.0))
  })

  def tanh(a: V): V = {
    val y = a.v.map(math.tanh)
    new V(y, Seq(a), out => a.grad.addInPlace(out.grad.zip(y)((g, t) => g * (1.0 - t * t))))
  }

  /** Row-wise softmax of an N x F matrix. */
  def softmaxRows(a: V): V = {
    val y = Mat.zeros(a.v.rows, a.v.cols)
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
    new V(y, Seq(a), { out =>
      // dE = (dG - rowSum(dG * G)) * G
      val dotted = (out.grad * y).rowSum // N x 1
      val g = Mat.zeros(y.rows, y.cols)
      var i = 0
      while (i < y.rows) {
        var j = 0
        while (j < y.cols) { g(i, j) = (out.grad(i, j) - dotted(i, 0)) * y(i, j); j += 1 }
        i += 1
      }
      a.grad.addInPlace(g)
    })
  }

  def sumAll(a: V): V = new V(new Mat(1, 1, Array(a.v.sum)), Seq(a), { out =>
    a.grad.addInPlace(Mat.fill(a.v.rows, a.v.cols, out.grad.data(0)))
  })

  /** Column j of an N x C matrix as an N x 1 node. */
  def colSlice(a: V, j: Int): V = {
    require(j >= 0 && j < a.v.cols, s"colSlice $j out of ${a.v.cols}")
    val y = Mat.zeros(a.v.rows, 1)
    var r = 0
    while (r < a.v.rows) { y(r, 0) = a.v(r, j); r += 1 }
    new V(y, Seq(a), { out =>
      val g = Mat.zeros(a.v.rows, a.v.cols)
      var i = 0
      while (i < a.v.rows) { g(i, j) = out.grad(i, 0); i += 1 }
      a.grad.addInPlace(g)
    })
  }

  def hcat(parts: Seq[V]): V = {
    val value = parts.map(_.v).reduce(_ hcat _)
    new V(value, parts, { out =>
      var off = 0
      parts.foreach { p =>
        val g = Mat.zeros(p.v.rows, p.v.cols)
        var r = 0
        while (r < p.v.rows) {
          var c = 0
          while (c < p.v.cols) { g(r, c) = out.grad(r, off + c); c += 1 }
          r += 1
        }
        p.grad.addInPlace(g)
        off += p.v.cols
      }
    })
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
    new V(new Mat(1, 1, Array(loss / wSum)), Seq(scores), { out =>
      val g = out.grad.data(0)
      val gs = Mat.zeros(n, 1)
      var j = 0
      while (j < n) {
        val s = scores.v(j, 0)
        val sig = 1.0 / (1.0 + math.exp(-s))
        gs(j, 0) = g * w(j, 0) * (sig - y(j, 0)) / wSum
        j += 1
      }
      scores.grad.addInPlace(gs)
    })
  }

  /** KL(target || rows of g): `sum_i sum_j t_j * log(t_j / g_ij) / N`.
    *
    * `target` is a 1 x F constant distribution (the attention vector averaged
    * over the unlabeled target domain, Eq. (10), detached as in Algorithm 1
    * line 5); g is N x F of row-stochastic attention vectors. Normalized by
    * N so the magnitude is batch-size independent.
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
        if (t > eps) loss += t * (math.log(t + eps) - math.log(g.v(i, j) + eps))
        j += 1
      }
      i += 1
    }
    new V(new Mat(1, 1, Array(loss / n)), Seq(g), { out =>
      val go = out.grad.data(0)
      val gg = Mat.zeros(n, g.v.cols)
      var r = 0
      while (r < n) {
        var c = 0
        while (c < g.v.cols) {
          val t = target(0, c)
          if (t > eps) gg(r, c) = -go * t / ((g.v(r, c) + eps) * n)
          c += 1
        }
        r += 1
      }
      g.grad.addInPlace(gg)
    })
  }

  /** Topologically-ordered reverse sweep from scalar `root`. */
  def backward(root: V): Unit = {
    require(root.v.rows == 1 && root.v.cols == 1, "backward root must be scalar")
    val order = ArrayBuffer.empty[V]
    val seen = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[V, java.lang.Boolean]())
    def visit(n: V): Unit = if (seen.add(n)) { n.parents.foreach(visit); order += n }
    visit(root)
    order.foreach(n => n.grad = Mat.zeros(n.v.rows, n.v.cols))
    root.grad = new Mat(1, 1, Array(1.0))
    order.reverseIterator.foreach(n => n.bw(n))
  }
}
