package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Mats._

/** Finite-difference gradient checks for every AD op and for representative
  * composites (including the full AdaMEL-shaped forward pass). These are the
  * correctness gate for all model training in the repo.
  */
class ADSpec extends AnyFunSuite {

  private val rng = new Rng(77)
  private def randMat(r: Int, c: Int, scale: Double = 1.0): Mat =
    new Mat(r, c, Array.fill(r * c)(rng.uniform(-scale, scale)))

  /** Check d(loss)/d(leaf) against central differences for every entry.
    *
    * `loss` must rebuild the graph from the *same* leaf nodes on every call
    * (leaves hold their value matrices by reference, so in-place
    * perturbation + rebuild gives the perturbed loss).
    */
  private def gradCheck(leaves: Seq[AD.V], loss: Seq[AD.V] => AD.V, tol: Double = 1e-5): Unit = {
    AD.backward(loss(leaves))
    val analytic = leaves.map(_.grad.copy())
    val eps = 1e-6
    leaves.zipWithIndex.foreach { case (leaf, li) =>
      for (i <- 0 until leaf.v.size) {
        val orig = leaf.v.data(i)
        leaf.v.data(i) = orig + eps
        val up = loss(leaves).scalar
        leaf.v.data(i) = orig - eps
        val dn = loss(leaves).scalar
        leaf.v.data(i) = orig
        val numeric = (up - dn) / (2 * eps)
        val a = analytic(li).data(i)
        assert(math.abs(a - numeric) <= tol * math.max(1.0, math.abs(numeric)),
          s"leaf $li entry $i: analytic=$a numeric=$numeric")
      }
    }
  }

  private def leaves(ms: Mat*): Seq[AD.V] = ms.map(AD.leaf)

  test("backward requires a scalar root") {
    intercept[IllegalArgumentException](AD.backward(AD.leaf(randMat(2, 2))))
  }

  test("grad of sumAll is ones") {
    val x = AD.leaf(randMat(3, 4))
    AD.backward(AD.sumAll(x))
    assert(x.grad.approxEquals(Mat.fill(3, 4, 1.0)))
  }

  test("grad: add") {
    val w = AD.input(randMat(3, 2))
    gradCheck(leaves(randMat(3, 2), randMat(3, 2)),
      ls => AD.sumAll(AD.mul(AD.add(ls(0), ls(1)), w)))
  }

  test("grad: mul (Hadamard)") {
    gradCheck(leaves(randMat(2, 3), randMat(2, 3)), ls => AD.sumAll(AD.mul(ls(0), ls(1))))
  }

  test("grad: scale") {
    gradCheck(leaves(randMat(2, 2)), ls => AD.scale(AD.sumAll(ls(0)), 3.7))
  }

  test("grad: matmul") {
    gradCheck(leaves(randMat(3, 4), randMat(4, 2)), ls => AD.sumAll(AD.matmul(ls(0), ls(1))))
  }

  test("grad: matmul with downstream weighting") {
    val w = AD.input(randMat(3, 2))
    gradCheck(leaves(randMat(3, 4), randMat(4, 2)),
      ls => AD.sumAll(AD.mul(AD.matmul(ls(0), ls(1)), w)))
  }

  test("grad: addRowVec") {
    gradCheck(leaves(randMat(4, 3), randMat(1, 3)),
      ls => AD.sumAll(AD.tanh(AD.addRowVec(ls(0), ls(1)))))
  }

  test("grad: mulColVec") {
    gradCheck(leaves(randMat(4, 3), randMat(4, 1)),
      ls => AD.sumAll(AD.tanh(AD.mulColVec(ls(0), ls(1)))))
  }

  test("grad: relu (away from kink)") {
    val m = randMat(3, 3).map(x => if (math.abs(x) < 0.05) 0.2 else x)
    gradCheck(leaves(m), ls => AD.sumAll(AD.mul(AD.relu(ls(0)), ls(0))))
  }

  test("grad: tanh") {
    gradCheck(leaves(randMat(3, 3)), ls => AD.sumAll(AD.tanh(ls(0))))
  }

  test("grad: softmaxRows") {
    val w = AD.input(randMat(3, 4))
    gradCheck(leaves(randMat(3, 4)), ls => AD.sumAll(AD.mul(AD.softmaxRows(ls(0)), w)))
  }

  test("softmaxRows rows sum to one and are positive") {
    val y = AD.softmaxRows(AD.leaf(randMat(5, 7, 3.0))).v
    for (r <- 0 until 5) {
      val s = (0 until 7).map(y(r, _)).sum
      assert(math.abs(s - 1.0) < 1e-12)
      assert((0 until 7).forall(c => y(r, c) > 0))
    }
  }

  test("grad: colSlice") {
    gradCheck(leaves(randMat(4, 3)), ls => AD.sumAll(AD.tanh(AD.colSlice(ls(0), 1))))
  }

  test("grad: hcat") {
    gradCheck(leaves(randMat(3, 2), randMat(3, 4), randMat(3, 1)),
      ls => AD.sumAll(AD.tanh(AD.hcat(ls.toIndexedSeq))))
  }

  test("grad: hcat of five parts, one constant and one used twice") {
    val c = AD.input(randMat(3, 2))
    val w = AD.input(randMat(3, 8))
    gradCheck(leaves(randMat(3, 1), randMat(3, 3), randMat(3, 1)),
      ls => AD.sumAll(AD.mul(AD.tanh(AD.hcat(Seq(ls(0), c, ls(1), ls(2), ls(0)))), w)))
  }

  test("grad: matmul with a constant input") {
    val x = AD.input(randMat(5, 3))
    val w = AD.input(randMat(5, 2))
    gradCheck(leaves(randMat(3, 2)), ls => AD.sumAll(AD.mul(AD.tanh(AD.matmul(x, ls(0))), w)))
    val y = AD.input(randMat(2, 4))
    gradCheck(leaves(randMat(3, 2)), ls => AD.sumAll(AD.tanh(AD.matmul(ls(0), y))))
  }

  test("a constant input, and a node of constants only, gets no gradient") {
    val x = AD.input(randMat(4, 3)); val w = AD.leaf(randMat(3, 2))
    val fromConstants = AD.tanh(x)
    AD.backward(AD.sumAll(AD.matmul(fromConstants, w)))
    assert(!x.needsGrad && !fromConstants.needsGrad && w.needsGrad)
    intercept[IllegalArgumentException](x.grad)
    intercept[IllegalArgumentException](fromConstants.grad)
    assert(w.grad.approxEquals(fromConstants.v.t %*% Mat.fill(4, 2, 1.0), 1e-12))
  }

  test("a parameter's gradient buffer is allocated once and reused") {
    val x = AD.leaf(randMat(2, 3))
    AD.backward(AD.sumAll(x))
    val buf = x.grad
    AD.backward(AD.scale(AD.sumAll(x), 2.0))
    assert(x.grad eq buf)
    assert(buf.approxEquals(Mat.fill(2, 3, 2.0)))
  }

  test("a second backward gives bit-identical gradients through a shared matmul parameter") {
    // The second call zero-fills the parameters' gradient buffers and adds
    // the shared parameter's two products into them again.
    val x1 = AD.input(randMat(4, 3)); val x2 = AD.input(randMat(4, 3))
    val w = AD.leaf(randMat(3, 2)); val v = AD.leaf(randMat(2, 1))
    def loss() = AD.sumAll(AD.tanh(AD.add(AD.matmul(AD.matmul(x1, w), v), AD.matmul(AD.matmul(x2, w), v))))
    AD.backward(loss())
    val (gw, gv) = (w.grad.copy(), v.grad.copy())
    AD.backward(loss())
    assert(java.util.Arrays.equals(w.grad.data, gw.data) && java.util.Arrays.equals(v.grad.data, gv.data))
  }

  test("a matmul's gradients skip the zero factors %*% skips") {
    // An exact-zero factor times an infinity adds nothing in %*%; the
    // backward's products must skip the same factors, or a NaN would show.
    // a's gradient: relu zeroes the cotangent of column 1, where b's -Inf is.
    val a = AD.leaf(Mats(2, 2)(1, 2, 3, 0.5))
    val b = AD.input(Mats(2, 3)(1, Double.NegativeInfinity, -1, 0.5, 1, 2))
    AD.backward(AD.sumAll(AD.relu(AD.matmul(a, b)))) // cotangent (1, 0, 1; 1, 0, 0)
    assert(java.util.Arrays.equals(a.grad.data, Array(0.0, 2.5, 1.0, 0.5)))
    // w's gradient: the cotangent's Inf meets x's exact zero in row 0,
    // which is skipped, and a 1 in row 1.
    val x = AD.input(Mats(2, 2)(0, 1, 2, 3))
    val w = AD.leaf(Mats(2, 2)(1, 2, 3, 4))
    val inf = Double.PositiveInfinity
    AD.backward(AD.sumAll(AD.mul(AD.matmul(x, w), AD.input(Mats(2, 2)(inf, 1, 1, 1))))) // cotangent (Inf, 1; 1, 1)
    assert(java.util.Arrays.equals(w.grad.data, Array(2.0, 2.0, inf, 4.0)))
  }

  test("grad: bceWithLogits") {
    val y = Mat.colVec(Array(1.0, 0.0, 1.0, 0.0))
    val w = Mat.colVec(Array(1.0, 2.0, 0.5, 1.0))
    gradCheck(leaves(randMat(4, 1, 2.0)), ls => AD.bceWithLogits(ls(0), y, w))
  }

  test("bceWithLogits value matches naive formula") {
    val s = Mat.colVec(Array(0.3, -1.2, 2.0))
    val y = Mat.colVec(Array(1.0, 0.0, 1.0))
    val w = Mat.colVec(Array(1.0, 1.0, 1.0))
    val got = AD.bceWithLogits(AD.leaf(s), y, w).scalar
    val expected = -(0 until 3).map { i =>
      val p = 1.0 / (1.0 + math.exp(-s(i, 0)))
      y(i, 0) * math.log(p) + (1 - y(i, 0)) * math.log(1 - p)
    }.sum / 3
    assert(math.abs(got - expected) < 1e-9)
  }

  test("bceWithLogits is stable at extreme logits") {
    val s = Mat.colVec(Array(500.0, -500.0))
    val y = Mat.colVec(Array(1.0, 0.0))
    val w = Mat.colVec(Array(1.0, 1.0))
    val v = AD.bceWithLogits(AD.leaf(s), y, w).scalar
    assert(!v.isNaN && !v.isInfinite && v < 1e-6)
  }

  test("grad: klToConst") {
    val target = {
      val t = randMat(1, 4).map(x => math.abs(x) + 0.1)
      t * (1.0 / t.sum)
    }
    gradCheck(leaves(randMat(3, 4)), ls => AD.klToConst(AD.softmaxRows(ls(0)), target))
  }

  test("klToConst is zero when rows equal the target") {
    val target = Mats(1, 4)(0.25, 0.25, 0.25, 0.25)
    val g = AD.leaf(Mat.fill(3, 4, 0.25))
    assert(math.abs(AD.klToConst(g, target).scalar) < 1e-9)
  }

  test("klToConst is positive when rows differ from the target") {
    val target = Mats(1, 4)(0.7, 0.1, 0.1, 0.1)
    val g = AD.leaf(Mat.fill(3, 4, 0.25))
    assert(AD.klToConst(g, target).scalar > 0.01)
  }

  test("grad flows through a full 2-layer MLP with BCE") {
    val y = Mat.colVec(Array(1.0, 0.0, 1.0, 1.0, 0.0))
    val ones = Mat.fill(5, 1, 1.0)
    val x = AD.input(randMat(5, 6))
    gradCheck(leaves(randMat(6, 4), randMat(1, 4), randMat(4, 1), randMat(1, 1)), ls => {
      val h = AD.tanh(AD.addRowVec(AD.matmul(x, ls(0)), ls(1)))
      AD.bceWithLogits(AD.addRowVec(AD.matmul(h, ls(2)), ls(3)), y, ones)
    })
  }

  test("grad flows through an AdaMEL-shaped attention composite") {
    // 2 features, tiny dims: x_j = tanh(H_j V_j), e_j = tanh(x_j W) a,
    // g = softmax, z = g_j * x_j, loss = BCE(MLP(z)).
    val h1 = AD.input(randMat(4, 3)); val h2 = AD.input(randMat(4, 3))
    val y = Mat.colVec(Array(1.0, 0.0, 0.0, 1.0))
    val ones = Mat.fill(4, 1, 1.0)
    gradCheck(
      leaves(randMat(3, 2), randMat(3, 2), randMat(2, 3), randMat(3, 1), randMat(4, 1)),
      ls => {
        val x1 = AD.tanh(AD.matmul(h1, ls(0)))
        val x2 = AD.tanh(AD.matmul(h2, ls(1)))
        val e1 = AD.matmul(AD.tanh(AD.matmul(x1, ls(2))), ls(3))
        val e2 = AD.matmul(AD.tanh(AD.matmul(x2, ls(2))), ls(3))
        val g = AD.softmaxRows(AD.hcat(Seq(e1, e2)))
        val z1 = AD.mulColVec(x1, AD.colSlice(g, 0))
        val z2 = AD.mulColVec(x2, AD.colSlice(g, 1))
        AD.bceWithLogits(AD.matmul(AD.hcat(Seq(z1, z2)), ls(4)), y, ones)
      }, tol = 1e-4)
  }

  test("relu and klToConst propagate NaN instead of dropping it") {
    val r = AD.relu(AD.input(Mats(1, 3)(Double.NaN, -1.0, 2.0))).v
    assert(r(0, 0).isNaN && r(0, 1) == 0.0 && r(0, 2) == 2.0)
    val g = AD.input(Mat.fill(2, 2, 0.5))
    assert(AD.klToConst(g, Mats(1, 2)(Double.NaN, 0.5)).scalar.isNaN)
    assert(AD.klToConst(g, Mats(1, 2)(0.0, 1.0)).scalar.isFinite)
  }

  test("gradient accumulates when a node is used twice") {
    gradCheck(leaves(randMat(2, 2)), ls => AD.sumAll(AD.add(ls(0), ls(0))))
  }

  test("backward zeroes stale gradients between calls") {
    val x = AD.leaf(randMat(2, 2))
    AD.backward(AD.sumAll(x))
    val g1 = x.grad.copy()
    AD.backward(AD.sumAll(x))
    assert(x.grad.approxEquals(g1))
  }
}
