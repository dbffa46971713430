package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Mats._

class AdamRngSpec extends AnyFunSuite {

  test("Rng is deterministic in seed") {
    val a = new Rng(42); val b = new Rng(42)
    assert((0 until 100).forall(_ => a.nextDouble() == b.nextDouble()))
  }

  test("Rng streams differ across seeds") {
    val a = new Rng(1); val b = new Rng(2)
    assert((0 until 20).exists(_ => a.nextDouble() != b.nextDouble()))
  }

  test("nextDouble stays in [0,1)") {
    val r = new Rng(9)
    (0 until 10000).foreach { _ => val x = r.nextDouble(); assert(x >= 0.0 && x < 1.0) }
  }

  test("nextInt respects bound and hits all values") {
    val r = new Rng(11)
    val counts = Array.fill(5)(0)
    (0 until 5000).foreach(_ => counts(r.nextInt(5)) += 1)
    assert(counts.forall(_ > 500))
  }

  test("uniform respects range") {
    val r = new Rng(3)
    (0 until 1000).foreach { _ => val x = r.uniform(-2, 5); assert(x >= -2 && x < 5) }
  }

  test("nextGaussian has roughly zero mean unit variance") {
    val r = new Rng(8)
    val xs = Array.fill(20000)(r.nextGaussian())
    val m = xs.sum / xs.length
    val v = xs.map(x => (x - m) * (x - m)).sum / xs.length
    assert(math.abs(m) < 0.05, s"mean $m")
    assert(math.abs(v - 1.0) < 0.1, s"var $v")
  }

  test("shuffle is a permutation") {
    val r = new Rng(4)
    val s = r.shuffle(1 to 50)
    assert(s.sorted == (1 to 50))
  }

  test("sampleIndices are distinct and in range") {
    val r = new Rng(5)
    val idx = r.sampleIndices(30, 10)
    assert(idx.length == 10 && idx.distinct.length == 10 && idx.forall(i => i >= 0 && i < 30))
  }

  test("zero seed is remapped (not a fixed point)") {
    val r = new Rng(0)
    assert((0 until 5).map(_ => r.nextDouble()).distinct.size > 1)
  }

  test("Adam minimizes a convex quadratic") {
    // f(x) = ||x - c||^2, minimized at c.
    val c = Mats(1, 3)(1.0, -2.0, 0.5)
    val x = AD.leaf(Mat.zeros(1, 3))
    val opt = new Adam(Seq(x), lr = 0.05)
    for (_ <- 0 until 500) {
      val diff = AD.add(x, AD.scale(AD.leaf(c), -1.0))
      val loss = AD.sumAll(AD.mul(diff, diff))
      opt.zeroGrad(); AD.backward(loss); opt.step()
    }
    assert(x.v.approxEquals(c, 1e-2), s"converged to ${x.v}")
  }

  test("Adam trains logistic regression to separate a linearly separable set") {
    val rng = new Rng(21)
    val n = 200
    val xs = Mats.fromRows((0 until n).map { _ =>
      Array(rng.uniform(-1, 1), rng.uniform(-1, 1))
    })
    val y = Mat.colVec(Array.tabulate(n)(i => if (xs(i, 0) + xs(i, 1) > 0) 1.0 else 0.0))
    val ones = Mat.fill(n, 1, 1.0)
    val w = AD.leaf(Mat.zeros(2, 1)); val b = AD.leaf(Mat.zeros(1, 1))
    val opt = new Adam(Seq(w, b), lr = 0.1)
    var last = Double.MaxValue
    for (_ <- 0 until 300) {
      val loss = AD.bceWithLogits(AD.addRowVec(AD.matmul(AD.leaf(xs), w), b), y, ones)
      last = loss.scalar
      opt.zeroGrad(); AD.backward(loss); opt.step()
    }
    assert(last < 0.1, s"final loss $last")
    assert(w.v(0, 0) > 0 && w.v(1, 0) > 0)
  }

  test("Adam loss decreases monotonically-ish on a smooth problem") {
    val x = AD.leaf(Mat.fill(1, 1, 5.0))
    val opt = new Adam(Seq(x), lr = 0.1)
    val losses = (0 until 100).map { _ =>
      val loss = AD.mul(x, x)
      opt.zeroGrad(); AD.backward(AD.sumAll(loss)); opt.step()
      loss.v.data(0)
    }
    assert(losses.last < losses.head / 100)
  }

  test("a parameter left off a step's tape gets a zero gradient, not the previous step's") {
    val p = AD.leaf(Mats(1, 2)(0.5, -1.0)); val q = AD.leaf(Mats(1, 2)(2.0, 3.0))
    val opt = new Adam(Seq(p, q), lr = 0.1)
    opt.zeroGrad(); AD.backward(AD.sumAll(AD.mul(p, q))); opt.step()
    assert(q.grad.data.forall(_ != 0.0))
    opt.zeroGrad(); AD.backward(AD.sumAll(AD.mul(p, p)))
    assert(q.grad.data.forall(_ == 0.0), s"stale gradient ${q.grad}")
    assert(p.grad.approxEquals(p.v * 2.0, 1e-12))
  }
}
