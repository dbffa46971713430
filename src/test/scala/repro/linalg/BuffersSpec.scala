package repro.linalg

import java.util.concurrent.{Callable, Executors}

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AdaMEL, AdaMELConfig, Variant}
import repro.er.{PairBatch, TestPairs}
import repro.linalg.Mats._

/** The buffer scopes' recycling and the lifetime rule their callers keep:
  * recycled arrays never change a result, what lives across steps is never
  * handed out by a scope, and scopes are confined to their thread. */
class BuffersSpec extends AnyFunSuite {
  import BuffersSpec._

  private val rng = new Rng(5)
  private def randMat(r: Int, c: Int): Mat = new Mat(r, c, Array.fill(r * c)(rng.uniform(-2, 2)))

  test("closing a scope recycles its arrays; outside every scope nothing is recycled") {
    val outside = Mat.zeros(2, 3)
    assert(!Buffers.holds(outside.data))
    val first = Buffers.scoped { val m = Mat.fill(2, 3, 7.0); assert(Buffers.holds(m.data)); m.data }
    assert(Buffers.holds(first))
    val again = Buffers.scoped(Mat.zeros(2, 3))
    assert(again.data eq first, "the next scope takes the recycled array")
    assert(again.data.forall(_ == 0.0), "a recycled array is zeroed for zeros")
  }

  test("closing a nested scope returns only the arrays taken inside it") {
    Buffers.scoped {
      val outer = Mat.zeros(4, 1)
      val inner = Buffers.scoped(Mat.zeros(4, 1).data)
      val next = Mat.zeros(4, 1)
      assert(next.data eq inner)
      assert((next.data ne outer.data) && (outer.data ne inner))
    }
  }

  test("an exception thrown in a scope still closes it") {
    intercept[IllegalStateException](Buffers.scoped { Mat.zeros(3, 3); throw new IllegalStateException })
    assert(!Buffers.inScope)
  }

  test("every Mat and AD op gives the same bits in a scope whose recycled arrays hold NaN") {
    val (a, b, c) = (randMat(5, 4), randMat(4, 3), randMat(5, 3))
    val (row, col) = (randMat(1, 4), randMat(5, 1))
    val w = AD.leaf(randMat(4, 3)); val bias = AD.leaf(randMat(1, 3)); val u = AD.leaf(randMat(3, 2))
    val y = Mat.colVec(Array(1.0, 0.0, 1.0, 1.0, 0.0))
    val target = Mats(1, 2)(0.25, 0.75)
    // Every op's result, copied, in order; the parameters' gradients last.
    def run(): Seq[Array[Double]] = {
      val mats = Seq(a.map(math.sin), a + a, a - a, a * a, a * 3.0, a %*% b, a.t %*% c, c %*% b.t, a.t,
        a.addRowVec(row), a.mulColVec(col), a.colSum, a.colMean, a.rowsAt(Array(4, 0, 4)),
        Mat.hcat(Seq(a, c, col)), Mat.zeros(2, 2), Mat.fill(2, 2, 0.5))
      val x = AD.input(a)
      val h = AD.relu(AD.addRowVec(AD.matmul(x, w), bias))
      val e = AD.tanh(AD.mul(h, AD.scale(h, 0.5)))
      val g = AD.softmaxRows(AD.matmul(e, u))
      val gated = AD.hcat(Seq(AD.mulColVec(h, AD.colSlice(g, 0)), AD.mulColVec(h, AD.colSlice(g, 1))))
      val s = AD.matmul(gated, AD.input(Mat.fill(6, 1, 0.1)))
      val loss = AD.add(AD.add(AD.bceWithLogits(s, y, Mat.fill(5, 1, 1.0)), AD.klToConst(g, target)),
        AD.scale(AD.sumAll(h), 1e-3))
      AD.backward(loss)
      (mats ++ Seq(h.v, e.v, g.v, gated.v, s.v, loss.v, h.grad, g.grad, w.grad, bias.grad, u.grad))
        .map(_.data.clone())
    }
    val want = run()
    // Every free array of each length run() takes is set to NaN, so run()
    // below gets only NaN-filled recycled arrays.
    Buffers.scoped { for (n <- 1 to 64; _ <- 0 until 40) java.util.Arrays.fill(Buffers.array(n), Double.NaN) }
    val got = Buffers.scoped(run())
    assert(got.size == want.size)
    want.zip(got).zipWithIndex.foreach { case ((x, z), i) =>
      assert(java.util.Arrays.equals(x, z), s"result $i differs in a scope")
    }
  }

  test("scoring leaves no buffer scope open, also when forward throws") {
    val m = new AdaMEL(cfgA, Dim, train.featureNames)
    m.scores(BuffersSpec.test); assert(!Buffers.inScope)
    m.attention(BuffersSpec.test); assert(!Buffers.inScope)
    val otherDim = TestPairs.wide(30, 6, Dim + 1, seed = 4)
    intercept[IllegalArgumentException](m.scores(otherDim)); assert(!Buffers.inScope)
    intercept[IllegalArgumentException](m.attention(otherDim)); assert(!Buffers.inScope)
  }

  test("parameters and Adam's moments are created outside every scope") {
    val p = AD.leaf(randMat(2, 2))
    Buffers.scoped {
      intercept[IllegalArgumentException](AD.leaf(randMat(2, 2)))
      intercept[IllegalArgumentException](new Adam(Seq(p)))
    }
  }

  test("no parameter value or gradient, nor Adam moment, is handed out by a scope") {
    val m = new AdaMEL(cfgA, Dim, train.featureNames)
    m.fit(train, Some(target), Some(support))
    m.parameters.foreach { p =>
      assert(!Buffers.holds(p.v.data) && !Buffers.holds(p.grad.data))
    }
    val ps = Seq(AD.leaf(randMat(3, 2)), AD.leaf(randMat(2, 1)))
    val opt = new Adam(ps)
    val x = AD.input(randMat(4, 3))
    for (_ <- 0 until 3) Buffers.scoped {
      opt.zeroGrad()
      AD.backward(AD.sumAll(AD.tanh(AD.matmul(AD.matmul(x, ps(0)), ps(1)))))
      opt.step()
    }
    (opt.m ++ opt.v).foreach(mo => assert(!Buffers.holds(mo.data)))
    ps.foreach(p => assert(!Buffers.holds(p.v.data) && !Buffers.holds(p.grad.data)))
  }

  test("fitting A, then a differently shaped B, then A again gives bit-identical losses and scores for A") {
    val a1 = fitA()
    fitB()
    val a2 = fitA()
    assert(bits(a1) == bits(a2))
  }

  test("two threads fitting at once give the results of the same fits run one after the other") {
    val (a, b) = (fitA(), fitB())
    val pool = Executors.newFixedThreadPool(2)
    try {
      val start = new java.util.concurrent.CountDownLatch(2)
      def task(fit: () => (Seq[Double], Seq[Double])): Callable[(Seq[Double], Seq[Double])] =
        () => { start.countDown(); start.await(); fit() }
      val (fa, fb) = (pool.submit(task(() => fitA())), pool.submit(task(() => fitB())))
      assert(bits(fa.get) == bits(a) && bits(fb.get) == bits(b))
    } finally pool.shutdown()
  }
}

object BuffersSpec {
  private val Dim = 8
  private lazy val train = TestPairs.wide(64, 6, Dim, seed = 1)
  private lazy val target = TestPairs.wide(40, 6, Dim, seed = 2)
  private lazy val support = TestPairs.wide(20, 6, Dim, seed = 3)
  private lazy val test = TestPairs.wide(30, 6, Dim, seed = 4)
  private val cfgA = AdaMELConfig(variant = Variant.Hyb, epochs = 3, seed = 11)

  /** Model A: AdaMEL-hyb on a Monitor-shaped task (F = 12, D = 8). */
  private def fitA(): (Seq[Double], Seq[Double]) = {
    val m = new AdaMEL(cfgA, Dim, train.featureNames)
    (m.fit(train, Some(target), Some(support)), m.scores(test).toSeq)
  }

  /** Model B: AdaMEL-base of other layer widths on a two-attribute task (F = 4, D = 16). */
  private def fitB(): (Seq[Double], Seq[Double]) = {
    val sep: PairBatch = TestPairs.separable(60, 16, seed = 5)
    val m = new AdaMEL(AdaMELConfig(variant = Variant.Base, h = 8, hPrime = 12, hidden = 20, epochs = 3, seed = 2),
      16, sep.featureNames)
    (m.fit(sep), m.scores(sep).toSeq)
  }

  private def bits(r: (Seq[Double], Seq[Double])): (Seq[Long], Seq[Long]) =
    (r._1.map(java.lang.Double.doubleToRawLongBits), r._2.map(java.lang.Double.doubleToRawLongBits))
}
