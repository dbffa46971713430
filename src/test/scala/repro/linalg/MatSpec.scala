package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Mats._

class MatSpec extends AnyFunSuite {

  private val rng = new Rng(123)
  private def randMat(r: Int, c: Int): Mat =
    new Mat(r, c, Array.fill(r * c)(rng.uniform(-2, 2)))

  /** Hand-rolled property loop (no scalatestplus bridge offline). */
  private def forAllDims(f: (Int, Int) => Unit): Unit =
    (0 until 30).foreach { _ => f(1 + rng.nextInt(6), 1 + rng.nextInt(6)) }

  test("zeros has all zero entries") {
    assert(Mat.zeros(3, 4).data.forall(_ == 0.0))
  }

  test("fill sets every entry") {
    assert(Mat.fill(2, 5, 1.5).data.forall(_ == 1.5))
  }

  test("literal constructor is row-major") {
    val m = Mats(2, 2)(1, 2, 3, 4)
    assert(m(0, 0) == 1 && m(0, 1) == 2 && m(1, 0) == 3 && m(1, 1) == 4)
  }

  test("shape mismatch in add throws") {
    intercept[IllegalArgumentException](Mat.zeros(2, 2) + Mat.zeros(2, 3))
  }

  test("add is commutative") {
    forAllDims { (r, c) =>
      val a = randMat(r, c); val b = randMat(r, c)
      assert((a + b).approxEquals(b + a))
    }
  }

  test("sub then add roundtrips") {
    forAllDims { (r, c) =>
      val a = randMat(r, c); val b = randMat(r, c)
      assert(((a - b) + b).approxEquals(a, 1e-9))
    }
  }

  test("elementwise mul matches manual loop") {
    val a = Mats(2, 2)(1, 2, 3, 4); val b = Mats(2, 2)(5, 6, 7, 8)
    assert((a * b).approxEquals(Mats(2, 2)(5, 12, 21, 32)))
  }

  test("scalar mul scales every entry") {
    forAllDims { (r, c) =>
      val a = randMat(r, c)
      assert((a * 2.0).approxEquals(a + a))
    }
  }

  test("matmul identity") {
    val a = randMat(3, 3)
    val id = Mats(3, 3)(1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert((a %*% id).approxEquals(a) && (id %*% a).approxEquals(a))
  }

  test("matmul known values") {
    val a = Mats(2, 3)(1, 2, 3, 4, 5, 6)
    val b = Mats(3, 2)(7, 8, 9, 10, 11, 12)
    assert((a %*% b).approxEquals(Mats(2, 2)(58, 64, 139, 154)))
  }

  test("matmul associativity") {
    val a = randMat(2, 3); val b = randMat(3, 4); val c = randMat(4, 2)
    assert(((a %*% b) %*% c).approxEquals(a %*% (b %*% c), 1e-9))
  }

  test("matmul shape mismatch throws") {
    intercept[IllegalArgumentException](Mat.zeros(2, 3) %*% Mat.zeros(2, 3))
  }

  test("transpose involution") {
    forAllDims { (r, c) => val a = randMat(r, c); assert(a.t.t.approxEquals(a)) }
  }

  test("transpose of product reverses order") {
    val a = randMat(2, 3); val b = randMat(3, 4)
    assert((a %*% b).t.approxEquals(b.t %*% a.t, 1e-9))
  }

  test("addRowVec broadcasts to each row") {
    val a = Mats(2, 3)(1, 1, 1, 2, 2, 2)
    val v = Mats(1, 3)(10, 20, 30)
    assert(a.addRowVec(v).approxEquals(Mats(2, 3)(11, 21, 31, 12, 22, 32)))
  }

  test("mulColVec broadcasts across columns") {
    val a = Mats(2, 3)(1, 2, 3, 4, 5, 6)
    val v = Mat.colVec(Array(2.0, 10.0))
    assert(a.mulColVec(v).approxEquals(Mats(2, 3)(2, 4, 6, 40, 50, 60)))
  }

  test("sum equals colSum total") {
    forAllDims { (r, c) =>
      val a = randMat(r, c)
      assert(math.abs(a.sum - a.colSum.sum) < 1e-9)
    }
  }

  test("colMean of constant matrix") {
    assert(Mat.fill(4, 3, 2.0).colMean.approxEquals(Mat.fill(1, 3, 2.0)))
  }

  /** Random matrix with about a third of its entries exactly zero and,
    * when it has more than one row, an all-zero row. */
  private def sparseMat(r: Int, c: Int): Mat = {
    val m = randMat(r, c).map(x => if (rng.nextDouble() < 0.33) 0.0 else x)
    if (r > 1) { val z = rng.nextInt(r); (0 until c).foreach(m(z, _) = 0.0) }
    m
  }

  /** Fixed edge shapes (1-row, 1-column, 1 x 1, and inner widths on both
    * sides of `%*%`'s four-factor passes) plus random ones. */
  private val kernelShapes: Seq[(Int, Int, Int)] =
    Seq((1, 1, 1), (1, 5, 3), (4, 1, 6), (5, 3, 1), (3, 7, 8), (6, 9, 17), (16, 32, 16), (16, 30, 13)) ++
      (0 until 40).map(_ => (1 + rng.nextInt(12), 1 + rng.nextInt(12), 1 + rng.nextInt(20)))

  test("%*% sums each entry over ascending p from 0.0, skipping zero factors, bit for bit") {
    kernelShapes.foreach { case (k, r, c) =>
      val a = sparseMat(r, k); val b = sparseMat(k, c)
      val want = new Array[Double](r * c)
      for (i <- 0 until r; j <- 0 until c) {
        var s = 0.0
        for (p <- 0 until k) if (a(i, p) != 0.0) s += a(i, p) * b(p, j)
        want(i * c + j) = s
      }
      assert(java.util.Arrays.equals((a %*% b).data, want), s"$r x $k %*% $k x $c")
    }
  }

  test("hcat of several parts keeps each part's columns in order") {
    val parts = Seq(Mats(2, 1)(1, 2), Mats(2, 3)(3, 4, 5, 6, 7, 8), Mats(2, 1)(9, 10), Mats(2, 2)(11, 12, 13, 14))
    assert(Mat.hcat(parts).approxEquals(Mats(2, 7)(1, 3, 4, 5, 9, 11, 12, 2, 6, 7, 8, 10, 13, 14), 0.0))
    intercept[IllegalArgumentException](Mat.hcat(Seq(Mat.zeros(2, 1), Mat.zeros(3, 1))))
  }

  test("hcat preserves both halves") {
    val a = Mats(2, 2)(1, 2, 3, 4); val b = Mats(2, 1)(9, 10)
    val h = Mat.hcat(Seq(a, b))
    assert(h.cols == 3 && h(0, 2) == 9 && h(1, 2) == 10 && h(1, 1) == 4)
  }

  test("rowsAt selects and reorders") {
    val a = Mats(3, 2)(1, 2, 3, 4, 5, 6)
    val s = a.rowsAt(Array(2, 0))
    assert(s.approxEquals(Mats(2, 2)(5, 6, 1, 2)))
  }

  test("map applies elementwise") {
    val a = Mats(1, 3)(1, -2, 3)
    assert(a.map(math.abs).approxEquals(Mats(1, 3)(1, 2, 3)))
  }

  test("glorot init is within the glorot bound and deterministic in seed") {
    val m1 = Mat.glorot(10, 20, new Rng(5))
    val m2 = Mat.glorot(10, 20, new Rng(5))
    val lim = math.sqrt(6.0 / 30)
    assert(m1.data.forall(x => math.abs(x) <= lim))
    assert(m1.approxEquals(m2))
    assert(m1.data.exists(_ != 0.0))
  }

  test("copy is deep") {
    val a = Mat.zeros(2, 2); val b = a.copy()
    b(0, 0) = 5.0
    assert(a(0, 0) == 0.0)
  }

  test("fromRows builds the expected matrix and rejects ragged input") {
    val m = Mats.fromRows(Seq(Array(1.0, 2), Array(3.0, 4)))
    assert(m.approxEquals(Mats(2, 2)(1, 2, 3, 4)))
    intercept[IllegalArgumentException](Mats.fromRows(Seq(Array(1.0), Array(1.0, 2))))
  }

  test("addInPlace mutates receiver only") {
    val a = Mat.fill(2, 2, 1.0); val b = Mat.fill(2, 2, 2.0)
    a.addInPlace(b)
    assert(a.approxEquals(Mat.fill(2, 2, 3.0)) && b.approxEquals(Mat.fill(2, 2, 2.0)))
  }

  test("distributivity a(b+c) = ab + ac") {
    val a = randMat(3, 4); val b = randMat(4, 2); val c = randMat(4, 2)
    assert((a %*% (b + c)).approxEquals((a %*% b) + (a %*% c), 1e-9))
  }
}
