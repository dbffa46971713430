package repro.linalg

/** Dense row-major matrix of doubles.
  *
  * This is the numeric substrate for the driver-side model training: the
  * models in this repo are small (tens of thousands of parameters), so a
  * simple, allocation-explicit implementation is both fast enough and easy
  * to verify. All operations are pure (return new matrices) unless the name
  * ends in `InPlace`. Inside a [[Buffers]] scope the new matrices' data
  * arrays are recycled ones, valid until the scope closes.
  */
final class Mat(val rows: Int, val cols: Int, val data: Array[Double]) extends Serializable {
  require(data.length == rows * cols, s"data length ${data.length} != $rows x $cols")

  @inline def apply(r: Int, c: Int): Double = data(r * cols + c)
  @inline def update(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  def size: Int = rows * cols

  def map(f: Double => Double): Mat = {
    val out = Buffers.array(size)
    var i = 0
    while (i < size) { out(i) = f(data(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def zip(that: Mat)(f: (Double, Double) => Double): Mat = {
    require(rows == that.rows && cols == that.cols,
      s"shape mismatch: ${rows}x$cols vs ${that.rows}x${that.cols}")
    val out = Buffers.array(size)
    var i = 0
    while (i < size) { out(i) = f(data(i), that.data(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def +(that: Mat): Mat = zip(that)(_ + _)
  def *(that: Mat): Mat = zip(that)(_ * _) // elementwise (Hadamard)
  def *(k: Double): Mat = map(_ * k)

  def addInPlace(that: Mat): Unit = {
    require(rows == that.rows && cols == that.cols, "shape mismatch in addInPlace")
    var i = 0
    while (i < size) { data(i) += that.data(i); i += 1 }
  }

  /** Matrix product `this (r x k) %*% that (k x c)`.
    *
    * Entry (i, j) is summed from 0.0 over p in ascending order, skipping the
    * p where `this(i, p)` is zero. It is the only product kernel: a
    * `matmul`'s backward applies it to transposes ([[t]]).
    */
  def %*%(that: Mat): Mat = {
    require(cols == that.rows, s"matmul shape mismatch: ${rows}x$cols %*% ${that.rows}x${that.cols}")
    val out = Mat.zeros(rows, that.cols)
    val nz = Buffers.nonZeros(cols)
    var i = 0
    while (i < rows) {
      nz.gather(data, i * cols, cols)
      nz.addRowCombination(that, out.data, i * that.cols)
      i += 1
    }
    out
  }

  def t: Mat = {
    val out = Buffers.array(size)
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) { out(c * rows + r) = data(r * cols + c); c += 1 }
      r += 1
    }
    new Mat(cols, rows, out)
  }

  /** Add a 1 x cols row vector to every row. */
  def addRowVec(v: Mat): Mat = {
    require(v.rows == 1 && v.cols == cols, s"row-vec shape: ${v.rows}x${v.cols} for cols=$cols")
    val out = Buffers.array(size)
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) { out(r * cols + c) = data(r * cols + c) + v.data(c); c += 1 }
      r += 1
    }
    new Mat(rows, cols, out)
  }

  /** Multiply every row elementwise by a rows x 1 column vector (broadcast across cols). */
  def mulColVec(v: Mat): Mat = {
    require(v.rows == rows && v.cols == 1, s"col-vec shape: ${v.rows}x${v.cols} for rows=$rows")
    val out = Buffers.array(size)
    var r = 0
    while (r < rows) {
      val k = v.data(r)
      var c = 0
      while (c < cols) { out(r * cols + c) = data(r * cols + c) * k; c += 1 }
      r += 1
    }
    new Mat(rows, cols, out)
  }

  def sum: Double = { var s = 0.0; var i = 0; while (i < size) { s += data(i); i += 1 }; s }

  /** 1 x cols vector of column sums. */
  def colSum: Mat = {
    val out = Buffers.zeroedArray(cols)
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) { out(c) += data(r * cols + c); c += 1 }
      r += 1
    }
    new Mat(1, cols, out)
  }

  def colMean: Mat = colSum * (1.0 / rows)

  /** Select a subset of rows (used for mini-batching). */
  def rowsAt(idx: Array[Int]): Mat = {
    val out = Buffers.array(idx.length * cols)
    var i = 0
    while (i < idx.length) {
      System.arraycopy(data, idx(i) * cols, out, i * cols, cols)
      i += 1
    }
    new Mat(idx.length, cols, out)
  }

  override def toString: String = {
    val sb = new StringBuilder(s"Mat(${rows}x$cols)\n")
    val rr = math.min(rows, 6)
    for (r <- 0 until rr)
      sb.append((0 until math.min(cols, 8)).map(c => f"${apply(r, c)}%10.4f").mkString(" ")).append('\n')
    sb.toString
  }
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, Buffers.zeroedArray(rows * cols))

  /** A matrix whose entries are unspecified (inside a [[Buffers]] scope, an
    * earlier step's values): the caller writes every one. */
  private[linalg] def uninit(rows: Int, cols: Int): Mat = new Mat(rows, cols, Buffers.array(rows * cols))

  /** Horizontal concatenation of matrices with equal row counts, in one pass. */
  def hcat(parts: Seq[Mat]): Mat = {
    require(parts.nonEmpty, "hcat: no parts")
    val rows = parts.head.rows
    require(parts.forall(_.rows == rows), "hcat row mismatch")
    val cols = parts.iterator.map(_.cols).sum
    val out = Buffers.array(rows * cols)
    var off = 0
    parts.foreach { m =>
      var r = 0
      while (r < rows) { System.arraycopy(m.data, r * m.cols, out, r * cols + off, m.cols); r += 1 }
      off += m.cols
    }
    new Mat(rows, cols, out)
  }

  /** The non-zero entries of one row of a matrix, in order: the factors of
    * one output row of a product. The products of an output entry are added
    * one at a time, in that order, as `%*%` defines; the loop below only
    * interleaves the work on different entries. */
  private[linalg] final class NonZeros(val capacity: Int) {
    private val at = new Array[Int](capacity)
    private val x = new Array[Double](capacity)
    private var n = 0

    /** Keeps the non-zero values of `data(off + p)`, p < count. */
    def gather(data: Array[Double], off: Int, count: Int): Unit = {
      n = 0
      var p = 0
      while (p < count) {
        val v = data(off + p)
        if (v != 0.0) { at(n) = p; x(n) = v; n += 1 }
        p += 1
      }
    }

    /** out(off + j) += x_q * b(at_q, j) for every j, over q in order; four
      * q per pass, so each entry is loaded and stored once per four terms. */
    def addRowCombination(b: Mat, out: Array[Double], off: Int): Unit = {
      val c = b.cols; val bd = b.data
      var q = 0
      while (q + 4 <= n) {
        val x0 = x(q); val x1 = x(q + 1); val x2 = x(q + 2); val x3 = x(q + 3)
        val o0 = at(q) * c; val o1 = at(q + 1) * c; val o2 = at(q + 2) * c; val o3 = at(q + 3) * c
        var j = 0
        while (j < c) {
          var t = out(off + j)
          t += x0 * bd(o0 + j); t += x1 * bd(o1 + j); t += x2 * bd(o2 + j); t += x3 * bd(o3 + j)
          out(off + j) = t
          j += 1
        }
        q += 4
      }
      while (q < n) {
        val xq = x(q); val o = at(q) * c
        var j = 0
        while (j < c) { out(off + j) += xq * bd(o + j); j += 1 }
        q += 1
      }
    }
  }

  def fill(rows: Int, cols: Int, v: Double): Mat = {
    val out = Buffers.array(rows * cols)
    java.util.Arrays.fill(out, v)
    new Mat(rows, cols, out)
  }

  /** Glorot-style uniform init, deterministic in the supplied RNG. */
  def glorot(rows: Int, cols: Int, rng: Rng): Mat = {
    val lim = math.sqrt(6.0 / (rows + cols))
    new Mat(rows, cols, Array.fill(rows * cols)(rng.uniform(-lim, lim)))
  }

  def colVec(vals: Array[Double]): Mat = new Mat(vals.length, 1, vals.clone())
}
