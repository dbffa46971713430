package repro.linalg

/** Dense row-major matrix of doubles.
  *
  * This is the numeric substrate for the driver-side model training: the
  * models in this repo are small (tens of thousands of parameters), so a
  * simple, allocation-explicit implementation is both fast enough and easy
  * to verify. All operations are pure (return new matrices) unless the name
  * ends in `InPlace`.
  */
final class Mat(val rows: Int, val cols: Int, val data: Array[Double]) extends Serializable {
  require(data.length == rows * cols, s"data length ${data.length} != $rows x $cols")

  @inline def apply(r: Int, c: Int): Double = data(r * cols + c)
  @inline def update(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  def size: Int = rows * cols

  def copy(): Mat = new Mat(rows, cols, data.clone())

  def map(f: Double => Double): Mat = {
    val out = new Array[Double](size)
    var i = 0
    while (i < size) { out(i) = f(data(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def zip(that: Mat)(f: (Double, Double) => Double): Mat = {
    require(rows == that.rows && cols == that.cols,
      s"shape mismatch: ${rows}x$cols vs ${that.rows}x${that.cols}")
    val out = new Array[Double](size)
    var i = 0
    while (i < size) { out(i) = f(data(i), that.data(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def +(that: Mat): Mat = zip(that)(_ + _)
  def -(that: Mat): Mat = zip(that)(_ - _)
  def *(that: Mat): Mat = zip(that)(_ * _) // elementwise (Hadamard)
  def *(k: Double): Mat = map(_ * k)

  def addInPlace(that: Mat): Unit = {
    require(rows == that.rows && cols == that.cols, "shape mismatch in addInPlace")
    var i = 0
    while (i < size) { data(i) += that.data(i); i += 1 }
  }

  /** Matrix product `this (r x k) %*% that (k x c)`. */
  def %*%(that: Mat): Mat = {
    require(cols == that.rows, s"matmul shape mismatch: ${rows}x$cols %*% ${that.rows}x${that.cols}")
    val out = new Array[Double](rows * that.cols)
    val k = cols; val c = that.cols
    var i = 0
    while (i < rows) {
      var p = 0
      while (p < k) {
        val a = data(i * k + p)
        if (a != 0.0) {
          val rowOff = p * c; val outOff = i * c
          var j = 0
          while (j < c) { out(outOff + j) += a * that.data(rowOff + j); j += 1 }
        }
        p += 1
      }
      i += 1
    }
    new Mat(rows, that.cols, out)
  }

  def t: Mat = {
    val out = new Array[Double](size)
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
    val out = new Array[Double](size)
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
    val out = new Array[Double](size)
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
    val out = new Array[Double](cols)
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) { out(c) += data(r * cols + c); c += 1 }
      r += 1
    }
    new Mat(1, cols, out)
  }

  /** rows x 1 vector of row sums. */
  def rowSum: Mat = {
    val out = new Array[Double](rows)
    var r = 0
    while (r < rows) {
      var s = 0.0; var c = 0
      while (c < cols) { s += data(r * cols + c); c += 1 }
      out(r) = s; r += 1
    }
    new Mat(rows, 1, out)
  }

  def colMean: Mat = colSum * (1.0 / rows)

  /** Horizontal concatenation. */
  def hcat(that: Mat): Mat = {
    require(rows == that.rows, "hcat row mismatch")
    val out = new Array[Double](rows * (cols + that.cols))
    var r = 0
    while (r < rows) {
      System.arraycopy(data, r * cols, out, r * (cols + that.cols), cols)
      System.arraycopy(that.data, r * that.cols, out, r * (cols + that.cols) + cols, that.cols)
      r += 1
    }
    new Mat(rows, cols + that.cols, out)
  }

  /** Select a subset of rows (used for mini-batching). */
  def rowsAt(idx: Array[Int]): Mat = {
    val out = new Array[Double](idx.length * cols)
    var i = 0
    while (i < idx.length) {
      System.arraycopy(data, idx(i) * cols, out, i * cols, cols)
      i += 1
    }
    new Mat(idx.length, cols, out)
  }

  def approxEquals(that: Mat, tol: Double = 1e-9): Boolean =
    rows == that.rows && cols == that.cols &&
      data.indices.forall(i => math.abs(data(i) - that.data(i)) <= tol)

  override def toString: String = {
    val sb = new StringBuilder(s"Mat(${rows}x$cols)\n")
    val rr = math.min(rows, 6)
    for (r <- 0 until rr)
      sb.append((0 until math.min(cols, 8)).map(c => f"${apply(r, c)}%10.4f").mkString(" ")).append('\n')
    sb.toString
  }
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def fill(rows: Int, cols: Int, v: Double): Mat = new Mat(rows, cols, Array.fill(rows * cols)(v))

  def apply(rows: Int, cols: Int)(vals: Double*): Mat = {
    require(vals.length == rows * cols, "literal size mismatch")
    new Mat(rows, cols, vals.toArray)
  }

  def fromRows(rows: Seq[Array[Double]]): Mat = {
    require(rows.nonEmpty, "fromRows: empty")
    val c = rows.head.length
    require(rows.forall(_.length == c), "fromRows: ragged rows")
    val out = new Array[Double](rows.length * c)
    rows.zipWithIndex.foreach { case (r, i) => System.arraycopy(r, 0, out, i * c, c) }
    new Mat(rows.length, c, out)
  }

  /** Glorot-style uniform init, deterministic in the supplied RNG. */
  def glorot(rows: Int, cols: Int, rng: Rng): Mat = {
    val lim = math.sqrt(6.0 / (rows + cols))
    new Mat(rows, cols, Array.fill(rows * cols)(rng.uniform(-lim, lim)))
  }

  def colVec(vals: Array[Double]): Mat = new Mat(vals.length, 1, vals.clone())
}
