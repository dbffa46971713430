package repro.linalg

/** Matrix constructors and operations only the tests need. */
object Mats {
  /** A matrix from row-major literal values. */
  def apply(rows: Int, cols: Int)(vals: Double*): Mat = {
    require(vals.length == rows * cols, "literal size mismatch")
    new Mat(rows, cols, vals.toArray)
  }

  /** The matrix whose rows are `rows`, which must be non-empty and of one length. */
  def fromRows(rows: Seq[Array[Double]]): Mat = {
    require(rows.nonEmpty, "fromRows: empty")
    val c = rows.head.length
    require(rows.forall(_.length == c), "fromRows: ragged rows")
    val out = new Array[Double](rows.length * c)
    rows.zipWithIndex.foreach { case (r, i) => System.arraycopy(r, 0, out, i * c, c) }
    new Mat(rows.length, c, out)
  }

  implicit final class MatOps(private val m: Mat) extends AnyVal {
    def -(that: Mat): Mat = m.zip(that)(_ - _)

    def copy(): Mat = new Mat(m.rows, m.cols, m.data.clone())

    def approxEquals(that: Mat, tol: Double = 1e-9): Boolean =
      m.rows == that.rows && m.cols == that.cols &&
        m.data.indices.forall(i => math.abs(m.data(i) - that.data(i)) <= tol)
  }
}
