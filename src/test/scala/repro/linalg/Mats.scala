package repro.linalg

/** Matrix constructors only the tests need. */
object Mats {
  /** The matrix whose rows are `rows`, which must be non-empty and of one length. */
  def fromRows(rows: Seq[Array[Double]]): Mat = {
    require(rows.nonEmpty, "fromRows: empty")
    val c = rows.head.length
    require(rows.forall(_.length == c), "fromRows: ragged rows")
    val out = new Array[Double](rows.length * c)
    rows.zipWithIndex.foreach { case (r, i) => System.arraycopy(r, 0, out, i * c, c) }
    new Mat(rows.length, c, out)
  }
}
