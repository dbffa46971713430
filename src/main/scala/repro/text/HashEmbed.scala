package repro.text

/** Deterministic feature-hashed token embeddings — the stand-in for the
  * pretrained 300-d FastText vectors used by the paper (§5.1).
  *
  * Each token maps to a fixed D-dimensional vector whose entries are
  * pseudo-random in {-1,+1}/sqrt(D), derived from a 64-bit mix of the token
  * and the dimension index. Identical tokens therefore share identical
  * embeddings (the property the contrastive sim/uni features rely on) and
  * distinct tokens are near-orthogonal in expectation — the geometry that
  * summed-token-embedding matchers exploit. See DESIGN.md §2 for why this
  * substitution preserves the paper's mechanism.
  *
  * Missing values (challenges C1/C2) are embedded as a *fixed normalized
  * non-zero vector* exactly as §4.3 prescribes, so that the affine layers
  * still receive gradient for never-observed attributes.
  */
object HashEmbed extends Serializable {
  val DefaultDim = 32

  private def mix64(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  private def tokenHash(token: String): Long = {
    var h = 1125899906842597L
    var i = 0
    while (i < token.length) { h = 31 * h + token.charAt(i); i += 1 }
    h
  }

  /** Adds the embedding of `token`, entries `inv` or `-inv`, into `acc`. */
  private def addEmbedding(token: String, inv: Double, acc: Array[Double]): Unit = {
    val base = tokenHash(token)
    var d = 0
    while (d < acc.length) {
      acc(d) += (if ((mix64(base ^ (d.toLong * 0x9E3779B97F4A7C15L)) & 1L) == 0L) inv else -inv)
      d += 1
    }
  }

  /** Embedding of one token: entries in {-1,+1}/sqrt(D). */
  def embed(token: String, dim: Int = DefaultDim): Array[Double] = {
    val out = new Array[Double](dim)
    addEmbedding(token, 1.0 / math.sqrt(dim.toDouble), out)
    out
  }

  /** The fixed normalized non-zero vector for empty token sets (paper §4.3). */
  def missingVector(dim: Int = DefaultDim): Array[Double] = {
    val out = new Array[Double](dim)
    java.util.Arrays.fill(out, 1.0 / math.sqrt(dim.toDouble))
    out
  }

  /** Summed embeddings of a token set (paper Eq. 3: sum, no RNN/attention).
    * Empty input returns [[missingVector]]. Each token's entries are added
    * straight into the sum, in token order, without building its
    * [[embed]] array. */
  def embedSum(tokens: Seq[String], dim: Int = DefaultDim): Array[Double] =
    if (tokens.isEmpty) missingVector(dim)
    else {
      val inv = 1.0 / math.sqrt(dim.toDouble)
      val acc = new Array[Double](dim)
      tokens.foreach(addEmbedding(_, inv, acc))
      acc
    }

  /** Mean of token embeddings — used by baselines that average rather than
    * sum (keeps magnitudes comparable across value lengths). */
  def embedMean(tokens: Seq[String], dim: Int = DefaultDim): Array[Double] =
    if (tokens.isEmpty) missingVector(dim)
    else {
      val s = embedSum(tokens, dim)
      val inv = 1.0 / tokens.size
      var i = 0
      while (i < dim) { s(i) *= inv; i += 1 }
      s
    }
}
