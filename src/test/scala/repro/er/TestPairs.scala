package repro.er

import repro.linalg.Rng
import repro.text.HashEmbed

/** Driver-side PairBatch construction for model unit tests (no Spark):
  * FeaturePipeline's sim/uni split and embedSum over given token sets.
  */
object TestPairs {

  def pairFeatures(toks1: Array[Seq[String]], toks2: Array[Seq[String]], dim: Int): Array[Double] = {
    require(toks1.length == toks2.length)
    toks1.indices.flatMap { j =>
      val (sim, uni) = FeaturePipeline.contrast(toks1(j).distinct, toks2(j).distinct)
      HashEmbed.embedSum(sim, dim) ++ HashEmbed.embedSum(uni, dim)
    }.toArray
  }

  def fromTokens(attrs: Vector[String], dim: Int,
                 rows: Seq[(Double, Array[Seq[String]], Array[Seq[String]])]): PairBatch = {
    val pairs = rows.map { case (label, t1, t2) =>
      PairData(label, "srcA", "srcB", t1, t2, pairFeatures(t1, t2, dim))
    }.toArray
    PairBatch(attrs, dim, pairs)
  }

  /** `b` with the first feature value of pair `row` set to NaN. */
  def withNaNFeature(b: PairBatch, row: Int): PairBatch = {
    val p = b.pairs(row)
    b.copy(pairs = b.pairs.updated(row, p.copy(features = p.features.updated(0, Double.NaN))))
  }

  /** A linearly separable toy task over two attributes: matching pairs share
    * tokens on the informative attribute, non-matching pairs do not; the
    * other attribute is noise. */
  def separable(n: Int, dim: Int, seed: Long, informativeAttr: Int = 0): PairBatch = {
    val rng = new Rng(seed)
    val vocab = Vector.tabulate(60)(i => s"tok$i")
    val rows = (0 until n).map { i =>
      val label = if (i % 2 == 0) 1.0 else 0.0
      val shared = Seq(rng.pick(vocab), rng.pick(vocab))
      val noise1 = Seq(rng.pick(vocab)); val noise2 = Seq(rng.pick(vocab))
      val (a0_1, a0_2) =
        if (label == 1.0) (shared, shared)
        else (Seq(rng.pick(vocab), s"left$i"), Seq(rng.pick(vocab), s"right$i"))
      val t1 = Array.fill[Seq[String]](2)(Seq.empty)
      val t2 = Array.fill[Seq[String]](2)(Seq.empty)
      t1(informativeAttr) = a0_1; t2(informativeAttr) = a0_2
      t1(1 - informativeAttr) = noise1; t2(1 - informativeAttr) = noise2
      (label, t1, t2)
    }
    fromTokens(Vector("attr0", "attr1"), dim, rows)
  }

  /** A task of Monitor's shape: `attrs` attributes, so F = 2·attrs features.
    * Attributes 0 and 1 are informative as in [[separable]]; of the others,
    * every third is missing in both records (its sim and uni features are
    * [[HashEmbed.missingVector]]) and the rest hold 0-2 random tokens per
    * record. */
  def wide(n: Int, attrs: Int, dim: Int, seed: Long): PairBatch = {
    val rng = new Rng(seed)
    val vocab = Vector.tabulate(200)(i => s"tok$i")
    val rows = (0 until n).map { i =>
      val label = if (i % 2 == 0) 1.0 else 0.0
      val t1 = Array.fill[Seq[String]](attrs)(Seq.empty)
      val t2 = Array.fill[Seq[String]](attrs)(Seq.empty)
      for (j <- 0 until attrs) {
        if (j < 2) {
          if (label == 1.0) { val shared = Seq(rng.pick(vocab), rng.pick(vocab)); t1(j) = shared; t2(j) = shared }
          else { t1(j) = Seq(rng.pick(vocab), s"left$i"); t2(j) = Seq(rng.pick(vocab), s"right$i") }
        } else if (j % 3 != 0) {
          t1(j) = Seq.fill(rng.nextInt(3))(rng.pick(vocab))
          t2(j) = Seq.fill(rng.nextInt(3))(rng.pick(vocab))
        }
      }
      (label, t1, t2)
    }
    fromTokens(Vector.tabulate(attrs)(j => s"attr$j"), dim, rows)
  }
}
