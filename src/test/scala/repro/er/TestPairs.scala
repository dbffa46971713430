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
}
