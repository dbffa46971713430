package repro.baselines

import repro.er.{PairBatch, PairData}
import repro.text.HashEmbed

/** TLER (Thirumuruganathan et al. 2018): non-deep transfer-ER baseline.
  *
  * Defines a standard per-attribute string-similarity feature space (token
  * Jaccard, containment both ways, exact match, both-present indicator,
  * length ratio) and trains a linear classifier on the seen (source) data,
  * which is then reused unchanged on the new domain — the paper's "reuse
  * and adaptation" framing at its simplest. `hidden = 0` in [[MLPMatcher]]
  * makes this logistic regression.
  */
final class TLER(seed: Long)
    extends MLPMatcher("TLER", hidden = 0, epochs = 200, lr = 5e-2, seed) {
  override def featureDim(batch: PairBatch): Int = 6 * batch.attrs.length

  override def featurize(p: PairData, attrs: Vector[String], out: Array[Double], at: Int): Unit = {
    var j = 0
    while (j < attrs.length) {
      val a = p.toks1(j); val b = p.toks2(j)
      val o = at + 6 * j
      out(o) = Sim.jaccard(a, b)
      out(o + 1) = Sim.containment(a, b)
      out(o + 2) = Sim.containment(b, a)
      out(o + 3) = if (a.nonEmpty && a == b) 1.0 else 0.0
      out(o + 4) = Sim.bothPresent(a, b)
      out(o + 5) = Sim.lengthRatio(a, b)
      j += 1
    }
  }
}

/** DeepMatcher-hybrid (Mudgal et al. 2018), reduced: attribute
  * summarization (mean of token embeddings — standing in for the
  * attention-RNN summarizer), attribute similarity representation
  * `[|u - v|, u ⊙ v]` per attribute, then an MLP classifier.
  *
  * Keeps the three-module design (embed / similarity rep / classify) the
  * paper describes; has no attribute-level attention and no adaptation, so
  * it inherits whatever attribute importance the source labels imply —
  * the failure mode AdaMEL targets.
  */
final class DeepMatcherLite(dim: Int, seed: Long, epochs: Int = 120)
    extends MLPMatcher("DeepMatcher", hidden = 32, epochs, lr = 1e-2, seed) {
  private val mean = new MeanEmbedding(dim)

  override def featureDim(batch: PairBatch): Int = batch.attrs.length * 2 * dim

  override def featurize(p: PairData, attrs: Vector[String], out: Array[Double], at: Int): Unit = {
    var j = 0
    while (j < attrs.length) {
      val u = mean(p.toks1(j))
      val v = mean(p.toks2(j))
      val o = at + j * 2 * dim
      var d = 0
      while (d < dim) {
        out(o + d) = math.abs(u(d) - v(d))
        out(o + dim + d) = u(d) * v(d)
        d += 1
      }
      j += 1
    }
  }
}

/** EntityMatcher (Fu et al. 2020), reduced: hierarchical matching with
  * cross-attribute token-level alignment.
  *
  * For each attribute, every token of one record aligns to its best match
  * anywhere in the other record (any attribute). With hash embeddings the
  * best-cosine alignment degenerates to exact-token membership (no semantic
  * neighbors — DESIGN.md §2), so the alignment score is computed directly as
  * cross-record token coverage, in both directions, plus the same-attribute
  * Jaccard. This retains the property the paper credits EntityMatcher for:
  * robustness to values drifting across attributes.
  */
final class EntityMatcherLite(seed: Long)
    extends MLPMatcher("EntityMatcher", hidden = 32, epochs = 120, lr = 1e-2, seed) {
  override def featureDim(batch: PairBatch): Int = 4 * batch.attrs.length

  override def featurize(p: PairData, attrs: Vector[String], out: Array[Double], at: Int): Unit = {
    val all1 = p.toks1.iterator.flatten.toSet
    val all2 = p.toks2.iterator.flatten.toSet
    var j = 0
    while (j < attrs.length) {
      val a = p.toks1(j); val b = p.toks2(j)
      val o = at + 4 * j
      out(o) = if (a.isEmpty) 0.0 else a.count(all2).toDouble / a.size // align r -> r'
      out(o + 1) = if (b.isEmpty) 0.0 else b.count(all1).toDouble / b.size // align r' -> r
      out(o + 2) = Sim.jaccard(a, b)
      out(o + 3) = Sim.bothPresent(a, b)
      j += 1
    }
  }
}

/** Ditto (Li et al. 2020), reduced: both records serialized to single token
  * sequences with attribute-name markers (`COL a VAL v ...`), encoded as
  * summed hash embeddings (standing in for the fine-tuned LM encoder), with
  * the classifier over `[u, v, |u - v|, u ⊙ v]`. Ditto's "domain knowledge
  * injection" optimization is modeled as appended per-attribute similarity
  * features (normalized span matches); the TF-IDF summarization is kept in
  * spirit via the tokenizer's crop.
  */
final class DittoLite(dim: Int, seed: Long)
    extends MLPMatcher("Ditto", hidden = 32, epochs = 120, lr = 1e-2, seed) {
  private val mean = new MeanEmbedding(dim)

  private def serialize(toks: Array[Seq[String]], attrs: Vector[String]): Seq[String] =
    attrs.indices.flatMap(j => if (toks(j).isEmpty) Seq.empty else s"col${attrs(j)}" +: toks(j))

  override def featureDim(batch: PairBatch): Int = 4 * dim + batch.attrs.length

  override def featurize(p: PairData, attrs: Vector[String], out: Array[Double], at: Int): Unit = {
    val u = mean(serialize(p.toks1, attrs))
    val v = mean(serialize(p.toks2, attrs))
    var d = 0
    while (d < dim) {
      out(at + d) = u(d); out(at + dim + d) = v(d)
      out(at + 2 * dim + d) = math.abs(u(d) - v(d)); out(at + 3 * dim + d) = u(d) * v(d)
      d += 1
    }
    var j = 0
    while (j < attrs.length) { // domain-knowledge spans: per-attribute overlap
      out(at + 4 * dim + j) = Sim.jaccard(p.toks1(j), p.toks2(j))
      j += 1
    }
  }
}

/** CorDel-Attention (Wang et al. 2020), reduced: compare-and-contrast the
  * records *before* embedding — i.e. the same shared/unique token split as
  * AdaMEL's contrastive features (which the AdaMEL paper adopts from
  * CorDel) — then classify the concatenated per-feature embeddings with an
  * MLP. Word-level attention within an attribute collapses under hash
  * embeddings (all tokens are exchangeable), so the summed-embedding variant
  * is used. Crucially there is no attribute-level attention and no domain
  * adaptation: CorDelLite is exactly the "features without the AdaMEL
  * mechanism" foil.
  */
final class CorDelLite(seed: Long)
    extends MLPMatcher("CorDel-Attention", hidden = 32, epochs = 120, lr = 1e-2, seed) {
  override def featureDim(batch: PairBatch): Int = batch.numFeatures * batch.dim

  override def featurize(p: PairData, attrs: Vector[String], out: Array[Double], at: Int): Unit =
    System.arraycopy(p.features, 0, out, at, p.features.length)
}

/** [[HashEmbed.embedMean]] at one dimension, except that every empty token
  * set gets the same missing vector instead of a fresh copy. Callers only
  * read the result. */
private final class MeanEmbedding(dim: Int) {
  private val missing = HashEmbed.missingVector(dim)

  def apply(tokens: Seq[String]): Array[Double] =
    if (tokens.isEmpty) missing else HashEmbed.embedMean(tokens, dim)
}
