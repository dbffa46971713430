package repro.text

import org.scalatest.funsuite.AnyFunSuite

class TokenizerSpec extends AnyFunSuite {

  test("lowercases and splits on non-alphanumerics") {
    assert(Tokenizer.tokens("Hey Jude, The-Beatles!") == Seq("hey", "jude", "the", "beatles"))
  }

  test("null and empty yield no tokens") {
    assert(Tokenizer.tokens(null).isEmpty)
    assert(Tokenizer.tokens("").isEmpty)
  }

  test("whitespace-only yields no tokens") {
    assert(Tokenizer.tokens("   \t ").isEmpty)
  }

  test("digits are kept as tokens") {
    assert(Tokenizer.tokens("u2415 24in") == Seq("u2415", "24in"))
  }

  test("crops to CropSize tokens") {
    val long = (1 to 50).map(i => s"w$i").mkString(" ")
    assert(Tokenizer.tokens(long).size == Tokenizer.CropSize)
  }

  test("tokenSet deduplicates preserving first appearance") {
    assert(Tokenizer.tokenSet("a b a c b") == Seq("a", "b", "c"))
  }

  test("unicode letters survive tokenization") {
    assert(Tokenizer.tokens("Café Müller") == Seq("café", "müller"))
  }

  test("punctuation-only input yields nothing") {
    assert(Tokenizer.tokens("!!! -- ??") == Seq.empty)
  }
}

class HashEmbedSpec extends AnyFunSuite {

  test("same token always embeds identically") {
    assert(HashEmbed.embed("beatles").sameElements(HashEmbed.embed("beatles")))
  }

  test("different tokens embed differently") {
    assert(!HashEmbed.embed("beatles").sameElements(HashEmbed.embed("stones")))
  }

  test("embedding entries are +-1/sqrt(D)") {
    val d = 32
    val inv = 1.0 / math.sqrt(d.toDouble)
    assert(HashEmbed.embed("abc", d).forall(x => math.abs(math.abs(x) - inv) < 1e-12))
  }

  test("embedding has unit L2 norm") {
    val e = HashEmbed.embed("anything", 64)
    assert(math.abs(math.sqrt(e.map(x => x * x).sum) - 1.0) < 1e-9)
  }

  test("missing vector is fixed, normalized and non-zero (paper §4.3)") {
    val m = HashEmbed.missingVector(32)
    assert(m.forall(_ > 0))
    assert(math.abs(math.sqrt(m.map(x => x * x).sum) - 1.0) < 1e-9)
    assert(m.sameElements(HashEmbed.missingVector(32)))
  }

  test("embedSum of empty tokens is the missing vector") {
    assert(HashEmbed.embedSum(Seq.empty).sameElements(HashEmbed.missingVector()))
  }

  test("embedSum is the sum of individual embeddings") {
    val s = HashEmbed.embedSum(Seq("a", "b"))
    val manual = HashEmbed.embed("a").zip(HashEmbed.embed("b")).map { case (x, y) => x + y }
    assert(s.zip(manual).forall { case (x, y) => math.abs(x - y) < 1e-12 })
  }

  test("embedSum is order invariant") {
    assert(HashEmbed.embedSum(Seq("a", "b", "c")).sameElements(HashEmbed.embedSum(Seq("c", "a", "b"))))
  }

  test("embedMean halves a two-token sum") {
    val s = HashEmbed.embedSum(Seq("a", "b"))
    val m = HashEmbed.embedMean(Seq("a", "b"))
    assert(s.zip(m).forall { case (x, y) => math.abs(x - 2 * y) < 1e-12 })
  }

  test("distinct tokens are near-orthogonal on average") {
    val rng = new repro.linalg.Rng(13)
    val words = (0 until 200).map(_ => repro.data.Vocab.word(rng)).distinct
    // Embeddings are unit-norm, so the dot product is the cosine.
    val cosines = words.sliding(2).collect { case Seq(a, b) =>
      math.abs(HashEmbed.embed(a).zip(HashEmbed.embed(b)).map { case (x, y) => x * y }.sum)
    }.toSeq
    assert(cosines.sum / cosines.size < 0.25, "mean |cos| too high for hash embeddings")
  }
}
