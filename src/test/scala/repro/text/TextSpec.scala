package repro.text

import org.scalatest.funsuite.AnyFunSuite
import repro.Alloc
import repro.linalg.Rng

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
  import HashEmbedSpec._

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

  test("embed, embedSum, embedMean and missingVector keep the bits of the Array.tabulate formula") {
    val rng = new Rng(29)
    val chars = "abcxyz0189éüß"
    def token(): String = Seq.fill(1 + rng.nextInt(10))(chars(rng.nextInt(chars.length))).mkString
    for (dim <- Seq(1, 4, 32, 300)) {
      val sets = Seq.empty[String] +: Seq.fill(40)(Seq.fill(1 + rng.nextInt(25))(token()).distinct)
      assert(bits(HashEmbed.missingVector(dim)) == bits(Reference.missingVector(dim)), s"missingVector, D = $dim")
      for (set <- sets) {
        set.foreach(t => assert(bits(HashEmbed.embed(t, dim)) == bits(Reference.embed(t, dim)), s"embed($t), D = $dim"))
        assert(bits(HashEmbed.embedSum(set, dim)) == bits(Reference.embedSum(set, dim)), s"embedSum($set), D = $dim")
        assert(bits(HashEmbed.embedMean(set, dim)) == bits(Reference.embedMean(set, dim)), s"embedMean($set), D = $dim")
      }
    }
  }

  test("a warm embedSum of 20 tokens at D = 32 allocates under 1 KB") {
    val tokens = Tokenizer.tokenSet((1 to 20).map(i => s"tok$i").mkString(" "))
    assert(tokens.size == 20)
    var sink = 0.0
    for (_ <- 0 until 20000) sink += HashEmbed.embedSum(tokens, 32)(0)
    val calls = 1000
    val bytes = Alloc.bytes { for (_ <- 0 until calls) sink += HashEmbed.embedSum(tokens, 32)(0) }
    assert(bytes / calls < 1024, s"${bytes / calls} bytes per call (sink $sink)")
  }
}

object HashEmbedSpec {
  def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** The embedding formula as first written, one `Array.tabulate` vector
    * per token: the reference `HashEmbed`'s loops must match bit for bit. */
  object Reference {
    private def mix64(z0: Long): Long = {
      var z = z0 + 0x9E3779B97F4A7C15L
      z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
      z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
      z ^ (z >>> 31)
    }

    private def tokenHash(token: String): Long = token.foldLeft(1125899906842597L)((h, c) => 31 * h + c)

    def embed(token: String, dim: Int): Array[Double] = {
      val base = tokenHash(token)
      val inv = 1.0 / math.sqrt(dim.toDouble)
      Array.tabulate(dim) { d =>
        if ((mix64(base ^ (d.toLong * 0x9E3779B97F4A7C15L)) & 1L) == 0L) inv else -inv
      }
    }

    def missingVector(dim: Int): Array[Double] = Array.fill(dim)(1.0 / math.sqrt(dim.toDouble))

    def embedSum(tokens: Seq[String], dim: Int): Array[Double] =
      if (tokens.isEmpty) missingVector(dim)
      else {
        val acc = new Array[Double](dim)
        tokens.foreach { t => val e = embed(t, dim); for (i <- 0 until dim) acc(i) += e(i) }
        acc
      }

    def embedMean(tokens: Seq[String], dim: Int): Array[Double] =
      if (tokens.isEmpty) missingVector(dim)
      else { val s = embedSum(tokens, dim); val inv = 1.0 / tokens.size; s.map(_ * inv) }
  }
}
