package repro.er

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.text.HashEmbed

class FeaturePipelineSpec extends SparkSpec {

  private val attrs = Seq("title", "artist")

  private val pairSchema = StructType(Seq(
    StructField("pair_id", LongType), StructField("label", DoubleType),
    StructField("src1", StringType), StructField("src2", StringType),
    StructField("a1", MapType(StringType, StringType)),
    StructField("a2", MapType(StringType, StringType)),
  ))

  private def pairsDF(rows: Seq[(Long, Double, Map[String, String], Map[String, String])]): DataFrame = {
    val rws = rows.map { case (id, l, a1, a2) => Row(id, l, "sA", "sB", a1, a2) }
    spark.createDataFrame(spark.sparkContext.parallelize(rws, 2), pairSchema)
  }

  private val sampleMaps = Seq(
    (Map("title" -> "Hey Jude Remix", "artist" -> "The Beatles"), Map("title" -> "hey jude", "artist" -> "Beatles")),
    (Map("title" -> "Hello", "artist" -> "Adele A"), Map("title" -> "Hello", "artist" -> "Avril W")),
    (Map("title" -> "Yesterday"), Map("artist" -> "Beatles")),
  )

  private val samplePairs = pairsDF(sampleMaps.zip(Seq(1.0, 0.0, -1.0)).zipWithIndex.map {
    case (((a1, a2), label), i) => (i + 1L, label, a1, a2)
  })

  test("sim is the token intersection, uni the symmetric difference (Eq. 2)") {
    val (a1, a2) = sampleMaps.head
    val row = FeaturePipeline.pairRow(a1, a2, attrs, 8)
    val Seq((sim0, uni0), (sim1, uni1)) = attrs.indices.map(i => FeaturePipeline.contrast(row.toks1(i), row.toks2(i)))
    assert(sim0.toSet == Set("hey", "jude") && uni0.toSet == Set("remix"))
    assert(sim1.toSet == Set("beatles") && uni1.toSet == Set("the"))
  }

  test("sim and uni are disjoint and their union is the token union") {
    sampleMaps.foreach { case (a1, a2) =>
      val row = FeaturePipeline.pairRow(a1, a2, attrs, 8)
      attrs.indices.foreach { i =>
        val (t1, t2) = (row.toks1(i).toSet, row.toks2(i).toSet)
        val (sim, uni) = FeaturePipeline.contrast(row.toks1(i), row.toks2(i))
        assert(sim.toSet.intersect(uni.toSet).isEmpty)
        assert(sim.toSet.union(uni.toSet) == t1.union(t2))
        assert(sim.toSet == t1.intersect(t2))
      }
    }
  }

  test("sim keeps t1's order; uni is t1-only then t2-only tokens, which fixes the feature bits") {
    val (sim, uni) = FeaturePipeline.contrast(Seq("c", "a", "b", "d"), Seq("d", "e", "a", "f"))
    assert(sim == Seq("a", "d"))
    assert(uni == Seq("c", "b", "e", "f"))
    val row = FeaturePipeline.pairRow(Map("title" -> "c a b d"), Map("title" -> "d e a f"), Seq("title"), 8)
    assert(row.features.sameElements(HashEmbed.embedSum(sim, 8) ++ HashEmbed.embedSum(uni, 8)))
  }

  test("features vector has length 2|A|*D (F = 2|A|, §4.2)") {
    val batch = FeaturePipeline.collectBatch(samplePairs, attrs, dim = 16)
    assert(batch.numFeatures == 4)
    batch.pairs.foreach(p => assert(p.features.length == 4 * 16))
  }

  test("missing attribute values embed as the fixed missing vector (C1)") {
    val batch = FeaturePipeline.collectBatch(samplePairs, attrs, dim = 8)
    val p3 = batch.pairs(2) // pair 3: title only on side 1, artist only on side 2
    val missing = HashEmbed.missingVector(8)
    // sim(title) is empty -> missing vector (feature 0)
    assert(p3.features.slice(0, 8).sameElements(missing))
    // sim(artist) is empty -> missing vector (feature 2)
    assert(p3.features.slice(16, 24).sameElements(missing))
    // uni(title) is non-empty -> not the missing vector
    assert(!p3.features.slice(8, 16).sameElements(missing))
  }

  test("feature embeddings equal driver-side embedSum of the token sets") {
    val batch = FeaturePipeline.collectBatch(samplePairs, attrs, dim = 8)
    val p1 = batch.pairs(0)
    val simTitle = Seq("hey", "jude") // intersection computed above
    val expected = HashEmbed.embedSum(simTitle, 8)
    val got = p1.features.slice(0, 8)
    assert(got.zip(expected).forall { case (a, b) => math.abs(a - b) < 1e-12 },
      s"got ${got.toSeq} expected ${expected.toSeq}")
  }

  test("collectBatch preserves labels, sources and pair order") {
    val batch = FeaturePipeline.collectBatch(samplePairs, attrs, dim = 4)
    assert(batch.labels.toSeq == Seq(1.0, 0.0, -1.0))
    assert(batch.pairs.forall(p => p.src1 == "sA" && p.src2 == "sB"))
  }

  test("collectBatch orders pairs by pair_id whatever the partition order") {
    // pair ids descend across four partitions; labels and sources follow the id
    val rows = (12L to 1L by -1L).map { id =>
      Row(id, (id % 2).toDouble, s"s$id", "sB", Map("title" -> s"t$id"), Map("title" -> "t"))
    }
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), pairSchema)
    val batch = FeaturePipeline.collectBatch(df, attrs, dim = 4)
    assert(batch.pairs.map(_.src1).toSeq == (1 to 12).map(id => s"s$id"))
    assert(batch.labels.toSeq == (1 to 12).map(id => (id % 2).toDouble))
  }

  test("collectBatch equals the Row-decoded collect, field by field, at 1 and 64 partitions") {
    // The collect as first written: the pipeline's rows decoded as `Row`s.
    // It runs outside every `SmallQueries` scope, so with generated code,
    // while `collectBatch` runs interpreted: this also checks that the two
    // evaluations agree field by field.
    def rowDecoded(df: DataFrame, dim: Int): PairBatch = {
      assert(SmallQueriesSpec.Keys.forall(k => !spark.conf.getAll.contains(k)), "code generation is on")
      val rows = FeaturePipeline.features(df, attrs, dim).collect().sortBy(_.getAs[Long]("pair_id"))
      PairBatch(attrs.toVector, dim, rows.map { r =>
        PairData(
          label = r.getAs[Double]("label"),
          src1 = r.getAs[String]("src1"),
          src2 = r.getAs[String]("src2"),
          toks1 = r.getAs[scala.collection.Seq[scala.collection.Seq[String]]]("toks1").map(_.toSeq).toArray,
          toks2 = r.getAs[scala.collection.Seq[scala.collection.Seq[String]]]("toks2").map(_.toSeq).toArray,
          features = r.getAs[scala.collection.Seq[Double]]("features").toArray,
        )
      })
    }
    val values = Seq("Hey Jude", "hey jude remix", "The Beatles", "Café Müller 2", "", "!!", "u2415 24in hey")
    val rows = (1L to 40L).map { id =>
      def side(k: Long): Map[String, String] = {
        val title = values(((id * k) % values.size).toInt)
        val artist = values(((id + k) % values.size).toInt)
        if (id % 5 == 0) Map("title" -> title) else Map("title" -> title, "artist" -> artist) // artist missing
      }
      Row((id * 7919L) % 101L, (id % 3).toDouble - 1.0, s"s${id % 4}", s"t${id % 3}", side(3), side(11))
    }
    for (partitions <- Seq(1, 64)) {
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, partitions), pairSchema)
      val got = FeaturePipeline.collectBatch(df, attrs, dim = 8)
      val want = rowDecoded(df, dim = 8)
      assert(got.attrs == want.attrs && got.dim == want.dim && got.n == want.n && got.n == 40)
      assert(want.pairs.exists(_.toks2(1).isEmpty), "a pair with a missing attribute")
      got.pairs.zip(want.pairs).zipWithIndex.foreach { case ((g, w), i) =>
        val at = s"pair $i at $partitions partitions"
        assert(java.lang.Double.compare(g.label, w.label) == 0, at)
        assert(g.src1 == w.src1 && g.src2 == w.src2, at)
        assert(g.toks1.toSeq == w.toks1.toSeq && g.toks2.toSeq == w.toks2.toSeq, at)
        assert(java.util.Arrays.equals(g.features, w.features), at)
      }
    }
  }

  test("featureMat stacks per-pair features row-wise") {
    val batch = FeaturePipeline.collectBatch(samplePairs, attrs, dim = 4)
    val m0 = batch.featureMat(0)
    assert(m0.rows == 3 && m0.cols == 4)
    assert((0 until 4).forall(d => m0(1, d) == batch.pairs(1).features(d)))
  }

  test("featureNames follow the paper's <attr>_shared/<attr>_unique naming") {
    val batch = FeaturePipeline.collectBatch(samplePairs, attrs, dim = 4)
    assert(batch.featureNames == Vector("title_shared", "title_unique", "artist_shared", "artist_unique"))
  }

  test("subset/positives/negatives filter correctly") {
    val batch = FeaturePipeline.collectBatch(samplePairs, attrs, dim = 4)
    assert(batch.positives.n == 1 && batch.negatives.n == 1)
    assert(batch.positives.pairs(0).label == 1.0)
  }

  test("tokenization inside Spark matches the driver-side Tokenizer") {
    val want = repro.text.Tokenizer.tokenSet("Hey Jude Remix")
    val (a1, a2) = sampleMaps.head
    assert(FeaturePipeline.pairRow(a1, a2, attrs, 4).toks1.head == want)
    val r = FeaturePipeline.features(samplePairs, attrs, 4).orderBy("pair_id").collect()(0)
    assert(r.getSeq[scala.collection.Seq[String]](r.fieldIndex("toks1")).head == want)
  }

  test("the Spark pipeline returns pairRow's token sets and feature bits") {
    val batch = FeaturePipeline.collectBatch(samplePairs, attrs, dim = 8)
    batch.pairs.zip(sampleMaps).foreach { case (p, (a1, a2)) =>
      val row = FeaturePipeline.pairRow(a1, a2, attrs, 8)
      assert(p.toks1.toSeq == row.toks1 && p.toks2.toSeq == row.toks2)
      assert(p.features.sameElements(row.features))
    }
  }

  test("pipeline feature count stats agree with DuckDB oracle") {
    // Count pairs by label via the pipeline output vs DuckDB on the raw pairs.
    import org.apache.spark.sql.functions._
    val out = FeaturePipeline.features(samplePairs, attrs, 4)
      .groupBy("label").agg(count("*").as("n")).select(col("label").cast("string").as("label"), col("n").cast("string").as("n"))
    val raw = samplePairs.select(col("pair_id").cast("string").as("pair_id"), col("label").cast("string").as("label"))
    repro.Oracle.assertEquivalent(out,
      "SELECT label, CAST(COUNT(*) AS VARCHAR) AS n FROM pairs GROUP BY label",
      "pairs" -> raw)
  }
}
