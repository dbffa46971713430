package repro.er

import org.apache.spark.sql.{functions => F}
import repro.{Codegen, SparkSpec}
import repro.data.{MusicConfig, MusicGen, RecordsDF, ScenarioConfig, Scenarios}

/** `SmallQueries` runs the `er` actions without code generation and leaves
  * the caller's session confs as it found them. */
class SmallQueriesSpec extends SparkSpec {
  import SmallQueriesSpec._

  /** The two keys as the caller's session has them: `None` when unset. */
  private def keys: Seq[Option[String]] = Keys.map(spark.conf.getAll.get)

  /** Runs `body` with `wholeStage` set to `"true"` and `factoryMode` unset, as
    * a caller might have them, and puts both back to their state before. */
  private def withCallerConfs(body: => Unit): Unit = {
    val before = keys
    spark.conf.set(WholeStage, "true")
    spark.conf.unset(FactoryMode)
    try body
    finally Keys.zip(before).foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None) => spark.conf.unset(k)
    }
  }

  test("inside a scope both keys select interpreted evaluation") {
    withCallerConfs {
      SmallQueries(spark)(assert(keys == Seq(Some("false"), Some("NO_CODEGEN"))))
    }
  }

  test("after a normal body, each key returns to its value or to unset") {
    withCallerConfs {
      assert(SmallQueries(spark)(42) == 42)
      assert(keys == Seq(Some("true"), None))
    }
  }

  test("after a throwing body, each key returns to its value or to unset") {
    withCallerConfs {
      val e = intercept[IllegalStateException](SmallQueries(spark)(throw new IllegalStateException("body")))
      assert(e.getMessage == "body")
      assert(keys == Seq(Some("true"), None))
    }
  }

  test("a nested scope restores the outer scope's values, the outer one the caller's") {
    withCallerConfs {
      SmallQueries(spark) {
        SmallQueries(spark)(assert(keys == Seq(Some("false"), Some("NO_CODEGEN"))))
        assert(keys == Seq(Some("false"), Some("NO_CODEGEN")))
      }
      assert(keys == Seq(Some("true"), None))
    }
  }

  test("the caller's session confs are unchanged after every er call") {
    val records = RecordsDF.toDF(spark, MusicGen.generate(MusicConfig(nArtists = 30, seed = 11)))
      .where(F.col("etype") === "artist")
    val cfg = ScenarioConfig(nTrainPos = 10, nTrainNeg = 20, nSupport = 10, nTestPos = 10, nTestNeg = 20,
      nTargetExtra = 10, seed = 3)
    withCallerConfs {
      val before = spark.conf.getAll
      def unchanged[T](call: String)(body: => T): T = {
        val out = body
        assert(spark.conf.getAll == before, s"after $call")
        out
      }
      unchanged("Blocking.candidates")(Blocking.candidates(records, "name"))
      unchanged("Scenarios.buildSplit")(Scenarios.buildSplit(records, records, MusicGen.seenSources, cfg))
      unchanged("Scenarios.buildSingleDomain")(Scenarios.buildSingleDomain(records, cfg))
      val s = unchanged("Scenarios.build")(Scenarios.build(records, MusicGen.seenSources, cfg))
      unchanged("FeaturePipeline.collectBatch")(FeaturePipeline.collectBatch(s.test, MusicGen.attrs, 8))
    }
  }

  test("a scenario's pools, samples and batches compile only the sample orderings") {
    // Fresh seeds: the sample and derangement seeds are literals in the
    // generated code, so no class of an earlier test can be reused.
    val records = RecordsDF.toDF(spark, MusicGen.generate(MusicConfig(nArtists = 40, seed = 61)))
      .where(F.col("etype") === "artist")
    val cfg = ScenarioConfig(nTrainPos = 20, nTrainNeg = 40, nSupport = 10, nTestPos = 20, nTestNeg = 30,
      nTargetExtra = 20, seed = 71)
    val n = Codegen.compilations {
      val s = Scenarios.build(records, MusicGen.seenSources, cfg)
      Seq(s.train, s.support, s.target, s.test).foreach(FeaturePipeline.collectBatch(_, MusicGen.attrs, 8))
    }
    assert(n <= SampleOrderings, s"$n classes compiled")

    // The control: the same kind of query outside a scope is compiled.
    val control = Codegen.compilations {
      records.select(F.xxhash64(F.col("id"), F.lit(ControlSeed)).as("h")).where(F.col("h") > 0).collect()
    }
    assert(control > 0, "a query outside the scope compiled no class")
  }
}

object SmallQueriesSpec {
  val WholeStage = "spark.sql.codegen.wholeStage"
  val FactoryMode = "spark.sql.codegen.factoryMode"
  val Keys: Seq[String] = Seq(WholeStage, FactoryMode)

  /** A seed no other test uses, so the control query's code is new. */
  val ControlSeed = 902_117L

  /** The classes a `Scenarios.build` and its four batches may compile:
    * `Pairing.sample`'s `TakeOrderedAndProject` orders rows with a generated
    * ordering, which Spark compiles whatever the factory mode (it has no
    * interpreted fallback). Each sample's seed is a literal in that code, so
    * no two samples share a class, and each of `build`'s eight samples
    * compiled two in every measured run: 16. With code generation the
    * scenario also compiles its whole-stage iterators, projections, other
    * orderings and predicates (154 classes on a cold Monitor run). */
  val SampleOrderings = 16
}
