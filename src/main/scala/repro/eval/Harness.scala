package repro.eval

import org.apache.spark.sql.DataFrame
import repro.baselines._
import repro.core.{AdaMEL, AdaMELConfig, Variant}
import repro.er.{FeaturePipeline, PairBatch}

/** A fully materialized MEL experiment: the four batches every method/variant
  * may consume (paper §3.2 / Table 3).
  *
  * @param train   labeled source-domain pairs D_S
  * @param support labeled support set S_U (from the target sources)
  * @param target  unlabeled target-domain pairs D_T (labels stripped)
  * @param test    labeled evaluation pairs drawn from the target domain
  */
final case class MELData(name: String, attrs: Vector[String], dim: Int,
                         train: PairBatch, support: PairBatch,
                         target: PairBatch, test: PairBatch)

object MELData {
  /** Collects the four pair DataFrames through the Spark feature pipeline. */
  def collect(name: String, attrs: Seq[String], dim: Int,
              train: DataFrame, support: DataFrame,
              target: DataFrame, test: DataFrame): MELData =
    MELData(name, attrs.toVector, dim,
      FeaturePipeline.collectBatch(train, attrs, dim),
      FeaturePipeline.collectBatch(support, attrs, dim),
      FeaturePipeline.collectBatch(target, attrs, dim),
      FeaturePipeline.collectBatch(test, attrs, dim))
}

/** One runnable method (a baseline or an AdaMEL variant). */
trait MethodRunner {
  def name: String
  /** Train on whatever the method is allowed to see, score the test set. */
  def run(data: MELData): Array[Double]
}

object MethodRunner {
  /** The nine methods of Tables 8-9, in the paper's row order. */
  def all(dim: Int, seed: Long, cfg: AdaMELConfig = AdaMELConfig()): Seq[MethodRunner] =
    Seq(
      baseline(new TLER(seed)),
      baseline(new DeepMatcherLite(dim, seed)),
      baseline(new EntityMatcherLite(seed)),
      baseline(new DittoLite(dim, seed)),
      baseline(new CorDelLite(seed)),
    ) ++ Variant.all.map(v => adamel(cfg.copy(variant = v, seed = seed)))

  def baseline(m: Matcher): MethodRunner = new MethodRunner {
    val name: String = m.name
    def run(data: MELData): Array[Double] = { m.fit(data.train); m.scores(data.test) }
  }

  def adamel(cfg: AdaMELConfig): MethodRunner = new MethodRunner {
    val name: String = cfg.variant.name
    def run(data: MELData): Array[Double] =
      AdaMEL.fitted(cfg, data.train, Some(data.target), Some(data.support)).scores(data.test)
  }
}

/** Repeats a method over seeds and reports the metric mean/std — the
  * paper's "3 runs, mean ± std" protocol (§5.1). */
object Harness {
  final case class Result(method: String, runs: Seq[Double]) {
    def mean: Double = Metrics.meanStd(runs)._1
    def std: Double = Metrics.meanStd(runs)._2
    def fmt: String = Metrics.fmtMeanStd(runs)
  }

  def evalPRAUC(data: MELData, makeRunner: Long => MethodRunner,
                seeds: Seq[Long] = Seq(1L, 2L, 3L)): Result = {
    val runs = seeds.map { s =>
      val r = makeRunner(s)
      Metrics.prauc(r.run(data), data.test.labels)
    }
    Result(makeRunner(seeds.head).name, runs)
  }
}
