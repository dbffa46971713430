package repro.bench

import java.lang.management.ManagementFactory

import repro.baselines.DeepMatcherLite
import repro.core.{AdaMEL, AdaMELConfig, Variant}
import repro.data.{MonitorConfig, MonitorGen, Rec}
import repro.er.{FeaturePipeline, PairBatch, PairData}
import repro.eval.Metrics
import repro.linalg.Rng

/** Warm timing of the driver-side training and scoring, without Spark.
  *
  * perfbench times one cold JVM, whose CPU metrics spread ±10 % between
  * runs, mostly JIT and Spark warm-up; a change to `repro.linalg` or
  * `repro.core` is measured here instead. The input is a batch of the
  * `monitor` workload's shape (train 2,000 / target 1,754 / support 100 /
  * test 1,300 pairs, F = 26, D = 32) built from `MonitorGen` records through
  * [[FeaturePipeline.pairRow]]. Each round fits AdaMEL-hyb for 12 epochs and
  * scores the test pairs, then fits DeepMatcher for 4 epochs and scores
  * them, the workload's settings at method seed 1. It prints, per round,
  * the driver thread's CPU time and allocated bytes for each of the three
  * parts and a digest of both methods' scores; the first round is cold and
  * left out of the medians printed last.
  *
  * Run: `SPARK_DRIVER_MEM=2g sbt "bench/Test/runMain repro.bench.FitProbe"`
  * (the forked JVM's heap, as for the tests).
  */
object FitProbe {
  private val Dim = 32
  private val WarmRounds = 6

  def main(args: Array[String]): Unit = {
    val (train, target, support, test) = batches()
    val cfg = AdaMELConfig(variant = Variant.Hyb, epochs = 12, lr = 1e-2, lambda = 0.98, phi = 1.0, seed = 2L)
    val warm = (0 to WarmRounds).map { round =>
      val (fit, model) = measure(AdaMEL.fitted(cfg, train, Some(target), Some(support)))
      val (score, scores) = measure(model.scores(test))
      val (dm, dmScores) = measure {
        val m = new DeepMatcherLite(Dim, cfg.seed, epochs = 4)
        m.fit(train)
        m.scores(test)
      }
      val parts = Seq("adamel.fit" -> fit, "adamel.score" -> score, "deepmatcher" -> dm)
      val name = if (round == 0) "round 0 (cold)" else s"round $round"
      println(f"$name%-14s " +
        parts.map { case (n, (cpu, mb)) => f"$n $cpu%.3f s $mb%.1f MB" }.mkString(" | ") +
        f" | prauc ${Metrics.prauc(scores, test.labels)}%.6f digest ${digest(scores ++ dmScores)}")
      parts
    }.drop(1)
    println(s"median of $WarmRounds warm rounds: " + warm.head.indices.map { k =>
      val cpu = median(warm.map(_(k)._2._1)); val mb = median(warm.map(_(k)._2._2))
      f"${warm.head(k)._1} $cpu%.3f s $mb%.1f MB"
    }.mkString(" | "))
  }

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** `body`'s value and its (driver-thread CPU seconds, allocated MB). */
  private def measure[T](body: => T): ((Double, Double), T) = {
    val c0 = threads.getCurrentThreadCpuTime; val a0 = threads.getCurrentThreadAllocatedBytes
    val r = body
    ((1e-9 * (threads.getCurrentThreadCpuTime - c0), 1e-6 * (threads.getCurrentThreadAllocatedBytes - a0)), r)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The first 16 hex digits of the SHA-256 of the scores' bits. */
  private def digest(xs: Array[Double]): String = {
    val buf = java.nio.ByteBuffer.allocate(8 * xs.length)
    xs.foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x)))
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array).take(8).map(b => f"$b%02x").mkString
  }

  /** Train, target (unlabeled), support and test pairs of `MonitorGen`
    * records: positives are two records of one entity, negatives two of
    * different entities, drawn with a fixed seed. */
  private def batches(): (PairBatch, PairBatch, PairBatch, PairBatch) = {
    val recs = MonitorGen.generate(MonitorConfig(nMonitors = 320, seed = 99L)).toVector
    val byEntity = recs.groupBy(_.entityId).values.filter(_.size > 1).toVector.sortBy(_.head.id)
    val rng = new Rng(23L)
    def pair(label: Double, r1: Rec, r2: Rec): PairData = {
      val row = FeaturePipeline.pairRow(r1.attrs, r2.attrs, MonitorGen.attrs, Dim)
      PairData(label, r1.source, r2.source, row.toks1.toArray, row.toks2.toArray, row.features)
    }
    def positive(label: Double): PairData = {
      val e = rng.pick(byEntity)
      val Seq(i, j) = rng.sampleIndices(e.size, 2).toSeq
      pair(label, e(i), e(j))
    }
    def negative(label: Double): PairData = {
      val r1 = rng.pick(recs)
      var r2 = rng.pick(recs)
      while (r1.entityId == r2.entityId) r2 = rng.pick(recs)
      pair(label, r1, r2)
    }
    def batch(pos: Int, neg: Int, labeled: Boolean): PairBatch = {
      val ps = Array.fill(pos)(positive(if (labeled) 1.0 else -1.0)) ++
        Array.fill(neg)(negative(if (labeled) 0.0 else -1.0))
      PairBatch(MonitorGen.attrs, Dim, ps)
    }
    (batch(100, 1900, labeled = true), batch(88, 1666, labeled = false),
      batch(25, 75, labeled = true), batch(300, 1000, labeled = true))
  }
}
