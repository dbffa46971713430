package repro.perfbench

import java.security.MessageDigest

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.DeepMatcherLite
import repro.core.AdaMEL
import repro.data.RecordsDF
import repro.er.{Batching, FeaturePipeline, PairBatch}
import repro.eval.{MELData, Metrics}
import repro.linalg.Rng

final case class MethodOut(name: String, prauc: Double, scoresDigest: String, failure: Option[String])

/** One iteration's figures and outputs. `wallS`, `cpuS`, `erS` and `erCpuS`
  * exclude the untimed output checks; the CPU times are the whole JVM's. */
final case class IterOut(traced: Boolean, wallS: Double, cpuS: Double, erS: Double, erCpuS: Double,
                         records: Long, sizes: Seq[Int],
                         coreSteps: Long, baselineSteps: Long, allocBytes: Long, params: Long,
                         batchDigests: Seq[String], methods: Seq[MethodOut], failures: Seq[String],
                         spans: Seq[Span], traceOverheadS: Double) {
  def pairs: Long = sizes.map(_.toLong).sum
  def steps: Long = coreSteps + baselineSteps
  private def fits = spans.filter(s => s.name == "core.fit" || s.name == "baselines.fit")
  def fitS: Double = fits.map(_.seconds).sum
  /** CPU time of the driver thread, which runs the fits. */
  def fitCpuS: Double = fits.map(_.threadCpuNs / 1e9).sum
  def attempted: Int = methods.size
  def failed: Int = if (failures.nonEmpty) methods.size else methods.count(_.failure.nonEmpty)
  def allFailures: Seq[String] = failures ++ methods.flatMap(_.failure)

  /** What must be identical across iterations and runs of one seed. */
  def fingerprint: Seq[(String, String)] =
    Iteration.Splits.zip(batchDigests).map { case (k, d) => s"batch.$k" -> d } ++
      methods.map(m => s"scores.${m.name}" -> m.scoresDigest) ++
      methods.map(m => s"prauc.${m.name}" -> f"${m.prauc}%.9f")
}

object Iteration {
  val Splits: Seq[String] = Seq("train", "support", "target", "test")
  val Methods: Seq[String] = Seq("AdaMEL-hyb", "DeepMatcher")
}

/** Runs one closed-loop iteration of a workload: records -> four
  * `PairBatch`es -> AdaMEL-hyb and DeepMatcher fitted and scored -> PRAUC,
  * one step after the other. Output checks run untimed. */
final class Iteration(spark: SparkSession, w: Workload) {
  import Workloads.Dim

  private var untimedNs, untimedCpuNs = 0L

  private def untimed[T](body: => T): T = {
    val c0 = Jvm.cpuNanos()
    val t0 = System.nanoTime()
    try body
    finally {
      untimedNs += System.nanoTime() - t0
      untimedCpuNs += Jvm.cpuNanos() - c0
    }
  }

  def run(tr: Tracer): IterOut = {
    tr.clear()
    untimedNs = 0L
    untimedCpuNs = 0L
    val failures = Seq.newBuilder[String]
    def check(ok: Boolean, what: => String): Unit = if (!ok) failures += what
    var records, erNs, erCpuNs, coreSteps, baselineSteps, params = 0L
    var batches = Seq.empty[PairBatch]
    var digests = Seq.empty[String]
    var methods = Iteration.Methods.map(MethodOut(_, Double.NaN, "", Some("not run")))
    val a0 = tr.allocated()
    val c0 = Jvm.cpuNanos()
    val t0 = System.nanoTime()
    tr.span("iteration") {
      try {
        val (generated, recs) = tr.span("data.generate") {
          val rs = w.generate()
          (rs.size, RecordsDF.toDF(spark, rs).cache())
        }
        records = generated
        val e0 = System.nanoTime()
        val ec0 = Jvm.cpuNanos()
        val data =
          try {
            if (tr.traced) tracedBatches(recs, tr, check)
            else {
              val s = tr.span("er.pairs")(w.split(recs))
              tr.span("er.features")(MELData.collect(w.name, w.attrs, Dim, s.train, s.support, s.target, s.test))
            }
          } finally recs.unpersist()
        erNs = System.nanoTime() - e0 - untimedNs
        erCpuNs = Jvm.cpuNanos() - ec0 - untimedCpuNs
        batches = Seq(data.train, data.support, data.target, data.test)
        digests = untimed {
          Checks.batches(w, data).foreach(check(false, _))
          batches.map(Checks.digest)
        }

        methods = Seq(
          method(data, "AdaMEL-hyb", tr) {
            val cfg = w.adamel
            val model = tr.span("core.fit")(AdaMEL.fitted(cfg, data.train, Some(data.target), Some(data.support)))
            // balanced batches per epoch, plus the one support step of AdaMEL-hyb
            coreSteps = cfg.epochs.toLong * (batchCount(data.train, cfg.batchSize) + 1)
            params = model.parameterCount
            tr.span("core.score")(model.scores(data.test))
          },
          method(data, "DeepMatcher", tr) {
            val dm = new DeepMatcherLite(Dim, w.adamel.seed, epochs = w.deepMatcherEpochs)
            tr.span("baselines.fit")(dm.fit(data.train))
            baselineSteps = w.deepMatcherEpochs.toLong * batchCount(data.train, 16)
            tr.span("baselines.score")(dm.scores(data.test))
          })
      } catch {
        case e: Exception => failures += s"${e.getClass.getSimpleName}: ${e.getMessage}"
      }
    }
    val wall = System.nanoTime() - t0 - untimedNs
    val cpu = Jvm.cpuNanos() - c0 - untimedCpuNs
    IterOut(tr.traced, wall / 1e9, cpu / 1e9, erNs / 1e9, erCpuNs / 1e9, records, batches.map(_.n), coreSteps, baselineSteps,
      tr.allocated() - a0, params, digests, methods, failures.result(), tr.all, tr.overheadSeconds)
  }

  /** Traced variant of `MELData.collect`: each split is persisted and
    * counted inside `er.pairs`, so `er.features` measures only the feature
    * dataflow and collect. Checks test ∩ support = ∅ untimed. */
  private def tracedBatches(records: DataFrame, tr: Tracer, check: (Boolean, => String) => Unit): MELData = {
    val parts = tr.span("er.pairs") {
      val s = w.split(records)
      val ps = Seq(s.train, s.support, s.target, s.test).map(_.persist())
      ps.foreach(_.count())
      ps
    }
    try {
      untimed {
        val overlap = parts(3).select("id1", "id2").intersect(parts(1).select("id1", "id2")).count()
        check(overlap == 0L, s"test and support share $overlap (id1, id2) pairs")
      }
      val Seq(train, support, target, test) =
        tr.span("er.features")(parts.map(FeaturePipeline.collectBatch(_, w.attrs, Dim)))
      MELData(w.name, w.attrs, Dim, train, support, target, test)
    } finally parts.foreach(_.unpersist())
  }

  private def batchCount(b: PairBatch, batchSize: Int): Int =
    Batching.balancedBatches(b.labels, batchSize, new Rng(1L)).size

  private def method(data: MELData, name: String, tr: Tracer)(scores: => Array[Double]): MethodOut =
    try {
      val s = scores
      val prauc = tr.span("eval.metric")(Metrics.prauc(s, data.test.labels))
      val chance = data.test.labels.count(_ == 1.0).toDouble / data.test.n
      val problem = untimed(Checks.scores(s, data.test.n, prauc, chance))
      MethodOut(name, prauc, untimed(Checks.digest(s)), problem.map(p => s"$name: $p"))
    } catch {
      case e: Exception => MethodOut(name, Double.NaN, "", Some(s"$name: ${e.getClass.getSimpleName}: ${e.getMessage}"))
    }
}

/** Output checks; each returns what is wrong, if anything. */
object Checks {
  def batches(w: Workload, d: MELData): Seq[String] = {
    val named = Iteration.Splits.zip(Seq(d.train, d.support, d.target, d.test))
    val f = 2 * w.attrs.size
    val sizes = named.map(_._2.n)
    val sc = w.scenario
    val half = sc.nSupport / 2
    val out = Seq.newBuilder[String]
    if (sizes != w.expectedSizes) out += s"split sizes $sizes, expected ${w.expectedSizes}"
    // The sizes and positives the scenario's configuration asks for.
    def positives(b: PairBatch) = b.labels.count(_ == 1.0)
    if (positives(d.train) != sc.nTrainPos || d.train.n != sc.nTrainPos + sc.nTrainNeg)
      out += s"train has ${positives(d.train)} of ${d.train.n} positive, expected ${sc.nTrainPos} of ${sc.nTrainPos + sc.nTrainNeg}"
    if (positives(d.test) != sc.nTestPos || d.test.n != sc.nTestPos + sc.nTestNeg)
      out += s"test has ${positives(d.test)} of ${d.test.n} positive, expected ${sc.nTestPos} of ${sc.nTestPos + sc.nTestNeg}"
    if (d.target.n < d.test.n || d.target.n > d.test.n + sc.nTargetExtra + sc.nTargetExtra / 4)
      out += s"target has ${d.target.n} pairs, expected test's ${d.test.n} plus at most ${sc.nTargetExtra + sc.nTargetExtra / 4}"
    named.foreach { case (k, b) =>
      if (b.numFeatures != f) out += s"$k has F=${b.numFeatures}, expected 2|A| = $f"
      val bad = b.pairs.count(p => p.features.length != f * Workloads.Dim || !p.features.forall(java.lang.Double.isFinite))
      if (bad > 0) out += s"$k: $bad pairs without F*D finite features"
      val labels = b.labels.distinct.sorted.toSeq
      val allowed = if (k == "target") Seq(-1.0) else Seq(0.0, 1.0)
      if (labels != allowed) out += s"$k labels {${labels.mkString(",")}}, expected {${allowed.mkString(",")}}"
    }
    val pos = d.support.labels.count(_ == 1.0)
    val neg = d.support.labels.count(_ == 0.0)
    if (pos != half || neg != half) out += s"support has $pos positive + $neg negative, expected $half + $half"
    out.result()
  }

  /** @param chance the test split's positive share: the PRAUC of random scores */
  def scores(s: Array[Double], n: Int, prauc: Double, chance: Double): Option[String] =
    if (s.length != n) Some(s"${s.length} scores for $n test pairs")
    else if (!s.forall(x => x >= 0.0 && x <= 1.0)) Some("scores not finite in [0,1]")
    else if (!(prauc > chance && prauc <= 1.0)) Some(s"PRAUC $prauc not in ($chance, 1], no better than chance")
    else None

  def digest(b: PairBatch): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def str(s: String): Unit = { md.update(s.getBytes("UTF-8")); md.update(0.toByte) }
    b.attrs.foreach(str)
    b.pairs.foreach { p =>
      str(p.label.toString); str(p.src1); str(p.src2)
      (p.toks1 ++ p.toks2).foreach(ts => str(ts.mkString(" ")))
      md.update(bytes(p.features))
    }
    hex(md.digest())
  }

  def digest(s: Array[Double]): String = hex(MessageDigest.getInstance("SHA-256").digest(bytes(s)))

  private def bytes(xs: Array[Double]): Array[Byte] = {
    val buf = java.nio.ByteBuffer.allocate(8 * xs.length)
    xs.foreach(buf.putDouble)
    buf.array()
  }

  private def hex(bytes: Array[Byte]): String = bytes.take(8).map(b => f"${b & 0xff}%02x").mkString
}
