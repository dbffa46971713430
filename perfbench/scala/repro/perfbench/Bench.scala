package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession

/** Benchmark process: one SparkSession, then one workload iteration in the
  * fresh JVM — what a job that runs one scenario pays, JIT and Spark code
  * generation included.
  *
  * {{{
  *   Bench --workload <name> --seed <n> --trace <0|1> [--paper] --dir <scratch directory>
  *   Bench --setup-only --dir <scratch directory>
  * }}}
  *
  * Prints `READY <the JVM's CPU time so far, in ns>` once Spark is up, and
  * `RESULT <json>` at the end; with
  * `--setup-only` it stops Spark and exits once it is up. Untraced, the
  * result holds the end-to-end metrics of that first iteration. Traced, a
  * second, traced iteration follows; the result holds the per-layer metrics
  * and the spans.
  */
object Bench {
  def main(args: Array[String]): Unit = {
    val flags = Set("--paper", "--setup-only")
    val paper = args.contains("--paper")
    val opts = args.filterNot(flags).grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val spark = session(opts("dir"))
    try {
      println(s"READY ${Jvm.cpuNanos()}")
      Console.out.flush()
      if (!args.contains("--setup-only")) {
        val workload = Workloads(opts("workload"), if (paper) 0L else opts("seed").toLong, paper)
        val iteration = new Iteration(spark, workload)
        val first = iteration.run(new Tracer(spark.sparkContext, traced = false))
        val traced = if (opts("trace") == "1") Some(iteration.run(new Tracer(spark.sparkContext, traced = true))) else None
        println(s"RESULT ${Report(workload, first, traced, env(spark, paper))}")
      }
    } finally spark.stop()
  }

  /** The test suite's `SparkSpec` session (same master, shuffle partitions
    * and environment overrides), with the UI off and Spark's files kept in `dir`. */
  private def session(dir: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$dir/spark-local")
      .config("spark.sql.warehouse.dir", s"$dir/spark-warehouse")
      .getOrCreate()

  private def env(spark: SparkSession, paper: Boolean): String = {
    val sc = spark.sparkContext
    Json.obj(
      "spark_master" -> Json.str(sc.master),
      "spark_threads" -> sc.defaultParallelism.toString,
      "spark_shuffle_partitions" -> Json.str(spark.conf.get("spark.sql.shuffle.partitions")),
      "spark_version" -> Json.str(spark.version),
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "jvm_args" -> Json.str(ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.mkString(" ")),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "profile" -> Json.str(if (paper) "paper" else "bench"))
  }
}

/** Builds the `RESULT` object from a JVM's iterations. */
object Report {
  private def metric(value: Double, unit: String): String =
    Json.obj("value" -> Json.num(value), "unit" -> Json.str(unit))

  private def fingerprint(i: IterOut): String =
    Json.obj(i.fingerprint.map { case (k, v) => k -> Json.str(v) }: _*)

  /** @param first  the first iteration in the JVM
    * @param traced the traced run's second, traced iteration */
  def apply(w: Workload, first: IterOut, traced: Option[IterOut], env: String): String = {
    val all = first +: traced.toSeq
    val prauc = first.methods.map(m => m.name -> m.prauc).toMap
    val failures = (all.flatMap(_.allFailures) ++
      traced.toSeq.flatMap(_.fingerprint).filterNot(first.fingerprint.contains).map(kv => s"${kv._1} differs from the first iteration") ++
      w.expectedQuality.collect { case (m, q) if !(math.abs(prauc.getOrElse(m, Double.NaN) - q) <= 5e-7) =>
        s"$m PRAUC ${prauc.get(m)}, expected $q" }).distinct

    // Times are CPU times: they hold still while other tenants take the CPUs,
    // which wall times (in "wall") do not.
    val endToEnd = Seq(
      "scenario_cpu_s" -> metric(first.cpuS, "s"),
      "pairs_per_cpu_s" -> metric(first.pairs / first.erCpuS, "1/s"),
      "fit_steps_per_cpu_s" -> metric(first.steps / first.fitCpuS, "1/s"),
      "driver_alloc_gb" -> metric(first.allocBytes / 1e9, "GB"),
      "prauc.adamel-hyb" -> metric(prauc("AdaMEL-hyb"), "score"),
      "prauc.deepmatcher" -> metric(prauc("DeepMatcher"), "score"))

    Json.obj(
      "workload" -> Json.str(w.name),
      "correct" -> failures.isEmpty.toString,
      "attempted" -> all.map(_.attempted).sum.toString,
      "failed" -> all.map(_.failed).sum.toString,
      "failures" -> Json.arr(failures.map(Json.str)),
      "metrics" -> Json.obj(traced.fold(endToEnd)(layers(first, _)): _*),
      "wall" -> Json.obj(
        "scenario_s" -> metric(first.wallS, "s"),
        "pairs_per_s" -> metric(first.pairs / first.erS, "1/s"),
        "fit_steps_per_s" -> metric(first.steps / first.fitS, "1/s")),
      "fingerprint" -> fingerprint(first),
      "split_sizes" -> Json.arr(first.sizes.map(_.toString)),
      "iterations" -> Json.arr(all.map(i => Json.obj(
        "traced" -> i.traced.toString, "wall_s" -> Json.num(i.wallS), "cpu_s" -> Json.num(i.cpuS),
        "er_s" -> Json.num(i.erS), "er_cpu_s" -> Json.num(i.erCpuS), "fit_s" -> Json.num(i.fitS),
        "fit_cpu_s" -> Json.num(i.fitCpuS), "pairs" -> i.pairs.toString, "steps" -> i.steps.toString,
        "alloc_bytes" -> i.allocBytes.toString, "trace_overhead_s" -> Json.num(i.traceOverheadS)))),
      "spans" -> Json.arr(traced.toSeq.flatMap(_.spans).map(s => Json.obj(
        "id" -> s.id.toString, "parent" -> s.parent.toString, "name" -> Json.str(s.name),
        "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString, "cpu_ns" -> s.cpuNs.toString,
        "thread_cpu_ns" -> s.threadCpuNs.toString,
        "alloc_bytes" -> s.allocBytes.toString, "gc_ms" -> s.gcMs.toString,
        "stages" -> s.spark.stages.toString, "tasks" -> s.spark.tasks.toString,
        "task_ns" -> s.spark.taskNanos.toString, "shuffle_bytes" -> s.spark.shuffleBytes.toString,
        "result_bytes" -> s.spark.resultBytes.toString))),
      "env" -> env)
  }

  /** Per-layer metrics: each layer's spans in the traced iteration, summed. */
  private def layers(first: IterOut, traced: IterOut): Seq[(String, String)] = {
    def per(f: IterOut => Double): Double = f(traced)
    def spans(i: IterOut, name: String) = i.spans.filter(_.name == name)
    def sum(name: String)(f: Span => Double)(i: IterOut) = spans(i, name).map(f).sum
    def secs(name: String)(i: IterOut) = sum(name)(_.seconds)(i)
    def er(i: IterOut) = spans(i, "er.pairs") ++ spans(i, "er.features")
    val mb = 1e6
    def spark(layer: String) = Seq(
      s"$layer.stages" -> metric(per(sum(layer)(_.spark.stages.toDouble)), "count"),
      s"$layer.tasks" -> metric(per(sum(layer)(_.spark.tasks.toDouble)), "count"),
      s"$layer.task_s" -> metric(per(sum(layer)(_.spark.taskNanos / 1e9)), "s"))
    Seq(
      "data.generate_s" -> metric(per(secs("data.generate")), "s"),
      "data.records" -> metric(per(_.records.toDouble), "count"),
      "er.pairs_s" -> metric(per(secs("er.pairs")), "s")) ++ spark("er.pairs") ++ Seq(
      "er.pairs.shuffle_mb" -> metric(per(sum("er.pairs")(_.spark.shuffleBytes / mb)), "MB"),
      "er.features_s" -> metric(per(secs("er.features")), "s")) ++ spark("er.features") ++ Seq(
      "er.features.result_mb" -> metric(per(sum("er.features")(_.spark.resultBytes / mb)), "MB"),
      "er.features.driver_alloc_mb" -> metric(per(sum("er.features")(_.allocBytes / mb)), "MB"),
      "er.parallelism" -> metric(per(i => er(i).map(_.spark.taskNanos / 1e9).sum / er(i).map(_.seconds).sum), "ratio"),
      "core.fit_s" -> metric(per(secs("core.fit")), "s"),
      "core.fit.steps" -> metric(per(_.coreSteps.toDouble), "count"),
      "core.fit.steps_per_s" -> metric(per(i => i.coreSteps / secs("core.fit")(i)), "1/s"),
      "core.fit.driver_alloc_mb" -> metric(per(sum("core.fit")(_.allocBytes / mb)), "MB"),
      "core.fit.gc_s" -> metric(per(sum("core.fit")(_.gcMs / 1e3)), "s"),
      "core.params" -> metric(per(_.params.toDouble), "count"),
      "core.score_s" -> metric(per(secs("core.score")), "s"),
      "baselines.fit_s" -> metric(per(secs("baselines.fit")), "s"),
      "baselines.fit.steps_per_s" -> metric(per(i => i.baselineSteps / secs("baselines.fit")(i)), "1/s"),
      "baselines.fit.driver_alloc_mb" -> metric(per(sum("baselines.fit")(_.allocBytes / mb)), "MB"),
      "baselines.score_s" -> metric(per(secs("baselines.score")), "s"),
      "eval.metric_s" -> metric(per(secs("eval.metric")), "s"),
      "trace.er_share" -> metric(per(i => er(i).map(_.seconds).sum / i.wallS), "ratio"),
      "trace.core_share" -> metric(per(i => (secs("core.fit")(i) + secs("core.score")(i)) / i.wallS), "ratio"),
      "trace.overhead_s" -> metric(traced.traceOverheadS, "s"),
      "iteration.cold_s" -> metric(first.wallS, "s"),
      "iteration.warm_s" -> metric(traced.wallS - traced.traceOverheadS, "s"))
  }
}

/** Minimal JSON writer: values are pre-rendered JSON strings. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString
  def obj(kv: (String, String)*): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
}
