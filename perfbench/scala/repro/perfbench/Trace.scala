package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark stage and task counters per job group, collected by a listener
  * registered from outside the program. Each traced span tags its jobs with
  * its own job group, so counters are attributed to the span that ran them.
  */
final class GroupCounters extends SparkListener {
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val totals = mutable.Map.empty[String, Counts]

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      e.stageInfos.foreach(si => stageGroup.put(si.stageId, g))
    }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    group(e.stageInfo.stageId).foreach(g => update(g)(_.stages += 1))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (g <- group(e.stageId); m <- Option(e.taskMetrics)) update(g) { c =>
      c.tasks += 1
      c.taskNanos += m.executorRunTime * 1000000L
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      c.resultBytes += m.resultSize
    }

  private def group(stageId: Int): Option[String] = Option(stageGroup.get(stageId))

  private def update(g: String)(f: Counts => Unit): Unit =
    synchronized(f(totals.getOrElseUpdate(g, new Counts)))

  /** Removes and returns the counters of job group `g`. */
  def take(g: String): Counts = synchronized(totals.remove(g).getOrElse(new Counts))
}

final class Counts {
  var stages = 0L
  var tasks = 0L
  var taskNanos = 0L
  var shuffleBytes = 0L
  var resultBytes = 0L
}

/** CPU clocks. Unlike wall time they do not grow while other processes or
  * virtual machines hold the CPUs. */
object Jvm {
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean

  /** CPU time of the whole JVM (all threads), in ns. */
  def cpuNanos(): Long = os.getProcessCpuTime

  /** CPU time of the calling thread, in ns. */
  def threadCpuNanos(): Long = threads.getCurrentThreadCpuTime
}

/** A finished span: a layer call made by the benchmark, with its parent. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long, cpuNs: Long,
                      threadCpuNs: Long, allocBytes: Long, gcMs: Long, spark: Counts) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Times the benchmark's calls into each layer.
  *
  * Untraced, a span only reads the wall clock, the JVM's CPU time (all
  * threads: the driver, Spark's executor threads, GC and JIT) and the calling
  * thread's CPU time. Traced, it also tags Spark jobs
  * with a job group, waits for the listener bus to drain so the group's
  * counters are complete, and reads the driver thread's allocation and the
  * JVM's GC time. Spans are kept in memory and written out at the end.
  */
final class Tracer(sc: SparkContext, val traced: Boolean) {
  private val counters = new GroupCounters
  if (traced) sc.addSparkListener(counters)

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack = List(0)
  private var nextId = 1

  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(b.getCollectionTime, 0L)).sum

  private var overheadNs = 0L

  /** Time spent in the tracer's own bookkeeping since `clear`, in seconds. */
  def overheadSeconds: Double = overheadNs / 1e9

  def span[T](name: String)(body: => T): T = {
    val o0 = System.nanoTime()
    val id = nextId
    nextId += 1
    val parent = stack.head
    stack = id :: stack
    val group = s"$name#$id"
    val outer = sc.getLocalProperty("spark.jobGroup.id")
    if (traced) sc.setJobGroup(group, name)
    val a0 = if (traced) allocated() else 0L
    val g0 = if (traced) gcMillis() else 0L
    val c0 = Jvm.cpuNanos()
    val tc0 = Jvm.threadCpuNanos()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val threadCpu = Jvm.threadCpuNanos() - tc0
      val cpu = Jvm.cpuNanos() - c0
      stack = stack.tail
      val (alloc, gc, counts) =
        if (!traced) (0L, 0L, new Counts)
        else {
          val a = allocated() - a0
          val g = gcMillis() - g0
          if (outer == null) sc.clearJobGroup() else sc.setJobGroup(outer, outer)
          org.apache.spark.ListenerBusAccess.drain(sc)
          (a, g, counters.take(group))
        }
      spans += Span(id, parent, name, t0, t1, cpu, threadCpu, alloc, gc, counts)
      overheadNs += (t0 - o0) + (System.nanoTime() - t1)
    }
  }

  def all: Seq[Span] = spans.toSeq

  def clear(): Unit = {
    spans.clear()
    overheadNs = 0L
  }
}
