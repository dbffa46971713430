package repro

import java.lang.management.ManagementFactory

/** Heap bytes the current thread allocates, as the JVM counts them: the
  * allocation tripwires of the unit tests. */
object Alloc {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes this thread allocates while `body` runs. */
  def bytes(body: => Unit): Long = {
    val a0 = threads.getCurrentThreadAllocatedBytes
    body
    threads.getCurrentThreadAllocatedBytes - a0
  }
}
