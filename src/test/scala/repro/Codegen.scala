package repro

import org.apache.spark.metrics.source.CodegenMetrics

/** Janino compilations of Spark-generated classes, as Spark's codegen
  * metrics count them: the code-generation tripwires of the unit tests.
  * The count is the JVM's, so it includes Spark tasks run in local mode. */
object Codegen {
  /** Classes compiled while `body` runs. */
  def compilations(body: => Unit): Long = {
    val c0 = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    body
    CodegenMetrics.METRIC_COMPILATION_TIME.getCount - c0
  }
}
