package org.apache.spark

/** The listener bus delivers events asynchronously; a span's counters are
  * complete only once every event it caused has been delivered. Waiting for
  * that needs the bus itself, which Spark keeps package-private. */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
