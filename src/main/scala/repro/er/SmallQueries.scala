package repro.er

import org.apache.spark.sql.SparkSession

/** Runs the `er` layer's Spark actions with expression interpretation
  * instead of generated code.
  *
  * The pair pools are small: a few thousand records and some ten thousand
  * pairs per scenario. Whole-stage code generation and the generated
  * projections and orderings pay for their Janino compilation (and the JIT
  * time compiling Janino itself) only over many rows; on this data they cost
  * far more than the rows they speed up. One cold Monitor scenario compiled
  * 154 classes with code generation and 20 inside these scopes: the orderings
  * of `TakeOrderedAndProject` (`Pairing.sample`) are always generated, and
  * the rest belong to plans a caller builds outside them.
  *
  * `apply` sets `spark.sql.codegen.wholeStage=false` and
  * `spark.sql.codegen.factoryMode=NO_CODEGEN` on the session while `body`
  * runs, then restores each key's previous value, or unsets a key the caller
  * had not set, so scopes nest. Both keys are needed: without the factory
  * mode the unsafe projections and orderings are still generated. A plan is
  * prepared (code generation included) the first time its executed plan is
  * touched, so that must happen inside the scope.
  *
  * Caveats: Spark marks `factoryMode` internal; the pinned Spark 4.1.2
  * honours it, and `SmallQueriesSpec` fails if a Spark upgrade stops doing
  * so. The confs belong to the session, not the thread, so this assumes the
  * `er` actions run one at a time on the driver thread, as every caller runs
  * them. Interpreted and generated evaluation give the same rows
  * (`GoldenBatchesSpec`'s digests were pinned under code generation).
  */
private[repro] object SmallQueries {

  private val Interpreted = Seq(
    "spark.sql.codegen.wholeStage" -> "false",
    "spark.sql.codegen.factoryMode" -> "NO_CODEGEN")

  def apply[T](spark: SparkSession)(body: => T): T = {
    val conf = spark.conf
    val set = conf.getAll
    val before = Interpreted.map { case (k, _) => k -> set.get(k) }
    Interpreted.foreach { case (k, v) => conf.set(k, v) }
    try body
    finally before.foreach {
      case (k, Some(v)) => conf.set(k, v)
      case (k, None) => conf.unset(k)
    }
  }
}
