package repro.er

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window

/** Token blocking for candidate-pair generation — the standard ER substrate
  * the paper's pipeline presumes ("techniques such as blocking or hashing
  * are normally applied to merge the candidate entities", §2).
  *
  * Record DataFrames use the aligned-ontology schema
  * `id: long, source: string, entity_id: long, etype: string,
  * attrs: map<string,string>` (`entity_id` is generator ground truth, used
  * only for labeling).
  *
  * Blocking keys = every distinct token of a chosen attribute (token
  * blocking). Oversized blocks (frequent tokens) are dropped, the usual
  * guard against quadratic blow-up (block purging). Candidate generation is
  * a self-join on the key and is Oracle-checked against DuckDB in
  * `BlockingPairingSpec`.
  */
object Blocking {

  /** `id, source, entity_id, key` — one row per distinct token of `attr`
    * (records with a missing value yield no keys). Token blocking over all
    * tokens, not just a prefix, so that pairs sharing *any* rare token (a
    * model code, an abbreviated name) become candidates; frequent tokens are
    * neutralized by the block-size cap in [[candidates]]. */
  def blockKeys(records: DataFrame, attr: String): DataFrame = {
    val toks = F.udf((s: String) => repro.text.Tokenizer.tokenSet(Option(s).getOrElse("")))
    records.select(
      F.col("id"), F.col("source"), F.col("entity_id"),
      F.explode(toks(F.col("attrs").getItem(attr))).as("key"))
  }

  /** Candidate id pairs `(id1 < id2)` sharing a block key, with oversized
    * blocks (> maxBlockSize members) removed.
    *
    * Runs a Spark job when called: the capped key table (`key, id,
    * entity_id`, block sizes from one window over the key) is materialized
    * once (`localCheckpoint`), so both sides of the self-join read it
    * instead of each re-deriving the keys and block sizes, without code
    * generation ([[SmallQueries]]). The join broadcasts one side. */
  def candidates(records: DataFrame, attr: String, maxBlockSize: Int = 50): DataFrame = {
    val capped = blockKeys(records, attr)
      .withColumn("block_size", F.count("*").over(Window.partitionBy("key")))
      .where(F.col("block_size") <= maxBlockSize)
      .select("key", "id", "entity_id")
    val kept = SmallQueries(records.sparkSession)(capped.localCheckpoint())
    val l = kept.select(F.col("key"), F.col("id").as("id1"), F.col("entity_id").as("e1"))
    val r = kept.select(F.col("key"), F.col("id").as("id2"), F.col("entity_id").as("e2"))
    l.join(F.broadcast(r), "key")
      .where(F.col("id1") < F.col("id2"))
      .select("id1", "id2", "e1", "e2")
      .distinct()
  }
}
