package repro.er

import scala.collection.immutable.ArraySeq

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.execution.SQLExecution
import repro.text.{HashEmbed, Tokenizer}

/** One pair's per-attribute token sets and its flat F x D feature vector. */
final case class PairRow(toks1: Seq[Seq[String]], toks2: Seq[Seq[String]], features: Array[Double])

/** The distributed feature dataflow (paper §4.2, Fig. 3).
  *
  * Input: a pair DataFrame with columns
  * `pair_id: long, label: double, src1: string, src2: string,
  * a1: map<string,string>, a2: map<string,string>`
  * (label = -1 marks unlabeled target-domain pairs).
  *
  * Each pair row takes one pass through [[pairRow]], a plain Scala function
  * run as one UDF over `(a1, a2)`. For every attribute `A` in the aligned
  * schema it
  *   1. tokenizes both values (lowercase, alnum split, crop 20 — Tokenizer),
  *   2. computes the contrastive token sets `sim(A) = t1 ∩ t2` and
  *      `uni(A) = (t1 ∪ t2) − (t1 ∩ t2)` ([[contrast]], Eq. 2),
  *   3. reduces each token set to the sum of hashed token embeddings, with
  *      the fixed normalized non-zero vector for empty sets (Eq. 3, §4.3).
  *
  * Everything up to the final `collect` runs distributed on the pair
  * partitions; the resulting N x (2|A|) x D tensor is what the driver-side
  * trainers consume as [[PairBatch]].
  */
object FeaturePipeline {

  /** Eq. 2 for one attribute's distinct token sequences: `sim` holds the
    * tokens of `t1` that are in `t2`, in `t1` order; `uni` holds the
    * `t1`-only tokens in `t1` order, then the `t2`-only tokens in `t2` order.
    * This is the order Spark's `array_intersect` and
    * `array_union(array_except, array_except)` give, and it fixes the
    * summation order of the embeddings, hence the feature bits. */
  def contrast(t1: Seq[String], t2: Seq[String]): (Seq[String], Seq[String]) = {
    val in1 = t1.toSet
    val (sim, only1) = t1.partition(t2.toSet)
    (sim, only1 ++ t2.filterNot(in1))
  }

  /** One pair row: both records' token sets per attribute and the features
    * `[sim(A_1), uni(A_1), sim(A_2), ...]`, each D-dim slot the
    * [[HashEmbed.embedSum]] of its token set. A missing attribute tokenizes
    * to the empty set. */
  def pairRow(a1: scala.collection.Map[String, String], a2: scala.collection.Map[String, String],
              attrs: Seq[String], dim: Int): PairRow = {
    val toks1 = attrs.map(a => Tokenizer.tokenSet(a1.getOrElse(a, null)))
    val toks2 = attrs.map(a => Tokenizer.tokenSet(a2.getOrElse(a, null)))
    val features = new Array[Double](2 * attrs.length * dim)
    attrs.indices.foreach { i =>
      val (sim, uni) = contrast(toks1(i), toks2(i))
      System.arraycopy(HashEmbed.embedSum(sim, dim), 0, features, 2 * i * dim, dim)
      System.arraycopy(HashEmbed.embedSum(uni, dim), 0, features, (2 * i + 1) * dim, dim)
    }
    PairRow(toks1, toks2, features)
  }

  /** Full feature DataFrame: `pair_id, label, src1, src2`, the token arrays
    * `toks1`, `toks2` and `features: array<double>` of length 2|A|*D. */
  def features(pairs: DataFrame, attrs: Seq[String], dim: Int = HashEmbed.DefaultDim): DataFrame = {
    val row = F.udf((a1: scala.collection.Map[String, String], a2: scala.collection.Map[String, String]) =>
      pairRow(a1, a2, attrs, dim))
    pairs.select(F.col("pair_id"), F.col("label"), F.col("src1"), F.col("src2"),
        row(F.col("a1"), F.col("a2")).as("row"))
      .select("pair_id", "label", "src1", "src2", "row.toks1", "row.toks2", "row.features")
  }

  /** Runs the pipeline and collects a driver-side [[PairBatch]].
    * Rows are ordered by `pair_id` so collection order is deterministic. The
    * driver sorts the collected rows: a Spark global sort would add a
    * range-partitioning shuffle unless the pairs sit in one partition.
    *
    * The rows are read as the executed plan's internal (binary) rows, as
    * `Dataset.collect` runs them, but without decoding each into a `Row`:
    * that would box every feature double, F x D of them per pair. The plan
    * is prepared and run without code generation ([[SmallQueries]]). */
  def collectBatch(pairs: DataFrame, attrs: Seq[String], dim: Int = HashEmbed.DefaultDim): PairBatch = {
    val df = features(pairs, attrs, dim)
    val Seq(id, label, src1, src2, toks1, toks2, feats) =
      Seq("pair_id", "label", "src1", "src2", "toks1", "toks2", "features").map(df.schema.fieldIndex)
    val rows = SmallQueries(df.sparkSession) {
      val qe = df.queryExecution
      val plan = qe.executedPlan // planned here, without code generation
      SQLExecution.withNewExecutionId(qe, Some("collect"))(plan.executeCollect())
    }
    java.util.Arrays.sort(rows, (a: InternalRow, b: InternalRow) => java.lang.Long.compare(a.getLong(id), b.getLong(id)))
    val data = rows.map { r =>
      PairData(
        label = r.getDouble(label),
        src1 = r.getUTF8String(src1).toString,
        src2 = r.getUTF8String(src2).toString,
        toks1 = tokenSets(r.getArray(toks1)),
        toks2 = tokenSets(r.getArray(toks2)),
        features = r.getArray(feats).toDoubleArray(),
      )
    }
    PairBatch(attrs.toVector, dim, data)
  }

  /** An `array<array<string>>` value as one token sequence per attribute. */
  private def tokenSets(a: ArrayData): Array[Seq[String]] =
    Array.tabulate(a.numElements()) { i =>
      val set = a.getArray(i)
      ArraySeq.unsafeWrapArray(Array.tabulate(set.numElements())(set.getUTF8String(_).toString))
    }
}
