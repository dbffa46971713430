package repro.data

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.er.{Pairing, SmallQueries}

/** Sizes, scenario kind and seed of the splits [[Scenarios]] builds. */
final case class ScenarioConfig(
    nTrainPos: Int = 150,
    nTrainNeg: Int = 300,
    nSupport: Int = 100, // 50 positive + 50 negative, as §5.2
    nTestPos: Int = 250,
    nTestNeg: Int = 300,
    nTargetExtra: Int = 400, // unlabeled target pairs beyond the test set
    disjoint: Boolean = false,
    blockAttr: String = "name",
    maxBlockSize: Int = 50,
    seed: Long = 7L,
)

final case class MELSplits(train: DataFrame, support: DataFrame,
                           target: DataFrame, test: DataFrame)

/** Assembles the four pair DataFrames of a MEL experiment (paper §5.2 setup)
  * from a record DataFrame and a seen-source set.
  *
  * Overlapping scenario (S1): target pairs have at least one record from an
  * unseen source (the paper tests "on all sources" with pairs in
  * D_S* x D_T*). Disjoint scenario (S2): both records are from unseen
  * sources (D_T* x D_T*).
  *
  * All sampling is hash-ordered and therefore deterministic in `seed`.
  *
  * The builders run Spark jobs when called: each record pool's positive and
  * negative pair pools, and every sample that more than one split reads, are
  * materialized once (`localCheckpoint`) so the four splits share them
  * instead of each re-deriving the blocking joins and windows. Those jobs
  * run without code generation ([[repro.er.SmallQueries]]). The rest of
  * each split (its remaining samples and the `pair_id` numbering) runs when
  * the split is collected.
  */
object Scenarios {

  /** A record pool's positive pairs and hard + random negative pairs. */
  private final case class Pools(pos: DataFrame, neg: DataFrame)

  /** Derives both pools of `records` and materializes them, truncating their
    * lineage so every split reads them without re-running the joins. */
  private def pools(records: DataFrame, cfg: ScenarioConfig): Pools = {
    val pos = Pairing.positives(records)
    val hard = Pairing.hardNegatives(records, cfg.blockAttr, cfg.maxBlockSize)
    val rand = Pairing.randomNegatives(records, cfg.seed * 31 + 5)
    val neg = hard.unionByName(rand).dropDuplicates("id1", "id2")
    SmallQueries(records.sparkSession)(Pools(pos.localCheckpoint(), neg.localCheckpoint()))
  }

  /** Builds the splits from one record pool; runs the Spark jobs that
    * materialize its pair pools and test samples. */
  def build(records: DataFrame, seenSources: Set[String], cfg: ScenarioConfig): MELSplits = {
    val p = pools(records, cfg)
    splits(p, p, seenSources, cfg)
  }

  /** Variant with distinct record pools: `trainRecords` supplies the labeled
    * source-domain pairs (e.g. the weakly-labeled Music-1M corpus), while
    * support/target/test come from `evalRecords` (the clean labels) — the
    * paper's "Music-1M shares the same testing set as Music-3K" protocol.
    * The two pools must share the record universe (same ids/sources). Runs
    * the Spark jobs that materialize both pools' pairs and the test samples. */
  def buildSplit(trainRecords: DataFrame, evalRecords: DataFrame,
                 seenSources: Set[String], cfg: ScenarioConfig): MELSplits =
    splits(pools(trainRecords, cfg), pools(evalRecords, cfg), seenSources, cfg)

  /** The pairs of `pool` whose `(id1, id2)` is not in `sample`; the sample is
    * broadcast, so the pool is neither shuffled nor sorted. */
  private def without(pool: DataFrame, sample: DataFrame): DataFrame =
    pool.join(F.broadcast(sample.select("id1", "id2")), Seq("id1", "id2"), "left_anti")

  private def splits(trainPools: Pools, evalPools: Pools,
                     seenSources: Set[String], cfg: ScenarioConfig): MELSplits = {
    val seen1 = F.col("src1").isin(seenSources.toSeq: _*)
    val seen2 = F.col("src2").isin(seenSources.toSeq: _*)
    val inSource = seen1 && seen2
    val inTarget = if (cfg.disjoint) !seen1 && !seen2 else !seen1 || !seen2

    val trainPos = Pairing.sample(trainPools.pos.where(inSource), cfg.nTrainPos, cfg.seed + 1)
    val trainNeg = Pairing.sample(trainPools.neg.where(inSource), cfg.nTrainNeg, cfg.seed + 2)
    val train = Pairing.finalizePairs(Seq(trainPos, trainNeg))

    val tgtPos = evalPools.pos.where(inTarget)
    val tgtNeg = evalPools.neg.where(inTarget)
    // test, the support anti-joins and target all read the test samples
    val (testPos, testNeg) = SmallQueries(tgtPos.sparkSession)(
      (Pairing.sample(tgtPos, cfg.nTestPos, cfg.seed + 3).localCheckpoint(),
        Pairing.sample(tgtNeg, cfg.nTestNeg, cfg.seed + 4).localCheckpoint()))
    val test = Pairing.finalizePairs(Seq(testPos, testNeg))

    val supPos = Pairing.sample(without(tgtPos, testPos), cfg.nSupport / 2, cfg.seed + 5)
    val supNeg = Pairing.sample(without(tgtNeg, testNeg), cfg.nSupport / 2, cfg.seed + 6)
    val support = Pairing.finalizePairs(Seq(supPos, supNeg))

    // D_T: the unlabeled target domain — the test pairs plus extra unlabeled
    // pairs from the same pool (transductive adaptation, as Algorithm 1).
    val extraPos = Pairing.sample(tgtPos, cfg.nTargetExtra / 4, cfg.seed + 7)
    val extraNeg = Pairing.sample(tgtNeg, cfg.nTargetExtra, cfg.seed + 8)
    val target = Pairing.finalizePairs(Seq(testPos, testNeg, extraPos, extraNeg), unlabel = true)

    MELSplits(train, support, target, test)
  }

  /** Single-domain splits for the Table 7 benchmarks: there is no unseen
    * source, so train/support/test are disjoint samples of the same
    * two-catalog pair pool, and the target domain is the unlabeled test
    * distribution. (This is the "no C1-C3" control the paper uses to expose
    * AdaMEL's limitation, §5.7.2.) Runs the Spark jobs that materialize the
    * pools and the test and support samples. */
  def buildSingleDomain(records: DataFrame, cfg: ScenarioConfig): MELSplits = {
    val Pools(pos, neg) = pools(records, cfg)

    // test, the anti-joins and target read the test samples; support and
    // the train anti-joins read the support samples
    val spark = records.sparkSession
    val (testPos, testNeg) = SmallQueries(spark)(
      (Pairing.sample(pos, cfg.nTestPos, cfg.seed + 3).localCheckpoint(),
        Pairing.sample(neg, cfg.nTestNeg, cfg.seed + 4).localCheckpoint()))
    val test = Pairing.finalizePairs(Seq(testPos, testNeg))

    val remPos = without(pos, testPos)
    val remNeg = without(neg, testNeg)
    val (supPos, supNeg) = SmallQueries(spark)(
      (Pairing.sample(remPos, cfg.nSupport / 2, cfg.seed + 5).localCheckpoint(),
        Pairing.sample(remNeg, cfg.nSupport / 2, cfg.seed + 6).localCheckpoint()))
    val support = Pairing.finalizePairs(Seq(supPos, supNeg))

    val trainPos = Pairing.sample(without(remPos, supPos), cfg.nTrainPos, cfg.seed + 1)
    val trainNeg = Pairing.sample(without(remNeg, supNeg), cfg.nTrainNeg, cfg.seed + 2)
    val train = Pairing.finalizePairs(Seq(trainPos, trainNeg))

    val target = Pairing.finalizePairs(Seq(testPos, testNeg), unlabel = true)
    MELSplits(train, support, target, test)
  }
}
