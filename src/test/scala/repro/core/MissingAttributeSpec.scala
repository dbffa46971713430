package repro.core

import repro.SparkSpec
import repro.data.{GoldenBatchesSpec, MonitorConfig, MonitorGen, RecordsDF, Scenarios}
import repro.er.FeaturePipeline
import repro.text.HashEmbed

/** An attribute missing in every record of a split is handled by the
  * missing vector (paper §4.3): Monitor's target-only (C2) attributes never
  * occur in a seen source, so every train pair's sim and uni features of
  * them are `HashEmbed.missingVector`, and AdaMEL still trains their affine
  * layers `V_j` on it. */
class MissingAttributeSpec extends SparkSpec {

  private val Dim = GoldenBatchesSpec.Dim

  private lazy val splits = {
    val records = RecordsDF.toDF(spark, MonitorGen.generate(MonitorConfig(nMonitors = 60, seed = 17)))
    val s = Scenarios.build(records, MonitorGen.seenSources.toSet, GoldenBatchesSpec.monitorCfg)
    Seq(s.train, s.support, s.target).map(FeaturePipeline.collectBatch(_, MonitorGen.attrs, Dim))
  }
  private lazy val Seq(train, support, target) = splits

  /** The sim and uni feature indices of each target-only attribute. */
  private lazy val c2Features: Seq[Int] =
    MonitorGen.attrs.indices.filter(j => MonitorGen.targetOnlyAttrs(MonitorGen.attrs(j))).flatMap(j => Seq(2 * j, 2 * j + 1))

  test("every train pair embeds each target-only attribute's sim and uni features as the missing vector") {
    assert(train.n > 0 && c2Features.size == 2 * MonitorGen.targetOnlyAttrs.size)
    val missing = HashEmbed.missingVector(Dim)
    train.pairs.foreach { p =>
      assert(MonitorGen.seenSources.contains(p.src1) && MonitorGen.seenSources.contains(p.src2))
      c2Features.foreach { f =>
        assert(java.util.Arrays.equals(p.features.slice(f * Dim, (f + 1) * Dim), missing),
          s"${train.featureNames(f)} of a ${p.src1} x ${p.src2} pair")
      }
    }
  }

  test("AdaMEL-hyb fits with finite losses and moves the V_j of every target-only feature") {
    // No weight decay, so a V_j moves only by its gradient; the base variant
    // sees nothing but the source rows, where these features are the missing vector.
    for (v <- Seq(Variant.Hyb, Variant.Base)) {
      val m = new AdaMEL(AdaMELConfig(variant = v, epochs = 4, weightDecay = 0.0), Dim, train.featureNames)
      val before = c2Features.map(f => m.parameters(f).v.data.clone()) // parameters start with V_1 .. V_F
      val losses = m.fit(train, Some(target), Some(support))
      assert(losses.forall(_.isFinite), s"${v.name} losses $losses")
      c2Features.zip(before).foreach { case (f, v0) =>
        assert(!java.util.Arrays.equals(m.parameters(f).v.data, v0), s"${v.name}: V of ${m.featureNames(f)} did not move")
      }
    }
  }
}
