package repro.er

import repro.linalg.Mat

/** One candidate entity pair collected from the Spark feature pipeline.
  *
  * @param label    1.0 matching, 0.0 non-matching, -1.0 unlabeled (target domain)
  * @param src1/2   data-source names of the two records (used for domain splits)
  * @param toks1/2  per-attribute token sets of each record (baselines consume
  *                 these; AdaMEL consumes the precomputed `features`)
  * @param features flattened F x D contrastive feature tensor in feature-major
  *                 order: [sim(A_1), uni(A_1), sim(A_2), uni(A_2), ...]
  */
final case class PairData(
    label: Double,
    src1: String,
    src2: String,
    toks1: Array[Seq[String]],
    toks2: Array[Seq[String]],
    features: Array[Double],
)

/** A collected batch of pairs with a fixed attribute schema.
  *
  * The heavy lifting (tokenization, sim/uni sets, hashed embedding sums)
  * happens in [[FeaturePipeline]] on Spark; this type is the driver-side
  * view the trainers consume. `feats(j)` is the N x D token-embedding matrix
  * of feature j (h_j in the paper's Eq. 3); there are F = 2|A| features.
  */
final case class PairBatch(attrs: Vector[String], dim: Int, pairs: Array[PairData]) {
  val n: Int = pairs.length
  val numFeatures: Int = 2 * attrs.length

  /** Paper's feature names: `<attr>_shared` / `<attr>_unique` (Table 4 naming). */
  val featureNames: Vector[String] =
    attrs.flatMap(a => Vector(s"${a}_shared", s"${a}_unique"))

  /** N x D matrix of feature j across the batch. */
  def featureMat(j: Int): Mat = {
    require(j >= 0 && j < numFeatures, s"feature index $j out of [0, $numFeatures)")
    val out = new Array[Double](n * dim)
    var i = 0
    while (i < n) {
      System.arraycopy(pairs(i).features, j * dim, out, i * dim, dim)
      i += 1
    }
    new Mat(n, dim, out)
  }

  /** All F feature matrices (cached). */
  lazy val feats: Array[Mat] = Array.tabulate(numFeatures)(featureMat)

  lazy val labels: Array[Double] = pairs.map(_.label)

  def labelCol: Mat = Mat.colVec(labels)

  def isLabeled: Boolean = pairs.forall(_.label >= 0.0)

  def subset(idx: Array[Int]): PairBatch = PairBatch(attrs, dim, idx.map(pairs))

  def positives: PairBatch = subset(pairs.indices.filter(i => pairs(i).label == 1.0).toArray)
  def negatives: PairBatch = subset(pairs.indices.filter(i => pairs(i).label == 0.0).toArray)
}
