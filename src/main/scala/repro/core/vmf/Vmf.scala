package repro.core.vmf

import repro.core.emf.Emf
import repro.core.encode.{DbAgnostic, EncodedPlan, EncoderConfig, NodeVector}
import repro.core.ir.Ir.Plan

/** The vector matching filter (VMF, §2.2, Definition 2.1): embed each
  * subexpression of an SF-group with the EMF's learned tree convolutions
  * over the group's n-ary db-agnostic encoding (§4.2.2), then admit every
  * pair within Euclidean distance τ by exact radius search over the group.
  */
final class Vmf(val emf: Emf, val tau: Double) {

  /** Embed a whole SF-group with the n-ary group encoding. */
  def embedGroup(instanceEncoded: Seq[EncodedPlan], inst: EncoderConfig): Vector[Array[Double]] =
    Vmf.embedGroup(emf, instanceEncoded, inst)

  /** All (i, j) pairs (indices into the group, i < j, row-major order)
    * whose embeddings lie within τ — Definition 2.1's radius query,
    * answered exactly by testing every intra-group pair.
    */
  def candidatePairs(instanceEncoded: IndexedSeq[EncodedPlan], inst: EncoderConfig): Vector[(Int, Int)] = {
    val embs = embedGroup(instanceEncoded, inst)
    (for {
      i <- embs.indices
      j <- (i + 1) until embs.size
      if Vmf.dist(embs(i), embs(j)) <= tau
    } yield (i, j)).toVector
  }

  /** Pairwise admission: `candidatePairs` on the two-plan group. */
  def admits(p: Plan, q: Plan, inst: EncoderConfig): Boolean = {
    val enc = Vector(NodeVector.encodeInstance(p, inst), NodeVector.encodeInstance(q, inst))
    candidatePairs(enc, inst).nonEmpty
  }
}

object Vmf {

  private def embedGroup(emf: Emf, instanceEncoded: Seq[EncodedPlan],
                         inst: EncoderConfig): Vector[Array[Double]] =
    DbAgnostic.convert(instanceEncoded, inst, emf.agn).map(emf.model.embed).toVector

  /** Euclidean distance, summing squares left to right. */
  private def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Choose τ from labeled pairs: the given quantile of *positive*-pair
    * embedding distances (≥ max for quantile 1.0), so the VMF admits
    * equivalences with the near-perfect recall Table 1 requires.
    */
  def calibrate(emf: Emf, pairs: Seq[(Plan, Plan, Boolean)], inst: EncoderConfig,
                quantile: Double = 0.95, slack: Double = 1.0): Double = {
    val dists = pairs.collect { case (p, q, true) =>
      val enc = Vector(NodeVector.encodeInstance(p, inst), NodeVector.encodeInstance(q, inst))
      val embs = embedGroup(emf, enc, inst)
      dist(embs(0), embs(1))
    }.sorted
    require(dists.nonEmpty, "calibrate needs positive pairs")
    val idx = math.min(dists.size - 1, (quantile * dists.size).toInt)
    math.max(dists(idx) * slack, 1e-6)
  }
}
