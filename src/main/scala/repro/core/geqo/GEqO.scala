package repro.core.geqo

import repro.core.emf.Emf
import repro.core.encode.{EncodedPlan, EncoderConfig, NodeVector}
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter
import repro.core.vmf.Vmf
import repro.verifier.Verifier

/** The GEqO pipeline (Equations 1–2, §2.2): apply the short-circuiting
  * filter chain SF → VMF → EMF to a workload's pairwise space, then verify
  * every surviving pair with the automated verifier, yielding an
  * equivalence set with perfect precision.
  *
  * Each filter can be toggled for the ablation study (§7.6); with SF off,
  * the whole workload forms one group; with VMF off, all intra-group pairs
  * reach the EMF; with EMF off, VMF survivors go straight to the AV.
  */
final class GEqO(val emf: Emf, val vmf: Vmf, val verifier: Verifier,
                 val inst: EncoderConfig, emfThreshold: Double = 0.5) {

  /** Per-stage pair counts and wall-clock (nanos). `candidates(stage)` is
    * the number of pairs still alive *after* that stage.
    */
  final case class Stats(totalPairs: Long,
                         afterSf: Long, afterVmf: Long, afterEmf: Long, verified: Long,
                         sfNanos: Long, vmfNanos: Long, emfNanos: Long, avNanos: Long) {
    def totalNanos: Long = sfNanos + vmfNanos + emfNanos + avNanos
  }

  /** `sfPairs`/`vmfPairs`/`emfPairs` are the pairs alive after each stage
    * (for per-filter TPR/TNR accounting in the Table-1 benchmark).
    */
  final case class Result(equivalences: Set[(Int, Int)], stats: Stats,
                          sfPairs: Vector[(Int, Int)], vmfPairs: Vector[(Int, Int)],
                          emfPairs: Vector[(Int, Int)])

  def equivalenceSet(workload: IndexedSeq[Plan],
                     useSf: Boolean = true, useVmf: Boolean = true,
                     useEmf: Boolean = true): Result = {
    val n = workload.size
    val totalPairs = n.toLong * (n - 1) / 2

    // Shared O(n) instance encodings (§4.2.1's fast path); only the VMF and
    // the EMF read them.
    val instEnc: IndexedSeq[EncodedPlan] =
      if (useVmf || useEmf) workload.map(NodeVector.encodeInstance(_, inst))
      else IndexedSeq.empty

    // --- SF ---------------------------------------------------------------
    // Groups are ascending index lists, so every pair below has i < j.
    val t0 = System.nanoTime()
    val groups: Vector[Vector[Int]] =
      if (useSf) SchemaFilter.groups(workload) else Vector(workload.indices.toVector)
    val afterSf = groups.map(g => g.size.toLong * (g.size - 1) / 2).sum
    val sfPairs = groups.flatMap(SchemaFilter.groupPairs)
    val sfNanos = System.nanoTime() - t0

    // --- VMF --------------------------------------------------------------
    val t1 = System.nanoTime()
    val vmfPairs: Vector[(Int, Int)] =
      if (useVmf)
        groups.flatMap(g => vmf.candidatePairs(g.map(instEnc), inst).map { case (a, b) => (g(a), g(b)) })
      else sfPairs
    val vmfNanos = System.nanoTime() - t1

    // --- EMF --------------------------------------------------------------
    val t2 = System.nanoTime()
    val emfPairs =
      if (useEmf)
        vmfPairs.filter { case (i, j) =>
          emf.predictProbInstanceEncoded(instEnc(i), instEnc(j), inst) >= emfThreshold
        }
      else vmfPairs
    val emfNanos = System.nanoTime() - t2

    // --- AV ---------------------------------------------------------------
    val t3 = System.nanoTime()
    val verified = emfPairs.filter { case (i, j) =>
      verifier.equivalent(workload(i), workload(j))
    }.toSet
    val avNanos = System.nanoTime() - t3

    Result(verified,
      Stats(totalPairs, afterSf, vmfPairs.size, emfPairs.size, verified.size,
            sfNanos, vmfNanos, emfNanos, avNanos),
      sfPairs, vmfPairs, emfPairs)
  }

  /** GEqO_PAIR (Equation 2): the cascade on the two-plan workload, which
    * short-circuits exactly as the pairwise chain SF → VMF → EMF → AV.
    */
  def equivalentPair(p: Plan, q: Plan): Boolean =
    equivalenceSet(Vector(p, q)).equivalences.nonEmpty
}
