package repro.verifier

import repro.core.ir.Canon
import repro.core.ir.Ir._

/** Automated verifier (AV): decides semantic equivalence `q₁ ≡ q₂` of SPJ
  * subexpressions with conjunctive difference predicates under bag
  * semantics. Stands in for SPES + Z3 (DESIGN.md "Substitutions").
  *
  * Decision procedure: bag-semantics equivalence of this class holds iff
  * there is a table-preserving bijection between base-table atoms under
  * which (i) the projection lists coincide position-wise and (ii) the
  * conjunct sets mutually imply each other, or both predicates are
  * unsatisfiable (both queries always empty) with equal output arity. Each
  * side's conjuncts are closed into one [[Dbm]] per call; implication under
  * a candidate bijection is read from the other side's closed bounds. The
  * bijection search backtracks over per-table permutations.
  *
  * `smtIters` is a cost shim: the *real* decision procedure is re-run that
  * many times per call, to probe the per-call cost of a slower verifier. It
  * never changes the verdict. Table 1 does not use it; it models the
  * paper's per-call AV cost instead (`Experiments.PaperAvSecondsPerCall`).
  */
final class Verifier(val smtIters: Int = 1) {

  /** Number of `equivalent` calls since construction (for bench accounting). */
  @volatile var calls: Long = 0L

  def equivalent(p: Plan, q: Plan): Boolean = {
    calls += 1
    var verdict = false
    var i = 0
    while (i < smtIters) { verdict = decide(p, q); i += 1 }
    verdict
  }

  private def decide(p: Plan, q: Plan): Boolean = {
    val f1 = Canon.flatten(p)
    val f2 = Canon.flatten(q)
    if (f1.proj.size != f2.proj.size) return false
    if (f1.tableMultiset != f2.tableMultiset) return false

    val d1 = Dbm(f1.conjuncts).close()
    val d2 = Dbm(f2.conjuncts).close()
    // Both always-empty (arity already equal), or exactly one is.
    if (d1.unsat || d2.unsat) return d1.unsat && d2.unsat

    // Under σ (q₂'s aliases → q₁'s) the projections coincide and each side's
    // closed DBM entails the other's conjuncts, renamed into its aliases.
    def holdsUnder(sub: Map[String, String]): Boolean = {
      val inv = sub.map(_.swap)
      f2.proj.map(r => ColRef(sub.getOrElse(r.table, r.table), r.column)) == f1.proj &&
        f2.conjuncts.forall(c => d1.entails(Canon.rename(c, sub))) &&
        f1.conjuncts.forall(c => d2.entails(Canon.rename(c, inv)))
    }

    // Backtracking search over table-preserving alias bijections σ.
    val byTable1 = f1.atoms.groupBy(_.table).map { case (t, as) => t -> as.map(_.alias) }
    def rec(i: Int, used: Set[String], sub: Map[String, String]): Boolean =
      if (i == f2.atoms.size) holdsUnder(sub)
      else byTable1.getOrElse(f2.atoms(i).table, Seq.empty).exists { a1 =>
        !used(a1) && rec(i + 1, used + a1, sub + (f2.atoms(i).alias -> a1))
      }
    rec(0, Set.empty, Map.empty)
  }
}
