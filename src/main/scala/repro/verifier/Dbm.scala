package repro.verifier

import java.util.concurrent.atomic.AtomicLong
import repro.core.ir.Ir.ColRef
import repro.core.ir.Canon.{NEq, NLe, NLt, NormPred}

/** Difference-bound-matrix decision procedure for conjunctions of
  * difference-logic constraints over the reals:
  * `x − y ⊲ c`, `x ⊲ c`, `x = y + c` with ⊲ ∈ {<, ≤}.
  *
  * This is the proof engine of the automated verifier (the paper uses
  * SPES + Z3; see DESIGN.md "Substitutions"). Bounds carry strictness, and
  * Floyd–Warshall closure detects negative (or zero-weight strict) cycles —
  * sound and complete for this constraint class over ℝ, which is exactly the
  * class the workload generator emits. A closed, satisfiable DBM holds the
  * tightest entailed bound for every pair of variables (its canonical form),
  * so entailment is a lookup ([[entails]]).
  */
final class Dbm private (val vars: IndexedSeq[ColRef]) {
  // Index 0 is the implicit ZERO variable; variable i is vars(i - 1).
  private val n: Int = vars.size + 1
  private val idx: Map[ColRef, Int] = vars.zipWithIndex.map { case (c, i) => c -> (i + 1) }.toMap

  /** w(u,v) = least c with `u − v ≤ c` (strict(u,v) ⇒ `<`). */
  private val w      = Array.fill(n * n)(Double.PositiveInfinity)
  private val strict = Array.fill(n * n)(false)
  private var contradiction = false

  @inline private def at(u: Int, v: Int): Int = u * n + v

  /** Variable index of `c`, −1 for a column absent from the system. */
  private def index(c: ColRef): Int = idx.getOrElse(c, -1)

  private def tighten(u: Int, v: Int, c: Double, s: Boolean): Unit = {
    val i = at(u, v)
    if (c < w(i) || (c == w(i) && s)) { w(i) = c; strict(i) = s }
  }

  /** `np` (with columns, in difference form) as edges `(u, v, c, strict)`,
    * each `u − v ⊲ c` over variable [[index]]es; an `=` gives both `≤` edges.
    */
  private def edges(np: NormPred): List[(Int, Int, Double, Boolean)] = {
    val s = np.op == NLt
    np.coefs match {
      case (x, a) :: Nil =>
        // a·x + c ⊲ 0 with a ∈ {±1}:  a=+1: x − 0 ⊲ −c ;  a=−1: 0 − x ⊲ −c
        val xi = index(x)
        if (np.op == NEq) { val v = -np.const / a; List((xi, 0, v, false), (0, xi, -v, false)) }
        else if (a > 0) List((xi, 0, -np.const, s))
        else List((0, xi, -np.const, s))
      case (x, a) :: (y, _) :: Nil =>
        val (u, v) = if (a > 0) (index(x), index(y)) else (index(y), index(x))
        if (np.op == NEq) List((u, v, -np.const, false), (v, u, np.const, false))
        else List((u, v, -np.const, s))
      case other =>
        throw new IllegalArgumentException(s"not difference form: $other")
    }
  }

  /** Assert `np` (must be in difference form). */
  private def add(np: NormPred): Unit =
    if (np.coefs.isEmpty) contradiction ||= !Dbm.holds(np)
    else edges(np).foreach { case (u, v, c, s) => tighten(u, v, c, s) }

  /** Floyd–Warshall closure; returns this. */
  def close(): Dbm = {
    Dbm.closures.incrementAndGet()
    var k = 0
    while (k < n) {
      var u = 0
      while (u < n) {
        val wk = w(at(u, k))
        if (!wk.isInfinity) {
          val sk = strict(at(u, k))
          var v = 0
          while (v < n) {
            val kv = w(at(k, v))
            if (!kv.isInfinity) tighten(u, v, wk + kv, sk || strict(at(k, v)))
            v += 1
          }
        }
        u += 1
      }
      k += 1
    }
    this
  }

  /** UNSAT iff a negative cycle (or zero-weight strict cycle) exists. Call
    * after [[close]].
    */
  def unsat: Boolean = {
    if (contradiction) return true
    var u = 0
    while (u < n) {
      val i = at(u, u)
      if (w(i) < 0 || (w(i) == 0 && strict(i))) return true
      u += 1
    }
    false
  }

  /** Closed bound `u − v ≤/< c` between two columns (or a column and the
    * ZERO var when one side is None). Infinity when unconstrained, as for a
    * column absent from the system.
    */
  def bound(u: Option[ColRef], v: Option[ColRef]): (Double, Boolean) = {
    val ui = u.fold(0)(index); val vi = v.fold(0)(index)
    if (ui < 0 || vi < 0) (Double.PositiveInfinity, false) else (w(at(ui, vi)), strict(at(ui, vi)))
  }

  /** Does this closed, satisfiable system entail `np`? An edge `u − v ⊲ c`
    * is entailed iff the closed bound is below `c`, or equals it and ⊲ is
    * `≤` or the bound is strict. (An unsatisfiable system entails anything.)
    */
  def entails(np: NormPred): Boolean =
    if (np.coefs.isEmpty) Dbm.holds(np)
    else edges(np).forall { case (u, v, c, s) =>
      u >= 0 && v >= 0 && { val i = at(u, v); w(i) < c || (w(i) == c && (!s || strict(i))) }
    }
}

object Dbm {

  /** Closures performed since start-up (tests assert the verifier's count). */
  private[verifier] val closures = new AtomicLong

  /** Truth of a conjunct with no columns, `c ⊲ 0`. */
  private def holds(np: NormPred): Boolean = np.op match {
    case NLt => np.const < 0
    case NLe => np.const <= 0
    case NEq => np.const == 0
  }

  def apply(preds: Seq[NormPred]): Dbm = {
    val vars = preds.flatMap(_.cols).distinct.sortBy(c => (c.table, c.column)).toIndexedSeq
    val d = new Dbm(vars)
    preds.foreach(d.add)
    d
  }
}

/** Conjunction-level queries over the DBM engine. */
object DiffLogic {

  def satisfiable(preds: Seq[NormPred]): Boolean = !Dbm(preds).close().unsat

  /** `preds ⟹ q`, read from the closed bounds of `preds`. */
  def implies(preds: Seq[NormPred], q: NormPred): Boolean = {
    val d = Dbm(preds).close()
    d.unsat || d.entails(q)
  }

  /** Mutual implication of two conjunct sets (assumed over the same columns
    * after atom renaming).
    */
  def equivalent(p1: Seq[NormPred], p2: Seq[NormPred]): Boolean = {
    val d1 = Dbm(p1).close(); val d2 = Dbm(p2).close()
    if (d1.unsat || d2.unsat) d1.unsat && d2.unsat // equivalent iff both are
    else p2.forall(d1.entails) && p1.forall(d2.entails)
  }

  /** Is conjunct `i` implied by the remaining conjuncts? */
  def redundant(preds: Seq[NormPred], i: Int): Boolean = {
    val rest = preds.zipWithIndex.collect { case (p, j) if j != i => p }
    implies(rest, preds(i))
  }
}
