package repro.verifier

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ir.Canon
import repro.core.ir.Canon._
import repro.core.ir.Ir._
import scala.util.Random

class DbmSpec extends AnyFunSuite {

  private val x = ColRef("a0", "x")
  private val y = ColRef("a0", "y")
  private val z = ColRef("a1", "z")

  private def lt(c: ColRef, v: Double)  = Canon.normalize(Pred(Col(c), Lt, Lit(v)))
  private def gt(c: ColRef, v: Double)  = Canon.normalize(Pred(Col(c), Gt, Lit(v)))
  private def ge(c: ColRef, v: Double)  = Canon.normalize(Pred(Col(c), Ge, Lit(v)))
  private def le(c: ColRef, v: Double)  = Canon.normalize(Pred(Col(c), Le, Lit(v)))
  private def eqc(c: ColRef, v: Double) = Canon.normalize(Pred(Col(c), Eq, Lit(v)))
  private def diff(a: ColRef, op: CmpOp, b: ColRef, v: Double) =
    Canon.normalize(Pred(Col(a), op, Add(Col(b), Lit(v))))

  test("empty system is satisfiable") {
    assert(DiffLogic.satisfiable(Seq.empty))
  }

  test("x < 5 ∧ x > 3 is satisfiable") {
    assert(DiffLogic.satisfiable(Seq(lt(x, 5), gt(x, 3))))
  }

  test("x < 5 ∧ x > 5 is unsatisfiable") {
    assert(!DiffLogic.satisfiable(Seq(lt(x, 5), gt(x, 5))))
  }

  test("strictness: x <= 5 ∧ x >= 5 is satisfiable, x < 5 ∧ x >= 5 is not") {
    assert(DiffLogic.satisfiable(Seq(le(x, 5), ge(x, 5))))
    assert(!DiffLogic.satisfiable(Seq(lt(x, 5), ge(x, 5))))
  }

  test("real semantics: 3 < x < 4 is satisfiable (no integer gap assumption)") {
    assert(DiffLogic.satisfiable(Seq(gt(x, 3), lt(x, 4))))
  }

  test("transitive chain contradiction: x < y, y < z, z < x") {
    val s = Seq(diff(x, Lt, y, 0), diff(y, Lt, z, 0), diff(z, Lt, x, 0))
    assert(!DiffLogic.satisfiable(s))
  }

  test("non-strict cycle of equalities is satisfiable") {
    val s = Seq(diff(x, Le, y, 0), diff(y, Le, z, 0), diff(z, Le, x, 0))
    assert(DiffLogic.satisfiable(s))
  }

  test("constant propagation through equality: x = 5 ∧ x = y ∧ y > 6 unsat") {
    val s = Seq(eqc(x, 5), Canon.normalize(Pred(Col(x), Eq, Col(y))), gt(y, 6))
    assert(!DiffLogic.satisfiable(s))
  }

  test("implies: x > 10 implies x > 5") {
    assert(DiffLogic.implies(Seq(gt(x, 10)), gt(x, 5)))
    assert(!DiffLogic.implies(Seq(gt(x, 5)), gt(x, 10)))
  }

  test("implies: Figure-1 derivation {x > y + 10, y > 10} ⟹ x > 20") {
    val p = Seq(diff(x, Gt, y, 10), gt(y, 10))
    assert(DiffLogic.implies(p, gt(x, 20)))
    assert(!DiffLogic.implies(p, gt(x, 21)))
  }

  test("implies equality from two inequalities") {
    val p = Seq(le(x, 5), ge(x, 5))
    assert(DiffLogic.implies(p, eqc(x, 5)))
  }

  test("equivalent: Figure-1 predicate sets") {
    // {x > y + 10, y > 10}  vs  {y + 10 < x, y + 10 > 20, x > 20}
    val p1 = Seq(diff(x, Gt, y, 10), gt(y, 10))
    val p2 = Seq(
      Canon.normalize(Pred(Add(Col(y), Lit(10)), Lt, Col(x))),
      Canon.normalize(Pred(Add(Col(y), Lit(10)), Gt, Lit(20))),
      gt(x, 20))
    assert(DiffLogic.equivalent(p1, p2))
  }

  test("equivalent: both unsatisfiable sets are equivalent") {
    assert(DiffLogic.equivalent(Seq(lt(x, 0), gt(x, 1)), Seq(gt(y, 5), lt(y, 2))))
  }

  test("not equivalent: sat vs unsat") {
    assert(!DiffLogic.equivalent(Seq(lt(x, 0)), Seq(lt(x, 0), gt(x, 1))))
  }

  test("not equivalent: different bounds") {
    assert(!DiffLogic.equivalent(Seq(lt(x, 5)), Seq(lt(x, 6))))
  }

  test("redundant detects implied conjunct") {
    val p = Vector(diff(x, Gt, y, 10), gt(y, 10), gt(x, 20))
    assert(DiffLogic.redundant(p, 2))
    assert(!DiffLogic.redundant(p, 0))
    assert(!DiffLogic.redundant(p, 1))
  }

  test("soundness on random systems: satisfying assignments respect implications") {
    val rng = new Random(7)
    val cols = Vector(x, y, z)
    for (iter <- 0 until 200) {
      // Build a system consistent with a random assignment => must be SAT.
      val assign = cols.map(_ -> (rng.nextInt(41) - 20).toDouble).toMap
      val preds = Vector.fill(1 + rng.nextInt(5)) {
        val a = cols(rng.nextInt(3))
        if (rng.nextBoolean()) {
          val slack = rng.nextInt(10) + 1
          if (rng.nextBoolean()) lt(a, assign(a) + slack) else gt(a, assign(a) - slack)
        } else {
          val b = cols(rng.nextInt(3))
          if (b == a) le(a, assign(a))
          else {
            val d = assign(a) - assign(b)
            if (rng.nextBoolean()) diff(a, Le, b, d) else diff(a, Ge, b, d)
          }
        }
      }
      assert(DiffLogic.satisfiable(preds), s"iter $iter: witnessed system reported UNSAT")
      // And anything the system implies must hold under the witness.
      val candidate = lt(x, assign(x) + rng.nextInt(5) + 1)
      if (DiffLogic.implies(preds, candidate)) {
        val lhs = candidate.coefs.map { case (c, v) => v * assign(c) }.sum + candidate.const
        assert(lhs < 0, s"iter $iter: implied predicate violated by witness")
      }
    }
  }

  test("unsat on random systems with injected contradiction") {
    val rng = new Random(13)
    for (iter <- 0 until 100) {
      val c = (rng.nextInt(20) - 10).toDouble
      val base = Vector.fill(rng.nextInt(4))(le(y, rng.nextInt(30).toDouble))
      val sys = base ++ Vector(lt(x, c), gt(x, c))
      assert(!DiffLogic.satisfiable(sys), s"iter $iter")
    }
  }

  test("constant-only contradictions detected") {
    val alwaysFalse = Canon.normalize(Pred(Lit(1), Lt, Lit(0)))
    assert(!DiffLogic.satisfiable(Seq(alwaysFalse)))
    val alwaysTrue = Canon.normalize(Pred(Lit(0), Le, Lit(0)))
    assert(DiffLogic.satisfiable(Seq(alwaysTrue)))
    assert(DiffLogic.implies(Seq(lt(x, 5)), alwaysTrue))
  }

  test("bound on a column absent from the system is unconstrained") {
    val d = Dbm(Seq(lt(x, 5), diff(x, Le, y, 2))).close()
    assert(d.bound(Some(z), None) == ((Double.PositiveInfinity, false)))
    assert(d.bound(None, Some(z)) == ((Double.PositiveInfinity, false)))
    assert(d.bound(Some(x), Some(z)) == ((Double.PositiveInfinity, false)))
    assert(d.bound(Some(x), None) == ((5.0, true)))
  }

  /** Reference: `preds ⟹ q` by refutation, UNSAT(preds ∧ ¬q), closing a
    * fresh DBM per check; `¬(lin = 0)` splits into two strict checks.
    */
  private def refutes(preds: Seq[NormPred], q: NormPred): Boolean = {
    def unsatWith(extra: NormPred): Boolean = !DiffLogic.satisfiable(preds :+ extra)
    val l = Lin(q.coefs.toMap, q.const)
    q.op match {
      case NLt => unsatWith(Canon.toNorm(l.negate, NLe)) // ¬(l<0) ⇔ −l ≤ 0
      case NLe => unsatWith(Canon.toNorm(l.negate, NLt)) // ¬(l≤0) ⇔ −l < 0
      case NEq =>
        unsatWith(Canon.toNorm(l, NLt)) && unsatWith(Canon.toNorm(l.negate, NLt))
    }
  }

  test("implies agrees with refutation on random systems (differential)") {
    val rng = new Random(29)
    val w = ColRef("a2", "w") // never in a system, only in candidate conjuncts
    val ops = Vector(Lt, Le, Eq, Gt, Ge)
    // Small constants so that closed bounds often tie a candidate's constant.
    def lit(): Scalar = Lit((rng.nextInt(7) - 3).toDouble)
    def conjunct(cols: Vector[ColRef]): NormPred = {
      val op = ops(rng.nextInt(ops.size))
      rng.nextInt(6) match {
        case 0 => Canon.normalize(Pred(lit(), op, lit())) // constant-only
        case 1 | 2 => Canon.normalize(Pred(Col(cols(rng.nextInt(cols.size))), op, lit()))
        case _ =>
          val a = cols(rng.nextInt(cols.size))
          val b = cols.filter(_ != a)(rng.nextInt(cols.size - 1))
          Canon.normalize(Pred(Col(a), op, Add(Col(b), lit())))
      }
    }
    var unsatSystems, strictnessDecides, absent, constOnly, implied = 0
    for (iter <- 0 until 6000) {
      val preds = Vector.fill(rng.nextInt(6))(conjunct(Vector(x, y, z)))
      // Half the candidates sit exactly on a closed bound of the system,
      // where only strictness decides.
      val cols = Vector(Some(x), Some(y), Some(z), None)
      val (u, v) = (cols(rng.nextInt(4)), cols(rng.nextInt(4)))
      val (b, _) = Dbm(preds).close().bound(u, v)
      val q =
        if (u == v || b.isInfinity || rng.nextBoolean()) conjunct(Vector(x, y, z, w))
        else Canon.toNorm(Lin((u.map(_ -> 1.0) ++ v.map(_ -> -1.0)).toMap, -b),
                          Vector(NLt, NLe, NEq)(rng.nextInt(3)))
      val expected = refutes(preds, q)
      assert(DiffLogic.implies(preds, q) == expected, s"iter $iter: $preds ⟹ $q")
      if (!DiffLogic.satisfiable(preds)) unsatSystems += 1
      if (q.op != NEq && q.coefs.nonEmpty) {
        val other = q.copy(op = if (q.op == NLt) NLe else NLt)
        val otherExpected = refutes(preds, other)
        assert(DiffLogic.implies(preds, other) == otherExpected, s"iter $iter: $other")
        if (otherExpected != expected) strictnessDecides += 1
      }
      if (q.cols(w)) absent += 1
      if (q.coefs.isEmpty) constOnly += 1
      if (expected) implied += 1
    }
    info(s"$unsatSystems unsat systems, $strictnessDecides strictness ties, $absent absent-column " +
      s"and $constOnly constant-only candidates, $implied implied")
    // The sample exercises every case the lookup distinguishes.
    assert(unsatSystems >= 500, s"$unsatSystems unsatisfiable systems")
    assert(strictnessDecides >= 75, s"$strictnessDecides strictness-only ties")
    assert(absent >= 300 && constOnly >= 300, s"absent $absent, constant-only $constOnly")
    assert(implied >= 1000, s"$implied implied")
  }
}
