package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ir.Catalogs
import repro.core.ir.Ir._
import repro.gen.{QueryGen, Rewrites}
import repro.verifier.Verifier
import scala.util.Random

class SignatureSpec extends AnyFunSuite {

  private val schema = Catalogs.tpchLite

  test("identical plans have identical signatures") {
    for (seed <- 0 until 30) {
      val rng = new Random(seed)
      val p = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      assert(Signature.equivalent(p, p))
    }
  }

  test("signatures are insensitive to alias names") {
    def mk(alias: String) = Project(Seq(ColRef(alias, "l_quantity")),
      Filter(Pred(Col(ColRef(alias, "l_quantity")), Gt, Lit(5)),
        Scan("lineitem", alias, Seq("l_orderkey", "l_quantity"))))
    assert(Signature.equivalent(mk("a0"), mk("zz9")))
  }

  test("signatures are insensitive to conjunct and plan-shape order (same syntax)") {
    var caught = 0
    val n = 50
    for (seed <- 0 until n) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      // A pure reordering variant: same syntax, same join order.
      val flat = repro.core.ir.Canon.flatten(base)
      val preds = repro.core.ir.Sql.collectPreds(base).toVector
      val reordered = QueryGen.assemble(repro.gen.Spec(flat.atoms.toVector, preds,
        flat.proj.toVector), rng, shuffleAtoms = false)
      if (Signature.equivalent(base, reordered)) caught += 1
    }
    assert(caught == n, s"signature caught only $caught/$n reorder-only variants")
  }

  test("signatures miss most heavy semantic rewrites") {
    var missed = 0
    val n = 50
    for (seed <- 0 until n) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val v = Rewrites.heavyVariant(base, rng)
      if (!Signature.equivalent(base, v)) missed += 1
    }
    assert(missed >= n / 2, s"signature unexpectedly caught ${n - missed}/$n heavy rewrites")
  }

  test("signature equality is sound: equal signature implies verified equivalence") {
    val av = new Verifier()
    for (seed <- 0 until 60) {
      val rng = new Random(seed)
      val p = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val q = Rewrites.variant(p, rng, heavy = seed % 2 == 0)
      if (Signature.equivalent(p, q)) assert(av.equivalent(p, q), s"seed=$seed")
    }
  }

  test("different constants give different signatures") {
    def mk(c: Double) = Project(Seq(ColRef("a0", "l_quantity")),
      Filter(Pred(Col(ColRef("a0", "l_quantity")), Gt, Lit(c)),
        Scan("lineitem", "a0", Seq("l_quantity"))))
    assert(!Signature.equivalent(mk(5), mk(6)))
  }
}
