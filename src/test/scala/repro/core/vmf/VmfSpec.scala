package repro.core.vmf

import org.scalatest.funsuite.AnyFunSuite
import repro.core.emf.Emf
import repro.core.encode.{EncoderConfig, NodeVector}
import repro.core.ir.Catalogs
import repro.core.sf.SchemaFilter
import repro.gen.{QueryGen, Rewrites, Workloads}
import repro.verifier.Verifier
import scala.util.Random

class VmfSpec extends AnyFunSuite {

  private val cfg = EncoderConfig.forSchema(Catalogs.tpchLite)

  // One trained EMF shared by the suite (embeddings need trained convolutions).
  private lazy val emf: Emf = {
    val m = new Emf(seed = 21, dropout = 0.2)
    val train = Workloads.labeledPairs(Catalogs.tpchLite, 500, seed = 21)
      .map(lp => (lp.a, lp.b, lp.label))
    m.fit(train, cfg, epochs = 10)
    m
  }

  private lazy val tau: Double = {
    val cal = Workloads.labeledPairs(Catalogs.tpchLite, 150, seed = 22)
      .map(lp => (lp.a, lp.b, lp.label))
    Vmf.calibrate(emf, cal, cfg)
  }

  test("calibrate returns a positive threshold") {
    assert(tau > 0.0)
  }

  test("VMF admits equivalent pairs with high recall") {
    val vmf = new Vmf(emf, tau)
    val pairs = Workloads.labeledPairs(Catalogs.tpchLite, 120, seed = 23)
      .filter(_.label)
    val admitted = pairs.count(lp => vmf.admits(lp.a, lp.b, cfg))
    assert(admitted.toDouble / pairs.size > 0.9,
      s"VMF recall ${admitted.toDouble / pairs.size} (tau=$tau)")
  }

  test("VMF rejects a meaningful share of non-equivalent SF-compatible pairs") {
    val vmf = new Vmf(emf, tau)
    val pairs = Workloads.labeledPairs(Catalogs.tpchLite, 300, seed = 24)
      .filterNot(_.label)
    val rejected = pairs.count(lp => !vmf.admits(lp.a, lp.b, cfg))
    assert(rejected.toDouble / pairs.size > 0.2,
      s"VMF TNR ${rejected.toDouble / pairs.size} (tau=$tau)")
  }

  test("candidatePairs is exact radius search on a 120-plan group") {
    val vmf = new Vmf(emf, tau)
    val rng = new Random(28)
    val base = QueryGen.assemble(QueryGen.baseSpec(Catalogs.tpchLite, rng), rng)
    val group = base +: Vector.fill(119)(Rewrites.variant(base, rng, heavy = rng.nextBoolean()))
    assert(SchemaFilter.groups(group).size == 1, "variants share the base's SF group")
    val enc = group.map(NodeVector.encodeInstance(_, cfg))
    val embs = vmf.embedGroup(enc, cfg)
    def dist(a: Array[Double], b: Array[Double]) =
      math.sqrt(a.indices.foldLeft(0.0)((s, k) => s + (a(k) - b(k)) * (a(k) - b(k))))
    val inRadius = for {
      i <- embs.indices; j <- (i + 1) until embs.size
      if dist(embs(i), embs(j)) <= tau
    } yield (i, j)
    // Some plan has more in-radius neighbours than a 48-wide kNN beam returns.
    val degree = inRadius.flatMap { case (i, j) => Seq(i, j) }.groupBy(identity)
      .values.map(_.size).maxOption.getOrElse(0)
    assert(degree > 48, s"largest in-radius neighbourhood $degree")
    val found = vmf.candidatePairs(enc, cfg)
    val (missed, extra) = ((inRadius.toSet -- found).size, (found.toSet -- inRadius).size)
    assert(missed == 0 && extra == 0,
      s"missed $missed, extra $extra of ${inRadius.size} in-radius pairs")
    assert(found == inRadius.toVector, "pairs come once each, in row-major order")
  }

  test("candidatePairs finds the planted equivalences within groups") {
    val vmf = new Vmf(emf, tau)
    val es = Workloads.evalWorkload(Catalogs.tpchLite, nSubexprs = 80, nClasses = 8, seed = 26)
    val groups = SchemaFilter.groups(es.subexprs)
    val found = groups.flatMap { g =>
      val enc = g.map(i => NodeVector.encodeInstance(es.subexprs(i), cfg))
      vmf.candidatePairs(enc, cfg).map { case (a, b) => (g(a), g(b)) }
    }.toSet
    val recall = (found & es.truth).size.toDouble / math.max(1, es.truth.size)
    assert(recall > 0.8, s"VMF group recall $recall")
  }

  test("VMF candidates are sound w.r.t. downstream verification (no crash path)") {
    val av = new Verifier()
    val vmf = new Vmf(emf, tau)
    val es = Workloads.evalWorkload(Catalogs.tpchLite, nSubexprs = 40, nClasses = 4, seed = 27)
    val groups = SchemaFilter.groups(es.subexprs)
    groups.foreach { g =>
      val enc = g.map(i => NodeVector.encodeInstance(es.subexprs(i), cfg))
      vmf.candidatePairs(enc, cfg).foreach { case (a, b) =>
        av.equivalent(es.subexprs(g(a)), es.subexprs(g(b))) // must not throw
      }
    }
  }
}
