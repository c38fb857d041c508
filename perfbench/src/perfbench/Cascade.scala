package perfbench

import repro.bench.Experiments
import repro.core.emf.Emf
import repro.core.encode.{DbAgnostic, EncoderConfig, NodeVector}
import repro.core.geqo.GEqO
import repro.core.ir.Canon
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter
import repro.core.vmf.Vmf
import repro.gen.Workloads.LabeledPair
import repro.ml.Confusion
import repro.verifier.Verifier
import scala.collection.mutable

/** The production EMF and VMF as the benchmark sets them up. Training is
  * 1,000 TPC-H pairs x 8 epochs (the repo's default is 4,000 x 16, ~25 s):
  * small enough to repeat set-up three times per run and take the median.
  */
object Production {
  val TrainPairs = 1000
  val TrainEpochs = 8

  def setup(): ((Emf, Vmf), Double) = {
    val t0 = System.nanoTime()
    val emf = Experiments.trainEmf(TrainPairs, TrainEpochs, verbose = false)
    val trainS = (System.nanoTime() - t0) / 1e9
    ((emf, Experiments.calibrateVmf(emf)), trainS)
  }

  /** Held-out F1/recall of `emf` at the default 0.5 threshold. */
  def heldOut(emf: Emf, held: (Vector[LabeledPair], EncoderConfig)): Confusion = {
    val (pairs, cfg) = held
    Confusion.of(pairs.map(lp => emf.predict(lp.a, lp.b, cfg)), pairs.map(_.label))
  }
}

/** A workload whose request is one `GEqO.equivalenceSet` call on a freshly
  * generated plan set. `exact` selects the SF+AV pipeline (VMF and EMF off,
  * output must equal the truth set); otherwise the full cascade runs and
  * every reported pair must be in the truth set.
  */
final class Cascade(val name: String, val defaultSeed: Long, exact: Boolean,
                    val input: Long => CascadeInput) extends Workload {
  import Cascade._

  private val useVmf = !exact
  private val useEmf = !exact

  /** Sets the pipeline up several times; returns the last one and every
    * timing. The other products die here, so the retained heap at the end
    * of the run holds one pipeline.
    */
  private def setUp(runner: Runner): (GEqO, Vector[SetupSample]) = {
    val built =
      if (exact)
        runner.setups(15) {
          val emf = new Emf()
          (new GEqO(emf, new Vmf(emf, 1.0), new Verifier(), Experiments.tpcdsCfg), 0.0)
        }
      else
        runner.setups(3) {
          val ((emf, vmf), trainS) = Production.setup()
          (new GEqO(emf, vmf, new Verifier(), Experiments.tpcdsCfg, EmfThreshold), trainS)
        }
    (built.last._1, built.map(_._2))
  }

  private def solve(geqo: GEqO, in: CascadeInput): geqo.Result =
    geqo.equivalenceSet(in.plans, useSf = true, useVmf = useVmf, useEmf = useEmf)

  private def check(in: CascadeInput, found: Set[(Int, Int)]): Boolean =
    if (exact) found == in.truth && in.planted.subsetOf(found)
    else found.subsetOf(in.truth)

  /** Digest of the first `MinRequests` inputs' plans and truth sets. */
  private final class InputDigest {
    private val md = java.security.MessageDigest.getInstance("SHA-256")
    private var n = 0
    def add(in: CascadeInput): Unit = if (n < Runner.MinRequests) { in.digestInto(md); n += 1 }
    def hex: Option[String] =
      if (n < Runner.MinRequests) None else Some(Inputs.hex(md))
  }

  def run(seed: Long, runner: Runner, tracer: Option[Tracer], expected: Option[String]): Outcome = {
    val held = if (exact) None else Some(Inputs.heldOut())
    val (geqo, setupS) = setUp(runner)
    def inputAt(stream: Long, i: Int) = input(Seeds.of(seed, stream, i))

    val warm = runner.warmUp { i =>
      val in = inputAt(Seeds.WarmUp, i)
      tracer.foreach(_ => compose(geqo, in, new Tracer))
      solve(geqo, in)
    }

    val digest = new InputDigest
    var failed = 0
    var tp = 0L; var fp = 0L; var truthN = 0L
    val filterRawMs = mutable.ArrayBuffer.empty[Double]
    val avCalls = mutable.ArrayBuffer.empty[Long]
    val layer = new LayerTotals
    val tracedMs = mutable.ArrayBuffer.empty[Double]
    var shimPairs = Vector.empty[(Plan, Plan)]

    val window = runner.measure(Runner.MinRequests) { i =>
      val in = inputAt(Seeds.Measured, i)
      digest.add(in)
      var composed: Option[Composed] = None
      tracer.foreach { tr =>
        tr.request = i
        val t0 = System.nanoTime()
        composed = Some(tr.span("request")(compose(geqo, in, tr, layer)))
        tracedMs += (System.nanoTime() - t0) / 1e6
      }
      val calls0 = geqo.verifier.calls
      val t0 = System.nanoTime()
      val r = solve(geqo, in)
      val ms = (System.nanoTime() - t0) / 1e6
      var ok = check(in, r.equivalences)
      composed.foreach { c =>
        ok &&= c.sf == r.sfPairs && c.vmf == r.vmfPairs && c.emf == r.emfPairs &&
          c.verified == r.equivalences
        if (shimPairs.isEmpty) shimPairs = c.emf.take(4).map { case (a, b) => (in.plans(a), in.plans(b)) }
        tracer.foreach(tr => tr.span("probe")(probe(geqo, in, tr, layer)))
      }
      if (!ok) failed += 1
      val s = r.stats
      filterRawMs += (s.sfNanos + s.vmfNanos + s.emfNanos) / 1e6
      avCalls += geqo.verifier.calls - calls0
      if (i < Runner.MinRequests) {
        val hits = (r.equivalences & in.truth).size
        tp += hits; fp += r.equivalences.size - hits; truthN += in.truth.size
      }
      ms
    }

    val notes = mutable.ArrayBuffer(
      f"$name: seed $seed, ${window.size} requests in ${window.seconds}%.1f s " +
        f"(p90 has ${Stats.beyond(window.scaled, 0.9)} samples beyond it), " +
        f"raw p50 ${Stats.median(window.raw)}%.2f ms, reference kernel ${window.medianRefMs}%.3f ms, " +
        s"warm-up ${warm._1} requests${if (warm._2) " (stopped at the cap)" else ""}")
    val digestOk = expected.forall { want =>
      val got = digest.hex
      notes += s"$name: input digest for the default seed ${got.getOrElse("(fewer than 100 inputs)")}, " +
        s"expected $want"
      got.contains(want)
    }

    val values = mutable.Map.empty[String, Double]
    tracer match {
      case None =>
        val scaled = window.scaled
        values("latency_p50_ms") = Stats.quantile(scaled, 0.5)
        values("latency_p90_ms") = Stats.quantile(scaled, 0.9)
        values("setup_s") = Stats.median(setupS.map(_.scaledS))
        values("recall") = tp.toDouble / math.max(1L, truthN)
        values("paper_av_cost_s") = Stats.mean(filterRawMs.indices.map { k =>
          filterRawMs(k) * window.factor(k) / 1000 + avCalls(k) * Metrics.PaperAvSecondsPerCall
        })
        values("tuned_f1") = held match {
          case Some(h) => Production.heldOut(geqo.emf, h).f1
          case None    => Confusion(tp, fp, 0, truthN - tp).f1
        }
        values("retained_heap_mb") = Jvm.retainedHeapMb()
      case Some(tr) =>
        val factor = window.medianFactor
        values ++= layer.values(tr, window.size, factor)
        if (!exact) {
          values ++= paperScaleVmf(geqo, seed)
          values("av.shim_ms_per_call") = shimMs(shimPairs) * factor
        }
        values("emf.train_s") = Stats.median(setupS.map(_.trainScaledS))
        values("jvm.gc_ms") = window.gcMs.toDouble
        values("jvm.jit_ms") = window.jitMs.toDouble
        values("ref.ms") = window.medianRefMs
        values("raw.latency_p50_ms") = Stats.median(window.raw)
        values("raw.setup_s") = Stats.median(setupS.map(_.rawS))
        values("trace.overhead") = Stats.median(tracedMs.toSeq) / Stats.median(window.raw)
        notes += s"$name: traced/untraced median latency ${values("trace.overhead")}"
    }
    java.lang.ref.Reference.reachabilityFence(geqo)
    Outcome(Result(failed == 0 && digestOk, window.size, failed, values.toMap), notes.toVector)
  }

  private final case class Composed(sf: Vector[(Int, Int)], vmf: Vector[(Int, Int)],
                                    emf: Vector[(Int, Int)], verified: Set[(Int, Int)])

  /** `GEqO.equivalenceSet` rebuilt from the public layer calls, one span per
    * call into a layer.
    */
  private def compose(geqo: GEqO, in: CascadeInput, tr: Tracer,
                      layer: LayerTotals = new LayerTotals): Composed = {
    val inst = geqo.inst
    val plans = in.plans
    val enc = plans.map(p => tr.span("encode")(NodeVector.encodeInstance(p, inst)))
    val groups = tr.span("sf")(SchemaFilter.groups(plans))
    val sf = groups.flatMap(allPairs)
    val vmf = groups.flatMap { g =>
      if (useVmf)
        tr.span("vmf")(geqo.vmf.candidatePairs(g.map(enc), inst)).map { case (a, b) => ordered(g(a), g(b)) }
      else allPairs(g)
    }
    val emf =
      if (useEmf)
        vmf.filter { case (i, j) =>
          tr.span("emf")(geqo.emf.predictProbInstanceEncoded(enc(i), enc(j), inst)) >= EmfThreshold
        }
      else vmf
    val verified = emf.filter { case (i, j) =>
      val v = tr.span("av")(geqo.verifier.equivalent(plans(i), plans(j)))
      if (v) { layer.avPosNs += tr.lastSpanNs; layer.avPos += 1 }
      else { layer.avNegNs += tr.lastSpanNs; layer.avNeg += 1 }
      v
    }.toSet
    layer.groups += groups.size
    layer.maxGroup += groups.map(_.size).max
    layer.sfOut += sf.size
    layer.vmfOut += vmf.size
    layer.emfIn += vmf.size
    layer.emfOut += emf.size
    layer.verified += verified.size
    Composed(sf, vmf, emf, verified)
  }

  /** Per-request measurements outside the composed cascade: one flatten per
    * plan, the VMF's group embedding, and encoding-slot overflow.
    */
  private def probe(geqo: GEqO, in: CascadeInput, tr: Tracer, layer: LayerTotals): Unit = {
    in.plans.foreach(p => tr.span("canon.flatten")(Canon.flatten(p)))
    layer.flattens += in.plans.size
    val groups = SchemaFilter.groups(in.plans)
    layer.overflow += groups.count(g => overflows(g.map(in.plans), geqo.emf.agn))
    if (useVmf) {
      val enc = in.plans.map(NodeVector.encodeInstance(_, geqo.inst))
      groups.foreach(g => tr.span("vmf.embed")(geqo.vmf.embedGroup(g.map(enc), geqo.inst)))
    }
  }

  /** HNSW groups and in-radius pairs HNSW misses, on the paper-size
    * (317-plan) workload for this seed: the request workloads' SF groups
    * stay below the 64-plan brute-force threshold, so only this shows them.
    */
  private def paperScaleVmf(geqo: GEqO, seed: Long): Map[String, Double] = {
    val plans = Inputs.table1PaperScale(seed)
    val enc = plans.map(NodeVector.encodeInstance(_, geqo.inst))
    val big = SchemaFilter.groups(plans).filter(_.size > BruteForceBelow)
    val missed = big.map { g =>
      val ge = g.map(enc)
      val embs = geqo.vmf.embedGroup(ge, geqo.inst)
      val found = geqo.vmf.candidatePairs(ge, geqo.inst).toSet
      val exactPairs = for {
        i <- embs.indices; j <- (i + 1) until embs.size
        if dist(embs(i), embs(j)) <= geqo.vmf.tau
      } yield (i, j)
      exactPairs.count(p => !found(p))
    }
    Map("vmf.hnsw_groups" -> big.size.toDouble, "vmf.radius_missed" -> missed.sum.toDouble)
  }

  private def shimMs(pairs: Vector[(Plan, Plan)]): Double =
    if (pairs.isEmpty) 0.0
    else {
      val shim = new Verifier(Experiments.AvSmtIters)
      Stats.median(pairs.map { case (p, q) =>
        val t0 = System.nanoTime(); shim.equivalent(p, q); (System.nanoTime() - t0) / 1e6
      })
    }
}

object Cascade {
  /** Experiments.table1's EMF threshold. */
  val EmfThreshold = 0.3
  /** `Vmf.candidatePairs`' default: larger groups go through HNSW. */
  val BruteForceBelow = 64

  val table1 = new Cascade("table1-cascade", 7L, exact = false, Inputs.table1)
  val classesExact = new Cascade("classes-exact", 11L, exact = true, Inputs.classes)

  private def ordered(i: Int, j: Int): (Int, Int) = if (i < j) (i, j) else (j, i)

  private def allPairs(g: Vector[Int]): Vector[(Int, Int)] =
    for { a <- g.indices.toVector; b <- (a + 1) until g.size } yield ordered(g(a), g(b))

  private def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Whether a group's joint references exceed the agnostic encoding's
    * table or per-table column slots (DbAgnostic.convert drops the excess).
    */
  def overflows(plans: Seq[Plan], agn: EncoderConfig): Boolean = {
    val refs = plans.map(DbAgnostic.referenced)
    val tables = refs.flatMap(_._1).toSet
    val cols = refs.flatMap(_._2).toSet
    tables.size > agn.nT || cols.groupBy(_.table).values.exists(_.size > agn.nC / agn.nT)
  }
}

/** Counters the traced cascade accumulates; times come from the spans. */
final class LayerTotals {
  var groups, maxGroup, sfOut, vmfOut, emfIn, emfOut, verified, overflow, flattens = 0L
  var avPos, avNeg, avPosNs, avNegNs = 0L

  /** Per-request means over `n` requests; times scaled by `factor`. */
  def values(tr: Tracer, n: Int, factor: Double): Map[String, Double] = {
    val self = tr.selfNanos().withDefaultValue(0L)
    def perReqMs(span: String) = self(span) / 1e6 / n * factor
    def us(ns: Double, calls: Long) = if (calls == 0) 0.0 else ns / 1e3 / calls * factor
    val calls = avPos + avNeg
    Map(
      "sf.ms" -> perReqMs("sf"), "sf.groups" -> groups.toDouble / n,
      "sf.max_group" -> maxGroup.toDouble / n, "sf.pairs_out" -> sfOut.toDouble / n,
      "encode.ms" -> perReqMs("encode"), "encode.overflow_groups" -> overflow.toDouble / n,
      "vmf.ms" -> perReqMs("vmf"), "vmf.embed_ms" -> perReqMs("vmf.embed"),
      "vmf.pairs_out" -> vmfOut.toDouble / n,
      "emf.ms" -> perReqMs("emf"), "emf.pairs_in" -> emfIn.toDouble / n,
      "emf.pairs_out" -> emfOut.toDouble / n, "emf.us_per_pair" -> us(self("emf").toDouble, emfIn),
      "av.ms" -> perReqMs("av"), "av.calls" -> calls.toDouble / n,
      "av.verified" -> verified.toDouble / n,
      "av.yield" -> (if (calls == 0) 0.0 else verified.toDouble / calls),
      "av.us_per_call_pos" -> us(avPosNs.toDouble, avPos),
      "av.us_per_call_neg" -> us(avNegNs.toDouble, avNeg),
      "canon.flatten_us" -> us(self("canon.flatten").toDouble, flattens),
    )
  }
}
