package perfbench

import repro.core.emf.Emf
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter
import repro.core.ssfl.Ssfl
import repro.core.vmf.Vmf
import repro.ml.Confusion
import repro.verifier.Verifier
import scala.collection.mutable

/** ssfl-drift: the production EMF meets a seeded sequence of random-schema
  * workloads, one `Ssfl.step` per round with `th = 1.0` so every round runs
  * monitor, filter-balanced sample and fine-tune. Each of the run's three
  * set-ups yields a fresh EMF that runs one episode of `RoundsPerEpisode`
  * rounds. The round count is fixed, not timed, so `tuned_f1` is read after
  * the same rounds on every run; at the nominal host speed the rounds take
  * about 15 s. The sample cap of 32 pairs (one minibatch) makes every round
  * take the same number of optimizer steps.
  */
object Drift extends Workload {
  val name = "ssfl-drift"
  val defaultSeed = 13L
  val Episodes = 3
  val RoundsPerEpisode = 40
  /** The held-out set is scored after every `EvalEvery`-th round. */
  val EvalEvery = 4
  val Threshold = 1.0
  val Batch = 32
  val Epochs = 3

  def run(seed: Long, runner: Runner, tracer: Option[Tracer], expected: Option[String]): Outcome = {
    val held = Inputs.heldOut()
    val built = runner.setups(Episodes)(Production.setup())
    val setupS = built.map(_._2)
    val verifier = new Verifier()

    // Warm-up tunes a throwaway, untrained EMF so the episodes' models start
    // exactly as set up.
    val scratch = new Emf(seed = 1, dropout = 0.2)
    val scratchVmf = new Vmf(scratch, built.head._1._2.tau)
    val warm = runner.warmUp { i =>
      val in = Inputs.drift(Seeds.of(seed, Seeds.WarmUp, i))
      val ssfl = new Ssfl(scratch, scratchVmf, verifier, in.cfg, th = Threshold, seed = in.ssflSeed)
      tracer match {
        case Some(_) => round(ssfl, in, new Tracer)
        case None    => ssfl.step(in.plans, Batch, Epochs)
      }
    }

    var failed = 0
    var heldOut = Confusion.empty
    val avCalls = mutable.ArrayBuffer.empty[Long]
    var samplePos, sampleAll, pairs = 0L
    var confident = 0.0
    val monitorUntracedMs = mutable.ArrayBuffer.empty[Double]
    var groups, maxGroup, sfOut = 0L
    val total = Episodes * RoundsPerEpisode

    val window = runner.measure(total, total) { k =>
      val ((emf, vmf), _) = built(k / RoundsPerEpisode)
      val in = Inputs.drift(Seeds.of(seed, Seeds.Measured, k))
      val ssfl = new Ssfl(emf, vmf, verifier, in.cfg, th = Threshold, seed = in.ssflSeed)
      val calls0 = verifier.calls
      val t0 = System.nanoTime()
      val tuned = tracer match {
        case None => ssfl.step(in.plans, Batch, Epochs)._2
        case Some(tr) =>
          tr.request = k
          val (cl, sample) = tr.span("request")(round(ssfl, in, tr))
          samplePos += sample.count(_._3); sampleAll += sample.size
          val n = in.plans.size.toLong * (in.plans.size - 1) / 2
          pairs += n; confident += cl * n
          cl < Threshold && sample.nonEmpty
      }
      val ms = (System.nanoTime() - t0) / 1e6
      avCalls += verifier.calls - calls0
      if (!tuned) failed += 1
      if (k % EvalEvery == EvalEvery - 1)
        heldOut += Production.heldOut(emf, held)
      tracer.foreach { tr =>
        val m0 = System.nanoTime()
        ssfl.confidence(in.plans)
        monitorUntracedMs += (System.nanoTime() - m0) / 1e6
        val g = tr.span("probe")(tr.span("sf")(SchemaFilter.groups(in.plans)))
        groups += g.size; maxGroup += g.map(_.size).max
        sfOut += g.map(x => x.size.toLong * (x.size - 1) / 2).sum
      }
      ms
    }

    val n = window.size
    val notes = Vector(
      f"$name: seed $seed, $n rounds in ${window.seconds}%.1f s " +
        f"(p90 has ${Stats.beyond(window.scaled, 0.9)} samples beyond it), " +
        f"raw p50 ${Stats.median(window.raw)}%.2f ms, reference kernel ${window.medianRefMs}%.3f ms, " +
        s"warm-up ${warm._1} rounds${if (warm._2) " (stopped at the cap)" else ""}, " +
        s"held-out ${heldOut}")
    val values = mutable.Map.empty[String, Double]
    tracer match {
      case None =>
        val scaled = window.scaled
        values("latency_p50_ms") = Stats.quantile(scaled, 0.5)
        values("latency_p90_ms") = Stats.quantile(scaled, 0.9)
        values("setup_s") = Stats.median(setupS.map(_.scaledS))
        values("recall") = heldOut.recall
        values("tuned_f1") = heldOut.f1
        values("paper_av_cost_s") = Stats.mean(window.raw.indices.map { k =>
          scaled(k) / 1000 + avCalls(k) * Metrics.PaperAvSecondsPerCall
        })
        values("retained_heap_mb") = Jvm.retainedHeapMb()
      case Some(tr) =>
        val factor = window.medianFactor
        val self = tr.selfNanos().withDefaultValue(0L)
        def perRoundMs(span: String) = self(span) / 1e6 / n * factor
        values("ssfl.monitor_ms") = perRoundMs("ssfl.monitor")
        values("ssfl.sample_ms") = perRoundMs("ssfl.sample")
        values("ssfl.fit_ms") = perRoundMs("emf.fit")
        values("ssfl.sample_pos_share") = samplePos.toDouble / math.max(1L, sampleAll)
        values("emf.ms") = perRoundMs("ssfl.monitor")
        values("emf.pairs_in") = pairs.toDouble / n
        values("emf.pairs_out") = confident / n
        values("emf.us_per_pair") = self("ssfl.monitor") / 1e3 / math.max(1L, pairs) * factor
        values("emf.train_s") = Stats.median(setupS.map(_.trainScaledS))
        values("av.calls") = avCalls.sum.toDouble / n
        values("sf.ms") = perRoundMs("sf")
        values("sf.groups") = groups.toDouble / n
        values("sf.max_group") = maxGroup.toDouble / n
        values("sf.pairs_out") = sfOut.toDouble / n
        values("jvm.gc_ms") = window.gcMs.toDouble
        values("jvm.jit_ms") = window.jitMs.toDouble
        values("ref.ms") = window.medianRefMs
        values("raw.latency_p50_ms") = Stats.median(window.raw)
        values("raw.setup_s") = Stats.median(setupS.map(_.rawS))
        values("trace.overhead") =
          Stats.median(tr.totalsByRequest("ssfl.monitor").values.map(_ / 1e6).toSeq) /
            Stats.median(monitorUntracedMs.toSeq)
    }
    java.lang.ref.Reference.reachabilityFence(built)
    Outcome(Result(failed == 0, n, failed, values.toMap), notes)
  }

  /** `Ssfl.step` rebuilt from its three public phases, one span each.
    * Returns the pre-tuning confidence and the fine-tuning sample.
    */
  def round(ssfl: Ssfl, in: DriftInput, tr: Tracer): (Double, Vector[(Plan, Plan, Boolean)]) = {
    val cl = tr.span("ssfl.monitor")(ssfl.confidence(in.plans))
    if (cl >= Threshold) (cl, Vector.empty)
    else {
      val sample = tr.span("ssfl.sample")(ssfl.filterBalancedSample(in.plans, Batch))
      if (sample.nonEmpty) tr.span("emf.fit")(ssfl.emf.fit(sample, in.cfg, Epochs))
      (cl, sample)
    }
  }
}
