package perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import repro.core.emf.Emf
import repro.core.ssfl.Ssfl
import repro.core.vmf.Vmf
import repro.verifier.Verifier
import scala.util.control.NonFatal

/** The benchmark's own tests. Run with `python3 perfbench/run.py --self-test`;
  * exits 1 if any test fails.
  */
object SelfTest {
  private var failures = 0

  private def test(name: String)(body: => Unit): Unit = {
    val t0 = System.nanoTime()
    try { body; println(f"ok   $name (${(System.nanoTime() - t0) / 1e9}%.1f s)") }
    catch {
      case NonFatal(e) =>
        failures += 1
        println(s"FAIL $name: $e")
    }
  }

  private def near(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  def main(args: Array[String]): Unit = {
    val dir = new File(if (args.nonEmpty) args(0) else "perfbench")

    test("scaling divides by the kernel time beside the request") {
      val w = Window(raw = Vector(30.0, 30.0), kernelMs = Vector(1.0, 2.0, 3.0), 1.0, 0, 0)
      assert(w.refMs(0) == 2.0 && w.refMs(1) == 2.0)
      assert(near(w.scaled(0), 30.0 * Reference.NominalMs / 2.0))
      assert(near(w.factor(1) * w.raw(1), w.scaled(1)))
      // A host at half speed doubles both the request and the kernel.
      val slow = Window(raw = Vector(60.0, 60.0), kernelMs = Vector(2.0, 4.0, 6.0), 1.0, 0, 0)
      assert(near(slow.scaled(0), w.scaled(0)))
      // The kernel time beside request i is the median of the three runs
      // before it and the three after it.
      val long = Window(Vector.fill(6)(10.0), Vector(9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 1.0, 0, 0)
      assert(long.refMs(3) == Stats.median(Vector(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)))
      val setup = SetupSample(rawS = 4.0, trainRawS = 3.0, refMs = Reference.NominalMs * 2)
      assert(near(setup.scaledS, 2.0) && near(setup.trainScaledS, 1.5))
    }

    test("quantiles interpolate between closest ranks") {
      val xs = Vector(5.0, 1.0, 4.0, 2.0, 3.0)
      assert(Stats.median(xs) == 3.0)
      assert(near(Stats.quantile(xs, 0.9), 4.6))
      assert(Stats.quantile(xs, 0.0) == 1.0 && Stats.quantile(xs, 1.0) == 5.0)
      assert(Stats.beyond((1 to 100).map(_.toDouble), 0.9) == 10)
    }

    test("self time subtracts direct children") {
      val tr = new Tracer
      def spin(ms: Double): Unit = { val end = System.nanoTime() + (ms * 1e6).toLong; while (System.nanoTime() < end) () }
      tr.span("outer") { spin(2); tr.span("inner")(spin(3)); spin(1) }
      val self = tr.selfNanos()
      val total = tr.totalsByRequest("outer")(0)
      assert(self("outer") + self("inner") == total)
      assert(self("inner") >= 3e6 && self("outer") >= 3e6 && self("outer") < total)
    }

    test("inputs are a pure function of the seed") {
      def twice(f: Long => String): Unit = {
        val a = f(Seeds.of(5, Seeds.Measured, 0))
        assert(a == f(Seeds.of(5, Seeds.Measured, 0)), "same seed, different inputs")
        assert(a != f(Seeds.of(6, Seeds.Measured, 0)), "different seeds, same inputs")
        assert(a != f(Seeds.of(5, Seeds.WarmUp, 0)), "warm-up repeats a measured input")
      }
      twice(s => Inputs.sha256(Inputs.table1(s).digestInto))
      twice(s => Inputs.sha256(Inputs.classes(s).digestInto))
      twice(s => Inputs.sha256(Inputs.drift(s).digestInto))
    }

    test("classes-exact plants large classes the truth set contains") {
      val in = Inputs.classes(Seeds.of(11, Seeds.Measured, 0))
      val size = Inputs.ClassBases * Inputs.ClassMembers + Inputs.ClassSingletons
      assert(in.plans.size == size)
      val perClass = Inputs.ClassMembers * (Inputs.ClassMembers - 1) / 2
      assert(in.planted.size == Inputs.ClassBases * perClass)
      assert(in.planted.subsetOf(in.truth))
    }

    for (c <- Vector(Cascade.table1, Cascade.classesExact))
      test(s"${c.name}: default-seed inputs match the frozen digest") {
        val want = Main.expectedDigest(dir, c.name)
        assert(want.isDefined, s"no expected/${c.name}.sha256")
        val got = Inputs.sha256 { md =>
          (0 until Runner.MinRequests).foreach { i =>
            c.input(Seeds.of(c.defaultSeed, Seeds.Measured, i)).digestInto(md)
          }
        }
        assert(want.contains(got), s"digest $got")
      }

    test("an ssfl-drift round runs monitor, sample and fine-tune") {
      val emf = new Emf(seed = 1, dropout = 0.2)
      val vmf = new Vmf(emf, tau = 1e9) // admit every SF pair: the sample is never empty
      val in = Inputs.drift(Seeds.of(13, Seeds.Measured, 0))
      val tr = new Tracer
      val ssfl = new Ssfl(emf, vmf, new Verifier(), in.cfg, th = Drift.Threshold, seed = in.ssflSeed)
      val (cl, sample) = Drift.round(ssfl, in, tr)
      assert(cl < Drift.Threshold && sample.nonEmpty)
      val spans = tr.selfNanos().keySet
      assert(Set("ssfl.monitor", "ssfl.sample", "emf.fit").subsetOf(spans), spans.toString)
      val again = new Ssfl(emf, vmf, new Verifier(), in.cfg, th = Drift.Threshold, seed = in.ssflSeed)
      assert(again.step(in.plans, Drift.Batch, Drift.Epochs)._2, "Ssfl.step did not fine-tune")
    }

    test("BENCHMARK.json names exactly the metrics the benchmark reports") {
      val json = new String(Files.readAllBytes(new File(dir.getParentFile, "BENCHMARK.json").toPath),
                            StandardCharsets.UTF_8)
      def section(key: String): Set[String] = {
        val start = json.indexOf(s""""$key"""")
        val body = json.substring(start, json.indexOf("]", start))
        """"name":\s*"([^"]+)"""".r.findAllMatchIn(body).map(_.group(1)).toSet
      }
      assert(section("end_to_end") == Metrics.EndToEnd.map(_._1).toSet)
      assert(section("per_layer") == Metrics.PerLayer.map(_._1).toSet)
      assert(section("workloads") == Main.Workloads.map(_.name).toSet)
    }

    println(if (failures == 0) "self-test passed" else s"self-test: $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
