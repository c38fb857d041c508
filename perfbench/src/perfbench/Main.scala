package perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

/** A run's result plus human-readable notes for standard error. */
final case class Outcome(result: Result, notes: Vector[String])

/** A named workload. `expected` is the frozen input digest, given only
  * when the run uses the default seed and a digest is on file.
  */
trait Workload {
  def name: String
  def defaultSeed: Long
  def run(seed: Long, runner: Runner, tracer: Option[Tracer], expected: Option[String]): Outcome
}

/** Benchmark entry point. Arguments:
  *
  *   --workload table1-cascade | classes-exact | ssfl-drift
  *   --seed n       input seed (default: the workload's own)
  *   --seconds n    measured window of the timed workloads
  *   --trace 0|1    1 = traced run: per-layer metrics and a span file
  *   --dir path     the benchmark's directory (frozen digests)
  *   --out path     where the traced run writes its spans
  *
  * The last line of standard output is the result JSON.
  */
object Main {
  val Workloads: Vector[Workload] = Vector(Cascade.table1, Cascade.classesExact, Drift)

  /** The frozen input digest of a workload's default seed, if it has one. */
  def expectedDigest(dir: File, workload: String): Option[String] = {
    val f = new File(dir, s"expected/$workload.sha256")
    if (f.isFile) Some(new String(Files.readAllBytes(f.toPath), StandardCharsets.UTF_8).trim) else None
  }

  def run(workload: Workload, seed: Long, seconds: Double, tracer: Option[Tracer], dir: File): Outcome = {
    Reference.warm()
    val expected = if (seed == workload.defaultSeed) expectedDigest(dir, workload.name) else None
    workload.run(seed, new Runner(seconds), tracer, expected)
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k -> v }.toMap
    def fail(msg: String): Nothing = { Console.err.println(s"perfbench: $msg"); sys.exit(2) }
    val name = opts.getOrElse("--workload", fail("--workload is required"))
    val workload = Workloads.find(_.name == name).getOrElse(
      fail(s"unknown workload $name; one of ${Workloads.map(_.name).mkString(", ")}"))
    val seed = opts.get("--seed").map(_.toLong).getOrElse(workload.defaultSeed)
    val seconds = opts.get("--seconds").map(_.toDouble).getOrElse(20.0)
    val trace = opts.get("--trace").contains("1")
    val dir = new File(opts.getOrElse("--dir", "perfbench"))
    val tracer = if (trace) Some(new Tracer) else None

    val outcome = run(workload, seed, seconds, tracer, dir)
    outcome.notes.foreach(n => Console.err.println(s"perfbench: $n"))
    val values = tracer.fold(outcome.result.values) { tr =>
      val file = new File(opts.getOrElse("--out", ".bench_build/perfbench"), s"traces/$name-$seed.tsv")
      tr.write(file)
      Console.err.println(s"perfbench: ${tr.size} spans written to $file")
      Console.err.println(s"perfbench: self time by span: ${selfShares(tr)}")
      Metrics.PerLayer.map(_._1).filterNot(outcome.result.values.contains).map(_ -> 0.0).toMap ++
        outcome.result.values
    }
    println(outcome.result.copy(values = values).json(trace))
  }

  /** Share of all self time per span name, largest first. */
  def selfShares(tr: Tracer): String = {
    val self = tr.selfNanos()
    val total = math.max(1L, self.values.sum).toDouble
    self.toVector.sortBy(-_._2).map { case (n, ns) => f"$n ${100 * ns / total}%.1f%%" }.mkString(", ")
  }
}
