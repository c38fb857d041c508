package perfbench

import java.security.MessageDigest
import repro.core.encode.EncoderConfig
import repro.core.ir.Ir.Plan
import repro.core.ir.{Catalogs, Schema}
import repro.gen.{QueryGen, Rewrites, Workloads}
import scala.util.Random

/** Seed derivation: every input is a pure function of (run seed, stream,
  * index), so the same seed gives the same inputs and warm-up inputs never
  * repeat measured ones.
  */
object Seeds {
  val Measured = 1L
  val WarmUp = 2L

  def of(seed: Long, stream: Long, i: Long): Long =
    splitmix(seed ^ splitmix(stream * 0x632BE59BD9B4E019L + i))

  private def splitmix(x0: Long): Long = {
    var z = x0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}

/** A cascade request: plans plus the pairs known to be equivalent. */
final case class CascadeInput(plans: Vector[Plan], truth: Set[(Int, Int)],
                              planted: Set[(Int, Int)]) {
  def digestInto(md: MessageDigest): Unit = {
    plans.foreach(p => md.update(p.toString.getBytes("UTF-8")))
    truth.toVector.sorted.foreach { case (i, j) => md.update(s"$i,$j;".getBytes("UTF-8")) }
  }
}

/** One SSFL round's input: a workload over a fresh random schema. */
final case class DriftInput(schema: Schema, cfg: EncoderConfig, plans: Vector[Plan], ssflSeed: Long) {
  def digestInto(md: MessageDigest): Unit = {
    md.update(schema.toString.getBytes("UTF-8"))
    plans.foreach(p => md.update(p.toString.getBytes("UTF-8")))
  }
}

object Inputs {

  /** Paper §7.5 shape scaled to ~1/5 of its 317 subexpressions, keeping the
    * ratio of planted 2-member classes (317:50). A full-size workload costs
    * ~0.6 s per request, too slow for 100 requests per run.
    */
  val Table1Subexprs = 64
  val Table1Classes = 10

  def table1(seed: Long): CascadeInput = {
    val es = Workloads.evalWorkload(Catalogs.tpcdsLite, Table1Subexprs, Table1Classes, seed)
    CascadeInput(es.subexprs, es.truth, Set.empty)
  }

  /** The paper-size Table-1 workload, for the VMF probe of the traced run. */
  def table1PaperScale(seed: Long): Vector[Plan] =
    Workloads.evalWorkload(Catalogs.tpcdsLite, 317, 50, seed).subexprs

  /** Tables per shape: two shapes each of one, two and three tables. One
    * planted class per shape keeps requests alike across seeds.
    */
  val ClassShapes = Vector(1, 2, 3, 1, 2, 3)
  val ClassBases = 6
  val ClassMembers = 15
  val ClassSingletons = 60

  /** `ClassBases` planted classes of `ClassMembers` rewrites of one base,
    * plus singletons, all over `ClassShapes`. The planted pairs are known by
    * construction (every rewrite is semantics-preserving); the truth set adds
    * any accidental equivalences the verifier finds.
    */
  def classes(seed: Long): CascadeInput = {
    val rng = new Random(seed)
    val schema = Catalogs.tpcdsLite
    val shapes = ClassShapes.map(n => (walkOf(schema, n, rng), 1 + rng.nextInt(3)))
    def plan(shape: Int): Plan = {
      val (walk, arity) = shapes(shape)
      QueryGen.assemble(QueryGen.specOver(schema, walk, arity, rng), rng)
    }
    val labelled = Vector.newBuilder[(Plan, Int)]
    for (b <- 0 until ClassBases) {
      val base = plan(b % shapes.size)
      labelled += ((base, b))
      for (_ <- 1 until ClassMembers)
        labelled += ((Rewrites.variant(base, rng, heavy = rng.nextBoolean()), b))
    }
    for (s <- 0 until ClassSingletons) labelled += ((plan(s % shapes.size), -1 - s))
    val all = rng.shuffle(labelled.result())
    val planted = (for {
      i <- all.indices
      j <- (i + 1) until all.size
      if all(i)._2 == all(j)._2
    } yield (i, j)).toSet
    val plans = all.map(_._1)
    CascadeInput(plans, Workloads.groundTruth(plans), planted)
  }

  private def walkOf(schema: Schema, n: Int, rng: Random): Vector[String] =
    Iterator.continually(QueryGen.tableWalk(schema, rng, n)).find(_.size == n).get

  val DriftSubexprs = 30
  val DriftClasses = 5

  def drift(seed: Long): DriftInput = {
    val schema = Catalogs.random(seed)
    val plans = Workloads.evalWorkload(schema, DriftSubexprs, DriftClasses, seed).subexprs
    DriftInput(schema, EncoderConfig.forSchema(schema), plans, seed)
  }

  /** Held-out labeled pairs over a random schema no round uses. */
  val HeldOutSeed = 424242L
  val HeldOutPairs = 400

  def heldOut(): (Vector[Workloads.LabeledPair], EncoderConfig) = {
    val schema = Catalogs.random(HeldOutSeed)
    (Workloads.labeledPairs(schema, HeldOutPairs, HeldOutSeed), EncoderConfig.forSchema(schema))
  }

  def sha256(f: MessageDigest => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    f(md)
    hex(md)
  }

  def hex(md: MessageDigest): String = md.digest().map(b => f"$b%02x").mkString
}
