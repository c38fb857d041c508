package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Host-speed normalization. A fixed reference kernel runs between
  * requests; each request's wall time is scaled by `NominalMs / beside`,
  * where `beside` is the kernel time measured around it (see
  * [[Window.refMs]]). A host that runs at half speed doubles both the
  * request and the kernel, so the scaled time stays put.
  */
object Reference {

  /** Median kernel time, in ms, on the host the benchmark was calibrated on
    * (4-core x86-64 VM, OpenJDK 17, `-XX:+UseSerialGC -Xms1g -Xmx1g`).
    * Scaled timings read as "ms on that host".
    */
  val NominalMs: Double = 2.0

  def scale(rawMs: Double, besideMs: Double): Double = rawMs * NominalMs / besideMs

  @volatile private var sink: Double = 0.0
  private val N = 48
  private val weights = Array.tabulate(N * N)(i => ((i * 7919) % 101 - 50) / 50.0)

  private final class Node(val key: Long, var count: Int, val next: Node)

  /** The kernel mixes the program's two kinds of work: dense floating-point
    * loops over `Array[Double]` (the EMF/VMF towers) and allocation plus
    * pointer chasing (canonicalization and the verifier's search). It calls
    * no library code, so the program's own type profiles cannot deoptimize
    * it mid-run.
    */
  def kernel(): Unit = {
    var x = Array.tabulate(N)(i => (i + 1.0) / N)
    var rep = 0
    while (rep < 160) {
      val y = new Array[Double](N)
      var r = 0
      while (r < N) {
        var s = 0.0
        var c = 0
        while (c < N) { s += weights(r * N + c) * x(c); c += 1 }
        y(r) = if (s > 0) s else 0.25 * s
        r += 1
      }
      var norm = 1e-9
      var k = 0
      while (k < N) { norm += math.abs(y(k)); k += 1 }
      k = 0
      while (k < N) { y(k) /= norm; k += 1 }
      x = y
      rep += 1
    }
    val buckets = new Array[Node](257)
    var total = 0L
    var i = 0
    while (i < 60000) {
      val key = (i * 2654435761L) % 3001
      val b = (key % buckets.length).toInt
      var n = buckets(b)
      while (n != null && n.key != key) { total += n.count; n = n.next }
      if (n == null) buckets(b) = new Node(key, 1, buckets(b)) else n.count += 1
      i += 1
    }
    sink = x(0) + total
  }

  def timeMs(): Double = {
    val t0 = System.nanoTime()
    kernel()
    (System.nanoTime() - t0) / 1e6
  }

  /** Runs the kernel until the JIT has compiled it, before anything is timed. */
  def warm(): Unit = (0 until 500).foreach(_ => kernel())

  /** Median of 9 consecutive kernel runs: used around long set-up calls. */
  def burstMs(): Double = Stats.median(Vector.fill(9)(timeMs()))
}

/** Order statistics used by every metric. */
object Stats {

  /** Linear interpolation between closest ranks (the common "type 7"). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val h = (s.size - 1) * q
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Samples strictly above the `q` quantile. */
  def beyond(xs: Seq[Double], q: Double): Int = {
    val v = quantile(xs, q)
    xs.count(_ > v)
  }
}

/** JVM counters read over a measured window. */
object Jvm {
  def compileMs: Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Used heap after two full collections (Serial GC runs a full collection
    * on `System.gc()`), in MB.
    */
  def retainedHeapMb(): Double = {
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
