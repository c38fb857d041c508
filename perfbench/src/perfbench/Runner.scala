package perfbench

import scala.collection.mutable.ArrayBuffer

/** One measured set-up: raw seconds, and raw seconds of its training part. */
final case class SetupSample(rawS: Double, trainRawS: Double, refMs: Double) {
  def scaledS: Double = Reference.scale(rawS, refMs)
  def trainScaledS: Double = Reference.scale(trainRawS, refMs)
}

/** The measurement skeleton every workload shares: repeated set-up,
  * JIT-quiet warm-up, and a request loop interleaved with the reference
  * kernel. Everything runs on the calling thread.
  */
final class Runner(val seconds: Double) {
  import Runner._

  /** Runs `f` `n` times with a kernel burst on each side and returns every
    * product with its timing. `f` returns the product and the raw seconds
    * spent training (0 when the set-up trains nothing).
    */
  def setups[S](n: Int)(f: => (S, Double)): Vector[(S, SetupSample)] =
    Vector.fill(n) {
      val before = Reference.burstMs()
      val t0 = System.nanoTime()
      val (s, trainS) = f
      val raw = (System.nanoTime() - t0) / 1e9
      val after = Reference.burstMs()
      (s, SetupSample(raw, trainS, (before + after) / 2))
    }

  /** Runs unmeasured steps until JIT compilation goes quiet: the compiler's
    * total time rises by at most `QuietShare` of the wall time over
    * `QuietSteps` consecutive steps. Stops at `WarmCapS` regardless.
    * Returns (steps run, whether the cap ended it).
    */
  def warmUp(step: Int => Unit): (Int, Boolean) = {
    val start = System.nanoTime()
    var quiet = 0
    var i = 0
    var capped = false
    while (quiet < QuietSteps && !capped) {
      val c0 = Jvm.compileMs
      val t0 = System.nanoTime()
      step(i)
      Reference.timeMs()
      val wallMs = (System.nanoTime() - t0) / 1e6
      val compiled = Jvm.compileMs - c0
      quiet = if (i >= MinWarmSteps && compiled <= QuietShare * wallMs) quiet + 1 else 0
      i += 1
      capped = (System.nanoTime() - start) / 1e9 > WarmCapS
    }
    (i, capped)
  }

  /** Times `step(i)` for i = 0, 1, ... until `seconds` have passed and at
    * least `minCount` requests ran, or `maxCount` requests ran. `step`
    * prepares and checks its own input outside the interval it times and
    * returns that interval in ms.
    */
  def measure(minCount: Int, maxCount: Int = Int.MaxValue)(step: Int => Double): Window = {
    val raw = ArrayBuffer.empty[Double]
    val gc0 = Jvm.gcMs
    val jit0 = Jvm.compileMs
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    val kernel = ArrayBuffer(Reference.timeMs())
    var i = 0
    while (i < maxCount && (i < minCount || elapsed < seconds) && elapsed < HardCapS) {
      raw += step(i)
      kernel += Reference.timeMs()
      i += 1
    }
    Window(raw.toVector, kernel.toVector, elapsed, Jvm.gcMs - gc0, Jvm.compileMs - jit0)
  }
}

/** A measured window: each request's raw ms, the reference kernel's ms
  * before the first request and after each one (`kernelMs(i)` ran just
  * before request i, `kernelMs(i + 1)` just after), and the JVM's GC and
  * JIT time in the window.
  */
final case class Window(raw: Vector[Double], kernelMs: Vector[Double], seconds: Double,
                        gcMs: Long, jitMs: Long) {
  require(kernelMs.size == raw.size + 1, "one kernel run before each request and after the last")

  def size: Int = raw.size

  /** Kernel time beside request i: the median of the three kernel runs
    * before it and the three after it (fewer at the ends of the window).
    */
  def refMs(i: Int): Double = Stats.median(kernelMs.slice(math.max(0, i - 2), i + 4))

  def factor(i: Int): Double = Reference.NominalMs / refMs(i)

  def scaled: Vector[Double] = raw.indices.map(i => Reference.scale(raw(i), refMs(i))).toVector

  def medianRefMs: Double = Stats.median(raw.indices.map(refMs))

  def medianFactor: Double = Reference.NominalMs / medianRefMs
}

object Runner {
  val MinRequests = 100
  val MinWarmSteps = 3
  val QuietSteps = 3
  val QuietShare = 0.02
  val WarmCapS = 6.0
  /** Keeps a run well under 180 s even on a slow host. */
  val HardCapS = 90.0
}
