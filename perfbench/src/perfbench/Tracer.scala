package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run. A span has a name, start and
  * end (ns), the span that caused it and the request it belongs to. Spans
  * are opened around calls into the program from benchmark code only, kept
  * in primitive buffers, and written out once at exit.
  */
final class Tracer {
  private val names   = mutable.ArrayBuffer.empty[String]
  private val starts  = mutable.ArrayBuilder.make[Long]
  private val ends    = mutable.ArrayBuffer.empty[Long]
  private val parents = mutable.ArrayBuilder.make[Int]
  private val reqs    = mutable.ArrayBuilder.make[Int]
  private var open: List[Int] = Nil
  private var lastNs = 0L

  /** Request id stamped on spans opened from now on. */
  var request: Int = 0

  def size: Int = names.size

  def span[T](name: String)(f: => T): T = {
    val id = names.size
    names += name
    parents += open.headOption.getOrElse(-1)
    reqs += request
    ends += -1L
    open = id :: open
    val t0 = System.nanoTime()
    starts += t0
    try f
    finally {
      val t1 = System.nanoTime()
      ends(id) = t1
      lastNs = t1 - t0
      open = open.tail
    }
  }

  /** Duration of the most recently closed span, in ns. */
  def lastSpanNs: Long = lastNs

  /** Self time per span name (duration minus the time its direct children
    * cover), summed over `requests` (all requests when empty), in ns.
    */
  def selfNanos(requests: Set[Int] = Set.empty): Map[String, Long] = {
    val st = starts.result(); val pa = parents.result(); val rq = reqs.result()
    val self = Array.tabulate(names.size)(i => ends(i) - st(i))
    for (i <- names.indices if pa(i) >= 0) self(pa(i)) -= ends(i) - st(i)
    val out = mutable.Map.empty[String, Long].withDefaultValue(0L)
    for (i <- names.indices if requests.isEmpty || requests(rq(i))) out(names(i)) += self(i)
    out.toMap
  }

  /** Total duration per (request, span name), in ns. */
  def totalsByRequest(name: String): Map[Int, Long] = {
    val st = starts.result(); val rq = reqs.result()
    val out = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    for (i <- names.indices if names(i) == name) out(rq(i)) += ends(i) - st(i)
    out.toMap
  }

  /** Writes one tab-separated line per span. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val st = starts.result(); val pa = parents.result(); val rq = reqs.result()
    val w = new PrintWriter(file, "UTF-8")
    try {
      w.println("id\tparent\trequest\tname\tstart_ns\tend_ns")
      for (i <- names.indices)
        w.println(s"$i\t${pa(i)}\t${rq(i)}\t${names(i)}\t${st(i)}\t${ends(i)}")
    } finally w.close()
  }
}
