package perfbench

/** Metric names and units, in the order BENCHMARK.json lists them. An
  * untraced run reports every end-to-end metric; a traced run reports every
  * per-layer metric. A per-layer metric whose layer a workload never calls
  * reads 0 there (see perfbench/README.md for which apply where).
  */
object Metrics {
  val EndToEnd: Vector[(String, String)] = Vector(
    "latency_p50_ms" -> "ms",
    "latency_p90_ms" -> "ms",
    "setup_s" -> "s",
    "retained_heap_mb" -> "MB",
    "recall" -> "ratio",
    "paper_av_cost_s" -> "s",
    "tuned_f1" -> "ratio",
  )

  val PerLayer: Vector[(String, String)] = Vector(
    "sf.ms" -> "ms", "sf.groups" -> "count", "sf.max_group" -> "count", "sf.pairs_out" -> "count",
    "encode.ms" -> "ms", "encode.overflow_groups" -> "count",
    "vmf.ms" -> "ms", "vmf.embed_ms" -> "ms", "vmf.pairs_out" -> "count",
    "vmf.hnsw_groups" -> "count", "vmf.radius_missed" -> "count",
    "emf.ms" -> "ms", "emf.pairs_in" -> "count", "emf.pairs_out" -> "count",
    "emf.us_per_pair" -> "us", "emf.train_s" -> "s",
    "av.ms" -> "ms", "av.calls" -> "count", "av.verified" -> "count", "av.yield" -> "ratio",
    "av.us_per_call_pos" -> "us", "av.us_per_call_neg" -> "us", "av.shim_ms_per_call" -> "ms",
    "canon.flatten_us" -> "us",
    "ssfl.monitor_ms" -> "ms", "ssfl.sample_ms" -> "ms", "ssfl.fit_ms" -> "ms",
    "ssfl.sample_pos_share" -> "ratio",
    "jvm.gc_ms" -> "ms", "jvm.jit_ms" -> "ms",
    "ref.ms" -> "ms", "raw.latency_p50_ms" -> "ms", "raw.setup_s" -> "s",
    "trace.overhead" -> "ratio",
  )

  /** The paper's AV cost per pair: 898.5 s over 50,086 pairs (§7.5). */
  val PaperAvSecondsPerCall: Double = 898.5 / 50086
}

/** What one run reports. `values` must name every metric of its mode. */
final case class Result(correct: Boolean, attempted: Int, failed: Int,
                        values: Map[String, Double]) {

  def json(trace: Boolean): String = {
    val names = if (trace) Metrics.PerLayer else Metrics.EndToEnd
    val missing = names.map(_._1).filterNot(values.contains)
    require(missing.isEmpty, s"metrics not reported: ${missing.mkString(", ")}")
    val body = names.map { case (n, unit) =>
      val v = values(n)
      require(!v.isNaN && !v.isInfinite, s"metric $n is $v")
      s""""$n": {"value": $v, "unit": "$unit"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}
