package repro.perf

import scala.collection.mutable

/** Order statistics used by both runs. */
object Stat {

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  /** The highest of a fixed ladder of percentiles that still has at least
    * ten samples beyond it, e.g. p95 at 200 samples, p90 at 100.
    */
  def tailPercentile(n: Int): Double =
    Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0).find(p => n * (100.0 - p) / 100.0 >= 10.0).getOrElse(50.0)

  def ms(ns: Long): Double = ns / 1e6
}

/** One named metric with its unit, as printed in the result line. */
final case class Metric(name: String, value: Double, unit: String)

/** The run's result: human-readable metric lines, then one JSON line last. */
final class Report {
  private val metrics = mutable.ArrayBuffer.empty[Metric]
  var attempted: Long = 0L
  var failed: Long = 0L
  var correct: Boolean = true

  def add(name: String, value: Double, unit: String): Unit = metrics += Metric(name, value, unit)

  /** Record a failed self-check: the run is reported as incorrect. */
  def fail(what: String): Unit = {
    correct = false
    Console.out.println(s"CHECK FAILED: $what")
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  // Names and units are plain identifiers (see BENCHMARK.json): no escaping.
  private def str(s: String): String = "\"" + s + "\""

  def print(): Unit = {
    metrics.foreach(m => Console.out.println(f"metric ${m.name}%-36s ${m.value}%14.6f ${m.unit}"))
    val ms = metrics.map(m => s"${str(m.name)}: {\"value\": ${num(m.value)}, \"unit\": ${str(m.unit)}}")
    Console.out.println(
      s"""{"correct": ${correct && failed == 0 && metrics.forall(m => num(m.value) != "null")}, "attempted": $attempted, "failed": $failed, """ +
        s""""metrics": {${ms.mkString(", ")}}}""")
    Console.out.flush()
  }
}
