package repro.perf

import java.io.File

import org.apache.spark.sql.SparkSession

/** Benchmark entry point (started by `perfbench/run.py`):
  *
  * {{{
  * Main --workload <name> [--seed <n>] --seconds <s> --trace <0|1> --work <dir>
  * }}}
  *
  * `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
  * The last line of standard output is the JSON result.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads.byName(opts.getOrElse("workload", sys.error("--workload is required")))
    val seed = opts.get("seed").fold(0L)(_.toLong)
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"
    val work = new File(opts.getOrElse("work", sys.error("--work is required")))

    val spark = session(work)
    val report = new Report
    try {
      val in = Inputs.generate(spark, w, seed)
      println(in.summary)
      if (traced) Traced.run(spark, in, work, report)
      else EndToEnd.run(spark, in, seconds, report)
      in.unpersist()
    } finally spark.stop()
    report.print()
  }

  /** Single-process Spark: `local[N]` with N = min(4, cores − 1). The free
    * core keeps the driver thread (job launch, merge), the listener bus, GC
    * and JIT off the task slots: with all four cores as slots, single-query
    * p50 and tail spread two to four times wider across runs.
    */
  private def session(work: File): SparkSession = {
    val cores = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors() - 1))
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("repose-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(work, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    println(s"spark master=${s.sparkContext.master} partitions=${Workloads.Partitions}")
    s
  }
}
