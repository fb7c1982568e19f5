package repro.perf

import org.apache.spark.sql.SparkSession

import scala.collection.mutable

import repro.core.Repose

/** The untraced run: every end-to-end metric, with every timed answer checked.
  *
  * Order: ground truth (untimed) → warm-up build and queries (untimed) →
  * `Builds` timed builds (`setup_s` is their median, the last index is kept) →
  * the closed loop of the workload's `loopQueries` single `Index.query` calls →
  * repeated whole-set `Index.queryBatch` calls for the rest of the measured
  * seconds (at least `MinBatches`). Answers are checked after each phase,
  * outside the timed regions.
  */
object EndToEnd {

  val Builds = 3
  val MinBatches = 3
  val WarmupQueries = 20

  def run(spark: SparkSession, in: Inputs, seconds: Double, report: Report): Unit = {
    val w = in.workload
    val k = Workloads.K
    val qs = in.queries
    val start = System.nanoTime()
    def phase(name: String): Unit = println(f"phase $name ${(System.nanoTime() - start) / 1e9}%.3f s")
    val check = new Checker(in, in.groundTruth())
    phase("ground_truth")

    val warm = Repose.build(spark, in.rdd, w.measure, w.config)
    warm.queryBatch(qs, k)
    qs.take(WarmupQueries).foreach(q => warm.query(q, k))
    warm.unpersist()
    phase("warmup")

    // A full GC before each timed phase, so no phase pays for the garbage of
    // the phases before it.
    var idx: Repose.Index = null
    val buildS = (1 to Builds).map { _ =>
      if (idx != null) idx.unpersist()
      System.gc()
      val t0 = System.nanoTime()
      idx = Repose.build(spark, in.rdd, w.measure, w.config)
      (System.nanoTime() - t0) / 1e9
    }
    val indexMb = idx.indexBytes / (1024.0 * 1024.0)

    // Closed loop: one driver thread, the next query only after the last one.
    val latMs = mutable.ArrayBuffer.empty[Double]
    val answers = mutable.ArrayBuffer.empty[(Int, Array[(Long, Double)])]
    System.gc()
    val measureEnd = System.nanoTime() + (seconds * 1e9).toLong
    for (i <- 0 until w.loopQueries) {
      val qi = i % qs.length
      val t0 = System.nanoTime()
      val ans = try idx.query(qs(qi), k) catch { case _: Exception => null }
      latMs += Stat.ms(System.nanoTime() - t0)
      answers += ((qi, ans))
    }
    val loopFailed = answers.count { case (qi, ans) => !check.ok(qi, ans) }
    System.gc()

    // Batch: the whole query set as one queryBatch call, repeated.
    val batchS = mutable.ArrayBuffer.empty[Double]
    var batchFailed = 0
    while (System.nanoTime() < measureEnd || batchS.length < MinBatches) {
      val t0 = System.nanoTime()
      val ans = try idx.queryBatch(qs, k) catch { case _: Exception => null }
      batchS += (System.nanoTime() - t0) / 1e9
      batchFailed += (if (ans == null) qs.length else qs.indices.count(qi => !check.ok(qi, ans(qi))))
    }
    idx.unpersist()
    phase("measured")

    val tailP = Stat.tailPercentile(latMs.length)
    report.attempted = latMs.length + batchS.length.toLong * qs.length
    report.failed = loopFailed + batchFailed
    println(f"builds_s ${buildS.map(s => f"$s%.3f").mkString(" ")}")
    println(f"loop queries=${latMs.length} tail=p$tailP%.1f beyond=${(latMs.length * (100 - tailP) / 100).toInt}")
    println(f"batches n=${batchS.length} wall_s ${batchS.map(s => f"$s%.3f").mkString(" ")}")
    println(f"failed_frac ${report.failed.toDouble / report.attempted}%.6f fraction " +
      f"(${report.failed} of ${report.attempted})")
    report.add("setup_s", Stat.median(buildS), "s")
    report.add("query_p50_ms", Stat.median(latMs.toSeq), "ms")
    report.add("query_tail_ms", Stat.quantile(latMs.toSeq, tailP / 100), "ms")
    report.add("batch_qps", qs.length / Stat.median(batchS.toSeq), "queries/s")
    report.add("index_mb", indexMb, "MB")
  }
}
