package repro.perf

import java.io.File

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.core.{Repose, ZGrid}
import repro.core.partition.GlobalPartitioning
import repro.core.rptrie.{RPTrie, SuccinctRPTrie, TrieAccess}
import repro.core.search.LocalSearch

/** The traced run: per-layer metrics and the trace fidelity self-check.
  *
  * The build breakdown re-runs `Repose.build`'s stages through the layers'
  * public functions (`ZGrid.fit`, `RPTrie.selectPivots`,
  * `GlobalPartitioning.clusterKeys/assign/partitioned`, `RPTrie.build`,
  * `SuccinctRPTrie.encode`). The query breakdown times `Index.query` under a
  * `SparkListener`, and runs `LocalSearch.topK` with `Stats` inside the
  * benchmark's own `mapPartitions` over the real index RDD. Per-query values
  * are medians over the query set. End-to-end metrics never come from here.
  */
object Traced {

  private val MiB = 1024.0 * 1024.0
  private val DistSample = 200
  private val Repeats = 2

  /** One partition's share of the re-run build. */
  final case class PartBuild(
      pid: Int, ids: Array[Long], startNs: Long, builtNs: Long, encodedNs: Long,
      nodes: Int, pointerBytes: Long, denseNodes: Int)

  /** One (partition, query) local search with its counters. */
  final case class PartQuery(
      pid: Int, qi: Int, startNs: Long, endNs: Long,
      popped: Long, pushed: Long, exact: Long, top: Array[(Long, Double)]) {
    def ms: Double = (endNs - startNs) / 1e6
  }

  /** One query's local searches summed over the partitions. */
  final case class QueryAgg(
      cpuMs: Double, slowestMs: Double, imbalance: Double,
      popped: Long, pushed: Long, exact: Double, useful: Double, refineMs: Double)

  def run(spark: SparkSession, in: Inputs, work: File, report: Report): Unit = {
    val sc = spark.sparkContext
    val w = in.workload
    val cfg = w.config
    val k = Workloads.K
    val qs = in.queries
    val tr = new Tracer
    val check = new Checker(in, in.groundTruth())

    // Untimed warm-up, as in the end-to-end run.
    val warm = Repose.build(spark, in.rdd, w.measure, cfg)
    warm.queryBatch(qs, k)
    qs.take(EndToEnd.WarmupQueries).foreach(q => warm.query(q, k))
    warm.unpersist()

    // ---- Build: the real Repose.build under the job counters ----
    val (idx, buildJobs) = SparkCounters.around(sc) {
      tr.span("Repose.build")(Repose.build(spark, in.rdd, w.measure, cfg))
    }
    report.add("Repose.build_jobs", buildJobs.jobs.length, "count")
    report.add("Repose.build_tasks", buildJobs.tasks.length, "count")
    report.add("Repose.build_shuffle_mb", buildJobs.tasks.map(_.shuffleWriteBytes).sum / MiB, "MB")

    // ---- Build: the same stages re-run one layer call at a time ----
    val parts = tr.span("build.rerun") {
      val (mbr, grid) = tr.span("ZGrid.fit") {
        val m = in.rdd.map(_.mbr).reduce(_ union _)
        (m, ZGrid.fit(m, cfg.delta))
      }
      val pivots = tr.span("RPTrie.selectPivots") {
        val sample = in.rdd.takeSample(withReplacement = false, math.max(cfg.np * 20, 100), cfg.seed)
        RPTrie.selectPivots(sample, w.measure, cfg.np, cfg.pivotGroups, cfg.seed)
      }
      tr.span("GlobalPartitioning.clusterKeys") {
        GlobalPartitioning.clusterKeys(in.rdd, mbr, cfg.numPartitions).count()
      }
      val assigned = tr.span("GlobalPartitioning.assign") {
        val a = GlobalPartitioning.assign(in.rdd, cfg.strategy, cfg.numPartitions, mbr)
          .persist(StorageLevel.MEMORY_ONLY)
        a.count()
        a
      }
      val part = tr.span("GlobalPartitioning.partitioned") {
        val p = GlobalPartitioning.partitioned(assigned, cfg.numPartitions).persist(StorageLevel.MEMORY_ONLY)
        p.count()
        p
      }
      val gridB = sc.broadcast(grid)
      val pivotsB = sc.broadcast(pivots)
      val (measure, optimized, succinct) = (w.measure, cfg.optimizedTrie, cfg.succinct)
      val built = tr.span("trie.job") {
        val job = tr.current
        val ps = part.mapPartitionsWithIndex { (pid, it) =>
          val arr = it.toArray
          if (arr.isEmpty) Iterator.empty
          else {
            val t0 = System.nanoTime()
            val trie = RPTrie.build(arr, gridB.value, measure,
              optimized = optimized, givenPivots = pivotsB.value)
            val t1 = System.nanoTime()
            val enc: TrieAccess = if (succinct) SuccinctRPTrie.encode(trie) else trie
            val t2 = System.nanoTime()
            val dense = enc match { case s: SuccinctRPTrie => s.denseCount; case _ => 0 }
            Iterator.single(PartBuild(pid, arr.map(_.id), t0, t1, t2,
              trie.numNodes, trie.estimatedSizeBytes, dense))
          }
        }.collect()
        ps.foreach { p =>
          tr.record("RPTrie.build", job, -1, p.startNs, p.builtNs)
          tr.record("SuccinctRPTrie.encode", job, -1, p.builtNs, p.encodedNs)
        }
        ps
      }
      val sizes = part.mapPartitions(it => Iterator.single(it.size)).collect()
      report.add("GlobalPartitioning.part_size_imbalance", sizes.max / (sizes.sum.toDouble / sizes.length), "ratio")
      part.unpersist(blocking = true)
      assigned.unpersist(blocking = true)
      gridB.destroy()
      pivotsB.destroy()
      built
    }

    val clusterMs = tr.ms("GlobalPartitioning.clusterKeys")
    report.add("ZGrid.fit_ms", tr.ms("ZGrid.fit"), "ms")
    report.add("GlobalPartitioning.cluster_ms", clusterMs, "ms")
    // assign calls clusterKeys itself; its self time excludes that share.
    report.add("GlobalPartitioning.assign_ms", math.max(0.0, tr.ms("GlobalPartitioning.assign") - clusterMs), "ms")
    report.add("RPTrie.pivots_ms", tr.ms("RPTrie.selectPivots"), "ms")
    val buildMs = parts.map(p => (p.builtNs - p.startNs) / 1e6)
    report.add("RPTrie.build_ms_sum", buildMs.sum, "ms")
    report.add("RPTrie.build_ms_max", buildMs.max, "ms")
    report.add("RPTrie.nodes", parts.map(_.nodes.toLong).sum, "count")
    report.add("RPTrie.pointer_mb", parts.map(_.pointerBytes).sum / MiB, "MB")
    report.add("SuccinctRPTrie.encode_ms_sum", parts.map(p => (p.encodedNs - p.builtNs) / 1e6).sum, "ms")
    report.add("SuccinctRPTrie.dense_nodes", parts.map(_.denseNodes.toLong).sum, "count")

    // Fidelity: the re-run build holds the same trajectories per partition
    // and the same number of trie nodes as the index.
    val idxIds = idx.rdd.mapPartitionsWithIndex((pid, it) => it.map(rp => (pid, rp.trajs.map(_.id).sorted)))
      .collect().toMap
    val rerunIds = parts.map(p => (p.pid, p.ids.sorted)).toMap
    if (idxIds.keySet != rerunIds.keySet || idxIds.exists { case (pid, ids) => !(ids sameElements rerunIds(pid)) })
      report.fail("re-run build places trajectories in other partitions than Repose.build")
    val idxNodes = idx.totalNodes
    if (idxNodes != parts.map(_.nodes.toLong).sum)
      report.fail(s"re-run build has ${parts.map(_.nodes.toLong).sum} trie nodes, index has $idxNodes")

    // ---- Query: Index.query, one Spark job per query, under the counters ----
    val (single, queryJobs) = SparkCounters.around(sc) {
      qs.indices.map { qi =>
        sc.setJobGroup(s"perfbench-q$qi", s"query $qi", interruptOnCancel = false)
        val t0 = System.nanoTime()
        val ans = tr.span("Index.query", qi)(idx.query(qs(qi), k))
        (ans, (System.nanoTime() - t0) / 1e6)
      }
    }
    sc.clearJobGroup()
    val perQueryJob = qs.indices.map { qi =>
      val js = queryJobs.jobs.filter(_.group == s"perfbench-q$qi")
      val ts = queryJobs.tasksOf(js)
      val jobMs = js.map(j => (j.endMs - j.submitMs).toDouble).sum
      (ts.map(_.runMs).sum.toDouble, ts.map(t => t.durationMs - t.runMs).sum.toDouble,
        single(qi)._2 - jobMs, ts.map(_.resultBytes).sum / 1024.0)
    }
    report.add("Repose.query_task_run_ms", Stat.median(perQueryJob.map(_._1)), "ms")
    report.add("Repose.query_task_wait_ms", Stat.median(perQueryJob.map(_._2)), "ms")
    report.add("Repose.query_driver_ms", Stat.median(perQueryJob.map(_._3)), "ms")
    report.add("Repose.query_result_kb", Stat.median(perQueryJob.map(_._4)), "KB")
    report.attempted = qs.length
    report.failed = qs.indices.count(qi => !check.ok(qi, single(qi)._1))

    // ---- Query: LocalSearch.topK with Stats in the benchmark's own job ----
    val qB = sc.broadcast(qs)
    def tracedBatch(): Array[PartQuery] = idx.rdd.mapPartitionsWithIndex { (pid, it) =>
      it.flatMap { rp =>
        qB.value.indices.iterator.map { qi =>
          val st = new LocalSearch.Stats
          val t0 = System.nanoTime()
          val top = LocalSearch.topK(rp.index, rp.trajs, qB.value(qi), k, st)
          PartQuery(pid, qi, t0, System.nanoTime(), st.nodesPopped, st.nodesPushed, st.exactDistances, top)
        }
      }
    }.collect()
    val untracedS = (1 to Repeats).map { _ =>
      val t0 = System.nanoTime(); idx.queryBatch(qs, k); (System.nanoTime() - t0) / 1e9
    }
    var recs: Array[PartQuery] = null
    val tracedS = (1 to Repeats).map { _ =>
      val t0 = System.nanoTime()
      recs = tr.span("LocalSearch.job") {
        val job = tr.current
        val rs = tracedBatch()
        rs.foreach(r => tr.record("LocalSearch.topK", job, r.qi, r.startNs, r.endNs))
        rs
      }
      (System.nanoTime() - t0) / 1e9
    }
    report.add("Trace.query_overhead_frac", Stat.median(tracedS) / Stat.median(untracedS) - 1, "ratio")
    report.add("Trace.build_overhead_frac", tr.ms("build.rerun") / tr.ms("Repose.build") - 1, "ratio")

    // Per-partition totals accumulated across the whole query set in one Stats.
    val partTotals = idx.rdd.mapPartitionsWithIndex { (pid, it) =>
      val st = new LocalSearch.Stats
      it.foreach(rp => qB.value.foreach(q => LocalSearch.topK(rp.index, rp.trajs, q, k, st)))
      Iterator.single((pid, (st.nodesPopped, st.nodesPushed, st.exactDistances)))
    }.collect().filter(_._2 != ((0L, 0L, 0L))).toMap
    qB.destroy()
    val recTotals = recs.groupBy(_.pid).map { case (pid, rs) =>
      pid -> ((rs.map(_.popped).sum, rs.map(_.pushed).sum, rs.map(_.exact).sum))
    }.filter(_._2 != ((0L, 0L, 0L)))
    if (recTotals != partTotals)
      report.fail("per-query LocalSearch counters do not sum to the per-partition totals")

    // Traced answers: the same merge as Index.queryBatch.
    val byQuery = recs.groupBy(_.qi)
    qs.indices.foreach { qi =>
      val merged = byQuery(qi).flatMap(_.top).sortBy(r => (r._2, r._1)).take(k)
      if (!(merged sameElements single(qi)._1))
        report.fail(s"traced answer of query $qi differs from Index.query")
    }

    // ---- Distances: Measure.dist timed on queries × a fixed trajectory sample ----
    val sample = in.trajs.take(DistSample)
    def distPass(): Double = {
      var acc = 0.0
      qs.foreach(q => sample.foreach(t => acc += w.measure.dist(q, t.points)))
      acc
    }
    distPass()
    val usPerCall = tr.span("Measure.dist") {
      val t0 = System.nanoTime()
      distPass()
      (System.nanoTime() - t0) / 1e3 / (qs.length.toDouble * sample.length)
    }
    report.add("Distances.us_per_call", usPerCall, "us")

    val perQuery = qs.indices.map { qi =>
      val rs = byQuery(qi)
      val times = rs.map(_.ms)
      val exact = rs.map(_.exact).sum.toDouble
      QueryAgg(times.sum, times.max, times.max / (times.sum / times.length),
        rs.map(_.popped).sum, rs.map(_.pushed).sum, exact,
        single(qi)._1.length / math.max(exact, 1.0), exact * usPerCall / 1e3)
    }
    def med(f: QueryAgg => Double): Double = Stat.median(perQuery.map(f))
    report.add("LocalSearch.cpu_ms", med(_.cpuMs), "ms")
    report.add("LocalSearch.slowest_part_ms", med(_.slowestMs), "ms")
    report.add("LocalSearch.part_imbalance", med(_.imbalance), "ratio")
    report.add("LocalSearch.nodes_popped", med(_.popped.toDouble), "count")
    report.add("LocalSearch.nodes_pushed", med(_.pushed.toDouble), "count")
    report.add("LocalSearch.exact_dists", med(_.exact), "count")
    report.add("LocalSearch.refined_frac", med(_.exact / in.trajs.length), "ratio")
    report.add("LocalSearch.useful_frac", med(_.useful), "ratio")
    report.add("LocalSearch.traverse_ms_est", med(q => q.cpuMs - q.refineMs), "ms")
    report.add("Distances.refine_ms_est", med(_.refineMs), "ms")
    idx.unpersist()

    println("span                                    count    total_ms     self_ms")
    tr.byName.foreach { case (n, c, total, self) => println(f"$n%-38s $c%6d $total%11.1f $self%11.1f") }
    val out = new File(work, s"traces/${w.name}-seed${in.seed}.jsonl")
    tr.write(out)
    println(s"spans written to ${out.getPath}")
  }
}
