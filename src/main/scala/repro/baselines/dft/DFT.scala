package repro.baselines.dft

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import repro.core.{MBR, Measure, Point, Trajectory}
import repro.core.search.TopK

/** DFT baseline (Xie, Li, Phillips — PVLDB'17), the DFT-RB+DI variant of
  * §VII-A: trajectories are decomposed into line segments; segments are
  * range-partitioned by centroid z-order (homogeneous grouping); each
  * partition holds an STR R-tree over its segment MBRs; a dual index (tid →
  * full trajectory) supports exact distance evaluation — the source of DFT's
  * ~4× space overhead.
  *
  * Query (top-k): sample C·k trajectories, use the k-th smallest distance as
  * threshold θ; every partition reports the segments within θ of the query
  * point set; a trajectory survives only if ALL its segments survive (every
  * trajectory point must lie within θ of the query set for Hausdorff /
  * Fréchet / DTW once θ ≥ d_k); survivors are evaluated exactly through the
  * dual index; θ doubles and the search retries if fewer than k survive.
  */
object DFT {

  /** Per-partition segment index: packed R-tree + (tid, segment MBR) rows. */
  final case class SegPart(tree: RTree, tids: Array[Long], mbrs: Array[MBR])

  final class Index(
      val segParts: RDD[SegPart],
      val dual: RDD[(Long, Trajectory)],
      val segCounts: Map[Long, Int],
      val samplePool: Array[Trajectory],
      val measure: Measure,
  ) extends Serializable {

    /** Exact top-k via threshold candidates + dual-index refinement. */
    def query(q: Array[Point], k: Int, c: Int = 5, seed: Long = 7L): Array[(Long, Double)] = {
      require(q.nonEmpty, "query trajectory is empty")
      val measure0 = measure
      if (k >= segCounts.size) // fewer trajectories than k: evaluate all
        return TopK.queryBatch(dual, Array(q), k) { case ((tid, t), q) =>
          Array((tid, measure0.dist(q, t.points)))
        }.head
      val sc = segParts.sparkContext
      val qB = sc.broadcast(q)
      val countsB = sc.broadcast(segCounts)
      // Candidates within θ, refined exactly through the dual index; fewer
      // than k candidates come back empty, so the loop doubles θ.
      def refine(th: Double): Array[(Long, Double)] = {
        val candidates = segParts
          .flatMap { part =>
            val hits = scala.collection.mutable.HashMap.empty[Long, Int]
            part.tree.searchWithin(qB.value, th) { e =>
              val t = part.tids(e)
              hits.update(t, hits.getOrElse(t, 0) + 1)
            }
            hits.iterator
          }
          .reduceByKey(_ + _)
          .filter { case (tid, cnt) => cnt == countsB.value(tid) }
          .keys
          .collect()
          .toSet
        if (candidates.size < k) Array.empty
        else {
          val candB = sc.broadcast(candidates)
          val exact = try dual
            .filter { case (tid, _) => candB.value.contains(tid) }
            .mapPartitions { it =>
              val best = new TopK.Accumulator(k)
              it.foreach { case (tid, t) => best.offer(tid, measure0.dist(qB.value, t.points)) }
              best.result.iterator
            }
            .collect()
          finally candB.destroy()
          TopK.merge(exact, k)
        }
      }
      try TopK.untilExact(TopK.sampleTheta(q, samplePool, measure, k, c, seed), k)(refine)
      finally {
        qB.destroy()
        countsB.destroy()
      }
    }

    /** IS metric: segment R-trees + MBR rows + the dual-index copy. */
    def indexBytes: Long = {
      val segBytes = segParts
        .map(p => org.apache.spark.util.SizeEstimator.estimate(p))
        .fold(0L)(_ + _)
      val dualBytes = dual
        .map(t => org.apache.spark.util.SizeEstimator.estimate(t._2))
        .fold(0L)(_ + _)
      segBytes + dualBytes
    }

    def unpersist(): Unit = {
      segParts.unpersist(blocking = true)
      dual.unpersist(blocking = true)
    }
  }

  /** Build the DFT index. `heterogeneous = true` yields Heter-DFT
    * (Table IX): whole trajectories are dealt across partitions with
    * REPOSE's heterogeneous strategy (their segments follow them), instead
    * of DFT's homogeneous centroid-z-order range partitioning of segments.
    */
  def build(
      trajs: RDD[Trajectory],
      measure: Measure,
      numPartitions: Int,
      heterogeneous: Boolean = false,
      samplePoolSize: Int = 2000,
      seed: Long = 11L,
  ): Index = {
    val mbr = trajs.map(_.mbr).reduce(_ union _)
    val u = math.max(math.max(mbr.width, mbr.height), 1e-9)

    // Segment rows keyed by centroid z-order (1024×1024 Morton grid).
    def zCentroid(a: Point, b: Point): Long = {
      val cx = math.min(1023, math.max(0, ((a.x + b.x) / 2 - mbr.minX) / u * 1024).toInt)
      val cy = math.min(1023, math.max(0, ((a.y + b.y) / 2 - mbr.minY) / u * 1024).toInt)
      var z = 0L
      var bit = 0
      while (bit < 10) {
        z |= ((cx >> bit) & 1).toLong << (2 * bit + 1)
        z |= ((cy >> bit) & 1).toLong << (2 * bit)
        bit += 1
      }
      z
    }

    def segments(t: Trajectory): Iterator[(Point, Point, Long)] =
      if (t.length == 1) Iterator.single((t.points(0), t.points(0), t.id))
      else (0 until t.length - 1).iterator.map(i => (t.points(i), t.points(i + 1), t.id))

    def segMbr(a: Point, b: Point): MBR =
      MBR(math.min(a.x, b.x), math.min(a.y, b.y), math.max(a.x, b.x), math.max(a.y, b.y))

    val assigned: RDD[(Int, (Long, MBR))] =
      if (heterogeneous) {
        // Heter-DFT: trajectories dealt by REPOSE's strategy; segments follow.
        repro.core.partition.GlobalPartitioning
          .assign(trajs, repro.core.partition.Heterogeneous, numPartitions, mbr)
          .flatMap { case (pid, t) =>
            segments(t).map { case (a, b, tid) => (pid, (tid, segMbr(a, b))) }
          }
      } else {
        val segs = trajs.flatMap { t =>
          segments(t).map { case (a, b, tid) => (zCentroid(a, b), (tid, segMbr(a, b))) }
        }
        val total = segs.count()
        segs.sortByKey().values.zipWithIndex().map { case (row, idx) =>
          (math.min(numPartitions - 1, (idx * numPartitions / math.max(total, 1L)).toInt), row)
        }
      }
    val segParts = assigned
      .partitionBy(new repro.core.partition.IdPartitioner(numPartitions))
      .values
      .mapPartitions { it =>
        val rows = it.toArray
        if (rows.isEmpty) Iterator.empty
        else {
          val tids = rows.map(_._1)
          val mbrs = rows.map(_._2)
          Iterator.single(SegPart(RTree.pack(mbrs), tids, mbrs))
        }
      }
      .persist(StorageLevel.MEMORY_ONLY)
    segParts.count()

    val dual = trajs
      .map(t => (t.id, t))
      .partitionBy(new org.apache.spark.HashPartitioner(numPartitions))
      .persist(StorageLevel.MEMORY_ONLY)
    dual.count()

    val segCounts = trajs.map(t => (t.id, math.max(1, t.length - 1))).collect().toMap
    val samplePool = trajs.takeSample(withReplacement = false,
      math.min(samplePoolSize, segCounts.size), seed)

    new Index(segParts, dual, segCounts, samplePool, measure)
  }
}
