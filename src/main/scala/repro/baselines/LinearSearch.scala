package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import repro.core.{Measure, Point, Trajectory}
import repro.core.partition.{GlobalPartitioning, PartitionStrategy, RandomPartitioning}
import repro.core.search.TopK

/** Baseline LS (§VII-A): brute-force distributed linear search — each
  * partition computes the distance from the query to every trajectory it
  * holds, keeps a local top-k, and the driver merges.
  */
object LinearSearch {

  final class Index(
      val rdd: RDD[Array[Trajectory]],
      val measure: Measure,
  ) extends Serializable {

    def query(q: Array[Point], k: Int): Array[(Long, Double)] =
      queryBatch(Array(q), k).head

    /** Batch counterpart of `query` — one Spark job for the whole workload
      * (matches `Repose.Index.queryBatch` so timing comparisons are fair).
      */
    def queryBatch(qs: Array[Array[Point]], k: Int): Array[Array[(Long, Double)]] = {
      val measure0 = measure
      TopK.queryBatch(rdd, qs, k) { (part, q) =>
        val best = new TopK.Accumulator(k)
        part.foreach(t => best.offer(t.id, measure0.dist(q, t.points)))
        best.result
      }
    }

    def unpersist(): Unit = rdd.unpersist(blocking = true)
  }

  /** Materialize the partitioned trajectory arrays (no index — the paper
    * reports "/" for LS index size and construction time).
    */
  def build(
      trajs: RDD[Trajectory],
      measure: Measure,
      numPartitions: Int,
      strategy: PartitionStrategy = RandomPartitioning,
  ): Index = {
    val mbr = trajs.map(_.mbr).reduce(_ union _)
    val assigned = GlobalPartitioning.assign(trajs, strategy, numPartitions, mbr)
    val rdd = GlobalPartitioning
      .partitioned(assigned, numPartitions)
      .mapPartitions(it => Iterator.single(it.toArray))
      .persist(StorageLevel.MEMORY_ONLY)
    rdd.count()
    new Index(rdd, measure)
  }
}
