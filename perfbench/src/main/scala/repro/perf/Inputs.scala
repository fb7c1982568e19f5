package repro.perf

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.baselines.LinearSearch
import repro.core.{Point, Trajectory, ZGrid}
import repro.core.partition.RandomPartitioning
import repro.data.TrajGen

/** The generated inputs of one run and their brute-force ground truth.
  *
  * Trajectories and queries are generated on the driver from the workload
  * seed; the program under test only ever sees the resulting `rdd` and query
  * arrays. Trajectory ids are 0 until n, so `trajs(id)` is the trajectory
  * with that id.
  */
final class Inputs(
    val workload: Workload,
    val seed: Long,
    val trajs: Array[Trajectory],
    val queries: Array[Array[Point]],
    val rdd: RDD[Trajectory],
) {
  val totalPoints: Long = trajs.iterator.map(_.length.toLong).sum
  val grid: ZGrid = ZGrid.fit(trajs.iterator.map(_.mbr).reduce(_ union _), workload.delta)

  /** Fingerprint of the inputs: a change to generation or scale shows here. */
  def summary: String =
    f"input ${workload.name} seed=$seed N=${trajs.length} points=$totalPoints " +
      f"queries=${queries.length} grid_l=${grid.l} delta=${workload.delta}%.4f " +
      f"measure=${workload.measure.name} k=${Workloads.K} partitions=${Workloads.Partitions}"

  /** Exact top-k of every query by linear search (LS), outside any timing. */
  def groundTruth(): Array[Array[(Long, Double)]] = {
    val ls = LinearSearch.build(rdd, workload.measure, Workloads.Partitions, RandomPartitioning)
    try ls.queryBatch(queries, Workloads.K)
    finally ls.unpersist()
  }

  def unpersist(): Unit = rdd.unpersist(blocking = true)
}

object Inputs {

  /** The run's inputs for `seed`: the analog's walks with generator ids
    * [seed·n, seed·n + n), renumbered 0 until n, and `w.queries` query walks
    * placed after that window exactly as `TrajGen.queries` places them after
    * the dataset (seed 0 gives `TrajGen.generate`'s trajectories and
    * `TrajGen.queries`' queries). The seed thus picks which walks are drawn,
    * while the analog's hotspots, fixed by its `Spec.seed`, stay in place.
    */
  def generate(spark: SparkSession, w: Workload, seed: Long): Inputs = {
    val spec = w.spec
    val first = seed * spec.n
    val trajs = Array.tabulate(spec.n)(i => TrajGen.one(spec, first + i).copy(id = i.toLong))
    val queries = Array.tabulate(w.queries)(i => TrajGen.one(spec, first + spec.n + 1000L + i).points)
    val rdd = spark.sparkContext
      .parallelize(trajs.toIndexedSeq, Workloads.Partitions)
      .persist(StorageLevel.MEMORY_ONLY)
    rdd.count()
    new Inputs(w, seed, trajs, queries, rdd)
  }
}
