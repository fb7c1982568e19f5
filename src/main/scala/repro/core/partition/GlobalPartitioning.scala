package repro.core.partition

import scala.util.hashing.MurmurHash3

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD

import repro.core.{MBR, Trajectory}

/** Global partitioning strategies compared in Table VII (§V-A/B). */
sealed trait PartitionStrategy extends Serializable { def name: String }

/** REPOSE's strategy: cluster similar trajectories (geohash-granularity
  * sweep, the SOM-TC reduction of §V-B), then deal cluster members
  * round-robin so every partition receives a similar mixture.
  */
case object Heterogeneous extends PartitionStrategy { val name = "Heterogeneous" }

/** DITA/DFT-style strategy: whole clusters of similar trajectories stay in
  * the same partition (contiguous chunks of the cluster-sorted order).
  */
case object Homogeneous extends PartitionStrategy { val name = "Homogeneous" }

/** Uniform random assignment by trajectory id. */
case object RandomPartitioning extends PartitionStrategy { val name = "Random" }

/** Keys are precomputed partition ids (§V-C: Spark's `Partitioner` extension
  * point carries the strategy).
  */
final class IdPartitioner(n: Int) extends Partitioner {
  def numPartitions: Int = n
  def getPartition(key: Any): Int = key.asInstanceOf[Int]
}

object GlobalPartitioning {

  /** Finest clustering precision: 2^10 × 2^10 cells. */
  private val MaxPrecision = 10

  /** Cell sequence of a trajectory at precision `p` (consecutive-deduped),
    * the geohash encoding of §V-B; coarser keys are bit-shifts of finer ones.
    */
  private def cellSeq(t: Trajectory, mbr: MBR, p: Int): Array[Int] = {
    val side = 1 << p
    val u = math.max(math.max(mbr.width, mbr.height), 1e-9)
    val out = new scala.collection.mutable.ArrayBuffer[Int](t.length)
    var i = 0
    while (i < t.length) {
      val pt = t.points(i)
      var cx = ((pt.x - mbr.minX) / u * side).toInt
      var cy = ((pt.y - mbr.minY) / u * side).toInt
      if (cx >= side) cx = side - 1
      if (cy >= side) cy = side - 1
      if (cx < 0) cx = 0
      if (cy < 0) cy = 0
      val c = (cx << 16) | cy
      if (out.isEmpty || out.last != c) out += c
      i += 1
    }
    out.toArray
  }

  private def coarsen(seq: Array[Int]): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuffer[Int](seq.length)
    var i = 0
    while (i < seq.length) {
      val cx = (seq(i) >>> 16) >> 1
      val cy = (seq(i) & 0xffff) >> 1
      val c = (cx << 16) | cy
      if (out.isEmpty || out.last != c) out += c
      i += 1
    }
    out.toArray
  }

  private def keyString(seq: Array[Int]): String = seq.mkString(",")

  /** 64-bit fingerprint of a cell sequence, for counting distinct sequences
    * without shuffling them; two seeds make a collision among the few
    * thousand sequences of one precision negligible (~N²/2⁶⁵).
    */
  private def fingerprint(seq: Array[Int]): Long =
    (MurmurHash3.arrayHash(seq, 0x5eed1).toLong << 32) |
      (MurmurHash3.arrayHash(seq, 0x5eed2) & 0xffffffffL)

  /** Clustering precision of §V-B: the finest precision whose number of
    * distinct cell sequences is at most max(numPartitions, N / numPartitions),
    * or precision 1 when even that has more.
    *
    * One pass computes every trajectory's sequence at all precisions (the
    * coarser ones by coarsening the finest) and counts distinct sequences per
    * precision, and N, in a single shuffle.
    */
  private def sweepPrecision(trajs: RDD[Trajectory], mbr: MBR, numPartitions: Int): Int = {
    // counts(p) = distinct sequences at precision p; counts(0) = N.
    val counts = trajs
      .flatMap { t =>
        Iterator.iterate(cellSeq(t, mbr, MaxPrecision))(coarsen).take(MaxPrecision)
          .zipWithIndex.map { case (seq, i) => ((MaxPrecision - i, fingerprint(seq)), 1L) }
      }
      .reduceByKey(_ + _)
      .mapPartitions { it =>
        val c = new Array[Long](MaxPrecision + 1)
        it.foreach { case ((p, _), members) =>
          c(p) += 1
          if (p == MaxPrecision) c(0) += members
        }
        Iterator.single(c)
      }
      .reduce((a, b) => Array.tabulate(a.length)(i => a(i) + b(i)))
    val target = math.max(numPartitions.toLong, counts(0) / math.max(numPartitions, 1))
    (MaxPrecision to 1 by -1).find(counts(_) <= target).getOrElse(1)
  }

  /** Cluster ids per §V-B: `(trajectory id, cell sequence)` at the finest
    * precision with at most ≈ N / numPartitions clusters (see `sweepPrecision`).
    * The precision is chosen eagerly; the returned RDD is lazy.
    */
  def clusterKeys(
      trajs: RDD[Trajectory],
      mbr: MBR,
      numPartitions: Int,
  ): RDD[(Long, String)] = {
    val p = sweepPrecision(trajs, mbr, numPartitions)
    trajs.map(t => (t.id, keyString(cellSeq(t, mbr, p))))
  }

  /** Assign a partition id to every trajectory under the given strategy.
    *
    * Heterogeneous/homogeneous both rank trajectories by (cluster id,
    * trajectory id) on the driver, which holds N small pairs; heterogeneous
    * then deals ranks round-robin, homogeneous cuts contiguous equal-count
    * chunks. The id → partition table travels in the task closure, so no
    * broadcast outlives the returned RDD.
    */
  def assign(
      trajs: RDD[Trajectory],
      strategy: PartitionStrategy,
      numPartitions: Int,
      mbr: MBR,
  ): RDD[(Int, Trajectory)] = strategy match {
    case RandomPartitioning =>
      trajs.map { t =>
        val h = scala.util.hashing.MurmurHash3.stringHash(t.id.toString)
        (math.floorMod(h, numPartitions), t)
      }
    case _ =>
      val ranked = clusterKeys(trajs, mbr, numPartitions).collect()
        .sortBy { case (id, key) => (key, id) }
      val n = ranked.length.toLong
      val pidOfRank: Int => Int = strategy match {
        case Heterogeneous => r => r % numPartitions
        case _ => r => (r.toLong * numPartitions / n).toInt
      }
      // (id, partition) sorted by id, looked up by binary search in the tasks.
      val byId = ranked.indices.map(r => (ranked(r)._1, pidOfRank(r))).sortBy(_._1)
      val ids = byId.map(_._1).toArray
      val pids = byId.map(_._2).toArray
      trajs.map(t => (pids(java.util.Arrays.binarySearch(ids, t.id)), t))
  }

  /** Partition an assigned RDD with the custom `Partitioner` and drop keys. */
  def partitioned(
      assigned: RDD[(Int, Trajectory)],
      numPartitions: Int,
  ): RDD[Trajectory] =
    assigned.partitionBy(new IdPartitioner(numPartitions)).values
}
