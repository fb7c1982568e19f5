package repro.core.search

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.rdd.RDD

import repro.core.{Measure, Point, Trajectory}

/** The one top-k path of REPOSE and the LS, DFT and DITA baselines: the
  * local `Accumulator`, the driver `merge`, the `queryBatch` job and DFT's and
  * DITA's sample-threshold loop. Every result list is ordered by (distance, id).
  */
object TopK {

  /** (distance, id) order of every result list. */
  private val Order: Ordering[(Long, Double)] = (a, b) => {
    val c = java.lang.Double.compare(a._2, b._2)
    if (c != 0) c else java.lang.Long.compare(a._1, b._1)
  }

  /** The k smallest (id, distance) pairs offered to it: a max-heap on
    * (distance, id), so a distance tie keeps the smaller id in any offer order.
    */
  final class Accumulator(k: Int) {
    private val heap = mutable.PriorityQueue.empty[(Long, Double)](Order)

    /** The current k-th distance `d_k`; `Double.MaxValue` until k pairs are held. */
    def dk: Double = if (heap.size < k) Double.MaxValue else heap.head._2

    def offer(id: Long, d: Double): Unit =
      if (heap.size < k) heap.enqueue((id, d))
      else if (k > 0) {
        val c = java.lang.Double.compare(d, heap.head._2)
        if (c < 0 || (c == 0 && id < heap.head._1)) { heap.dequeue(); heap.enqueue((id, d)) }
      }

    /** The held pairs in ascending (distance, id) order. */
    def result: Array[(Long, Double)] = heap.toArray.sorted(Order)
  }

  /** The `k` smallest (id, distance) pairs of `rs`, ordered by (distance, id). */
  def merge(rs: Array[(Long, Double)], k: Int): Array[(Long, Double)] =
    rs.sorted(Order).take(k)

  /** Per-query merge of collected (query index, local top-k) pairs: groups
    * them by query index in one pass, then merges each group.
    */
  def mergeByQuery(
      local: Array[(Int, Array[(Long, Double)])],
      numQueries: Int,
      k: Int,
  ): Array[Array[(Long, Double)]] = {
    val byQuery = Array.fill(numQueries)(mutable.ArrayBuilder.make[(Long, Double)])
    local.foreach { case (qi, rs) => byQuery(qi) ++= rs }
    byQuery.map(b => merge(b.result(), k))
  }

  /** Exact top-k of every query in one Spark job: broadcasts `qs`, runs
    * `localTopK` on every element of `rdd` for every query, collects, and
    * merges per query. The broadcast is destroyed even if the job fails.
    */
  def queryBatch[T](rdd: RDD[T], qs: Array[Array[Point]], k: Int)(
      localTopK: (T, Array[Point]) => Array[(Long, Double)],
  ): Array[Array[(Long, Double)]] = {
    qs.foreach(q => require(q.nonEmpty, "query trajectory is empty"))
    val qB = rdd.sparkContext.broadcast(qs)
    val local = try rdd
      .flatMap(e => qB.value.iterator.zipWithIndex.map { case (q, qi) => (qi, localTopK(e, q)) })
      .collect()
    finally qB.destroy()
    mergeByQuery(local, qs.length, k)
  }

  /** Initial threshold θ of DFT and DITA: the k-th smallest distance from `q`
    * to a random C·k sample of `pool` (the largest one if the sample is
    * smaller than k), floored at 1e-12 so that doubling θ makes progress.
    */
  def sampleTheta(
      q: Array[Point],
      pool: Array[Trajectory],
      measure: Measure,
      k: Int,
      c: Int,
      seed: Long,
  ): Double = {
    val sample = new Random(seed).shuffle(pool.toVector).take(math.max(c * k, k))
    val dists = sample.map(t => measure.dist(q, t.points)).sorted
    math.max(dists(math.min(k - 1, dists.length - 1)), 1e-12)
  }

  /** Doubles θ from `theta0` until `refine(θ)` — the top-k of the trajectories
    * a θ-range search keeps — holds k results with the k-th distance ≤ θ.
    * Everything the range search drops is farther than θ, so that answer is
    * exact.
    */
  def untilExact(theta0: Double, k: Int)(
      refine: Double => Array[(Long, Double)],
  ): Array[(Long, Double)] = {
    var theta = theta0
    var topk = refine(theta)
    while (topk.length < k || topk(k - 1)._2 > theta) {
      theta *= 2
      topk = refine(theta)
    }
    topk
  }
}
