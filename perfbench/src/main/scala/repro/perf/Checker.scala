package repro.perf

import scala.collection.mutable

/** Correctness gate: a top-k answer is right when its distance sequence equals
  * the brute-force one rank by rank (within `Tol`, so ties may swap ids) and
  * every reported (id, distance) pair is genuine — the distance is recomputed
  * with `Measure.dist`. Recomputed distances are memoised per (query, id), so
  * re-checking a repeated answer is cheap. Never call this inside a timed
  * region.
  */
final class Checker(in: Inputs, truth: Array[Array[(Long, Double)]]) {

  private val Tol = 1e-9
  private val measure = in.workload.measure
  private val recomputed = mutable.HashMap.empty[(Int, Long), Double]

  private def exact(qi: Int, id: Long): Double =
    recomputed.getOrElseUpdate((qi, id), measure.dist(in.queries(qi), in.trajs(id.toInt).points))

  def ok(qi: Int, got: Array[(Long, Double)]): Boolean = {
    val want = truth(qi)
    got != null && got.length == want.length &&
      got.map(_._1).distinct.length == got.length &&
      got.indices.forall(r => math.abs(got(r)._2 - want(r)._2) <= Tol) &&
      got.forall { case (id, d) =>
        id >= 0 && id < in.trajs.length && math.abs(exact(qi, id) - d) <= Tol
      }
  }
}
