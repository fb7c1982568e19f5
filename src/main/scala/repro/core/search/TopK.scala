package repro.core.search

import scala.collection.mutable

/** Driver-side merge of per-partition top-k results, shared by REPOSE and
  * the LS, DFT and DITA baselines.
  */
object TopK {

  /** The `k` smallest (id, distance) pairs of `rs`, ordered by (distance, id). */
  def merge(rs: Array[(Long, Double)], k: Int): Array[(Long, Double)] =
    rs.sortBy(r => (r._2, r._1)).take(k)

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
}
