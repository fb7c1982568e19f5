package repro.core.rptrie

import repro.core.{Measure, Point, ZGrid}

/** Read-only traversal interface of a frozen RP-Trie (§III-B), so
  * `LocalSearch` runs unchanged on the flat `RPTrie` and on the
  * `SuccinctRPTrie` that shares its arrays.
  *
  * Node handles are dense ints in [0, numNodes); `root` is always handle 0.
  * A node may simultaneously carry trajectory ids (a non-empty tid range —
  * the paper's `$`-terminated leaf for a reference trajectory that is a
  * prefix of another) and children.
  */
trait TrieAccess extends Serializable {
  def grid: ZGrid
  def measure: Measure

  /** Global pivot trajectories (empty for non-metric measures). */
  def pivots: Array[Array[Point]]

  def numNodes: Int
  def root: Int

  def childCount(v: Int): Int

  /** Iterate the children of `v` in ascending z-label order: f(z, child). */
  def foreachChild(v: Int)(f: (Int, Int) => Unit): Unit

  /** Tid range offsets (numNodes + 1 entries): the trajectory ids (indices
    * into the partition's trajectory array) whose reference trajectory ends
    * at `v` are `tidArr(i)` for `i` in `[tidStart(v), tidStart(v + 1))`; the
    * range is empty when `v` is purely internal.
    */
  def tidStart: Array[Int]
  def tidArr: Array[Int]

  /** Max distance from the trajectories ending at `v` to v's reference
    * trajectory — the `D_max` of Eq. 3. 0 for purely internal nodes.
    */
  def dmax(v: Int): Double

  /** Max over the whole subtree of D(τ, τ*) — bounds the reference-point
    * deviation used by the pivot bound `LB_p` (Eq. 5; see DESIGN.md).
    */
  def maxDev(v: Int): Double

  /** HR[p].min — min distance from reference trajectories in v's subtree to
    * pivot p (§III-B).
    */
  def hrMin(v: Int, p: Int): Double

  /** HR[p].max — max distance from reference trajectories in v's subtree to
    * pivot p.
    */
  def hrMax(v: Int, p: Int): Double

  /** In-memory footprint estimate (index-size metric IS). */
  def estimatedSizeBytes: Long = org.apache.spark.util.SizeEstimator.estimate(this)
}
