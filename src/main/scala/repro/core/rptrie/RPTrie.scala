package repro.core.rptrie

import scala.collection.mutable
import scala.util.Random

import repro.core.{Measure, Point, Trajectory, ZGrid}

/** Reference point trie (§III-B) in its flat layout.
  *
  * Nodes are numbered in BFS order with every node's children sorted by z,
  * so handle 0 is the root and the children of `v` are the consecutive
  * handles `[childStart(v), childStart(v + 1))`; `label(c)` is the z-value on
  * the edge into `c`. Accepting nodes own the tid range
  * `[tidStart(v), tidStart(v + 1))` of `tidArr` and carry `D_max`; every node
  * carries the HR pivot-distance ranges of its subtree (`np` entries per node
  * in `hrMinArr`/`hrMaxArr`) and `maxDev`.
  */
class RPTrie(
    val grid: ZGrid,
    val measure: Measure,
    val pivots: Array[Array[Point]],
    val label: Array[Int],
    val childStart: Array[Int],
    val tidStart: Array[Int],
    val tidArr: Array[Int],
    private[rptrie] val dmaxArr: Array[Double],
    private[rptrie] val maxDevArr: Array[Double],
    private[rptrie] val hrMinArr: Array[Double],
    private[rptrie] val hrMaxArr: Array[Double],
) extends TrieAccess {
  private[this] val np = pivots.length

  def numNodes: Int = label.length
  def root: Int = 0
  def childCount(v: Int): Int = childStart(v + 1) - childStart(v)
  def foreachChild(v: Int)(f: (Int, Int) => Unit): Unit = {
    var c = childStart(v)
    val end = childStart(v + 1)
    while (c < end) { f(label(c), c); c += 1 }
  }
  def dmax(v: Int): Double = dmaxArr(v)
  def maxDev(v: Int): Double = maxDevArr(v)
  def hrMin(v: Int, p: Int): Double = hrMinArr(v * np + p)
  def hrMax(v: Int, p: Int): Double = hrMaxArr(v * np + p)
}

object RPTrie {

  /** Mutable node used only during construction. */
  private final class BNode(val z: Int) {
    val children = mutable.LinkedHashMap.empty[Int, BNode]
    val tids = mutable.ArrayBuffer.empty[Int]
  }

  /** Build an RP-Trie over `trajs` (§III-B).
    *
    * @param optimized use the greedy hitting-set z-value re-arrangement
    *                  (§III-C) — applied only when the measure is order
    *                  independent (Hausdorff); otherwise the order-preserving
    *                  trie is built.
    * @param np          number of pivot trajectories (0 disables `LB_p`;
    *                    forced to 0 for non-metric measures)
    * @param pivotGroups number of random candidate groups scored by pairwise
    *                    distance sum when selecting pivots (§III-B)
    * @param givenPivots pre-selected (global) pivot trajectories — the
    *                    distributed build selects pivots once on the driver
    *                    and broadcasts them; when null, pivots are selected
    *                    locally from `trajs`.
    */
  def build(
      trajs: Array[Trajectory],
      grid: ZGrid,
      measure: Measure,
      np: Int = 5,
      pivotGroups: Int = 10,
      optimized: Boolean = true,
      seed: Long = 42L,
      givenPivots: Array[Array[Point]] = null,
  ): RPTrie = {
    val pivots =
      if (givenPivots != null) { if (measure.isMetric) givenPivots else Array.empty[Array[Point]] }
      else selectPivots(trajs, measure, np, pivotGroups, seed)
    val root = new BNode(-1)
    if (optimized && measure.orderIndependent) {
      val items = mutable.ArrayBuffer.tabulate(trajs.length) { i =>
        (grid.refSet(trajs(i).points), i)
      }
      buildGreedy(root, items)
    } else {
      var i = 0
      while (i < trajs.length) {
        insert(root, grid.refSeq(trajs(i).points), i)
        i += 1
      }
    }
    freeze(root, trajs, grid, measure, pivots)
  }

  /** Select `np` pivots by sampling `groups` random groups and keeping the
    * one with the largest pairwise-distance sum (§III-B, after [21]).
    */
  def selectPivots(
      trajs: Array[Trajectory],
      measure: Measure,
      np: Int,
      groups: Int,
      seed: Long,
  ): Array[Array[Point]] = {
    if (np <= 0 || !measure.isMetric || trajs.isEmpty) return Array.empty
    val rnd = new Random(seed)
    val n = math.min(np, trajs.length)
    var best: Array[Int] = null
    var bestScore = -1.0
    var g = 0
    while (g < groups) {
      val pick = rnd.shuffle(trajs.indices.toVector).take(n).toArray
      var score = 0.0
      var i = 0
      while (i < n) {
        var j = i + 1
        while (j < n) {
          score += measure.dist(trajs(pick(i)), trajs(pick(j)))
          j += 1
        }
        i += 1
      }
      if (score > bestScore) { bestScore = score; best = pick }
      g += 1
    }
    best.map(trajs(_).points.clone())
  }

  private def insert(root: BNode, zs: Array[Int], tid: Int): Unit = {
    var cur = root
    var i = 0
    while (i < zs.length) {
      cur = cur.children.getOrElseUpdate(zs(i), new BNode(zs(i)))
      i += 1
    }
    cur.tids += tid
  }

  /** Greedy hitting-set construction (§III-C + Appendix B): at every level,
    * repeatedly promote the currently most frequent z-value to a child node,
    * claim every remaining set containing it, and subtract the claimed sets'
    * frequencies (the appendix's `C(Z) − C(Z^z)` differencing).
    *
    * A node's children are fixed by its own item sets alone, so nodes are
    * expanded from an explicit work stack rather than by recursion: the
    * depth of the trie (up to a trajectory's cell count) never reaches the
    * thread stack.
    */
  private def buildGreedy(
      root: BNode,
      rootItems: mutable.ArrayBuffer[(Array[Int], Int)],
  ): Unit = {
    val work = mutable.Stack((root, rootItems))
    while (work.nonEmpty) {
      val (node, items) = work.pop()
      var remaining = mutable.ArrayBuffer.empty[(Array[Int], Int)]
      items.foreach { it =>
        if (it._1.isEmpty) node.tids += it._2 else remaining += it
      }
      if (remaining.length == 1) {
        // A lone set's counts all tie at 1, so the greedy would promote its
        // z-values one per level in ascending order: emit that chain directly.
        val (zs, tid) = remaining.head
        var cur = node
        zs.foreach { z => val c = new BNode(z); cur.children.update(z, c); cur = c }
        cur.tids += tid
        remaining.clear()
      }
      val counts = mutable.HashMap.empty[Int, Int]
      remaining.foreach(_._1.foreach(z => counts.update(z, counts.getOrElse(z, 0) + 1)))
      while (remaining.nonEmpty) {
        // Most frequent z-value; ties broken by smallest z for determinism.
        var bestZ = -1; var bestC = -1
        counts.foreach { case (z, c) =>
          if (c > bestC || (c == bestC && z < bestZ)) { bestZ = z; bestC = c }
        }
        val hit = mutable.ArrayBuffer.empty[(Array[Int], Int)]
        val miss = mutable.ArrayBuffer.empty[(Array[Int], Int)]
        remaining.foreach { it =>
          if (java.util.Arrays.binarySearch(it._1, bestZ) >= 0) hit += it else miss += it
        }
        hit.foreach(_._1.foreach { z =>
          val c = counts(z) - 1
          if (c == 0) counts.remove(z) else counts.update(z, c)
        })
        val child = new BNode(bestZ)
        node.children.update(bestZ, child)
        work.push((child, hit.map { case (zs, tid) => (zs.filter(_ != bestZ), tid) }))
        remaining = miss
      }
    }
  }

  /** Freeze the build-time trie into the flat layout and compute payloads.
    *
    * Handles are assigned in BFS order with children sorted by z (the bitmap
    * iteration order of the succinct encoding). Accepting nodes then get
    * their HR point values and `D_max` from the reference trajectory found
    * by walking a build-time parent array up to the root; HR ranges and
    * `maxDev` propagate bottom-up in reverse handle order, since BFS places
    * every child after its parent.
    */
  private def freeze(
      root: BNode,
      trajs: Array[Trajectory],
      grid: ZGrid,
      measure: Measure,
      pivots: Array[Array[Point]],
  ): RPTrie = {
    val order = mutable.ArrayBuffer(root)
    val parentBuf = mutable.ArrayBuffer(-1)
    val starts = mutable.ArrayBuffer.empty[Int]
    var v = 0
    while (v < order.length) {
      starts += order.length
      order(v).children.values.toArray.sortBy(_.z).foreach { c => order += c; parentBuf += v }
      v += 1
    }
    val n = order.length
    starts += n
    val label = order.map(_.z).toArray
    val parent = parentBuf.toArray
    val tidStart = new Array[Int](n + 1)
    for (u <- 0 until n) tidStart(u + 1) = tidStart(u) + order(u).tids.length
    val tidArr = order.iterator.flatMap(_.tids).toArray

    val np = pivots.length
    val dmax = new Array[Double](n)
    val maxDev = new Array[Double](n)
    val hrMin = Array.fill(n * np)(Double.MaxValue)
    val hrMax = Array.fill(n * np)(Double.MinValue)
    for (u <- 0 until n if tidStart(u) < tidStart(u + 1)) {
      val path = mutable.ArrayBuffer.empty[Int]
      var a = u
      while (a != 0) { path += label(a); a = parent(a) }
      val refPts = grid.refPoints(path.reverseIterator.toArray)
      var p = 0
      while (p < np) {
        val d = measure.dist(refPts, pivots(p))
        hrMin(u * np + p) = d; hrMax(u * np + p) = d
        p += 1
      }
      var dm = 0.0
      var i = tidStart(u)
      while (i < tidStart(u + 1)) {
        val d = measure.dist(trajs(tidArr(i)).points, refPts)
        if (d > dm) dm = d
        i += 1
      }
      dmax(u) = dm
      maxDev(u) = dm
    }
    var c = n - 1
    while (c > 0) {
      val a = parent(c)
      var p = 0
      while (p < np) {
        if (hrMin(c * np + p) < hrMin(a * np + p)) hrMin(a * np + p) = hrMin(c * np + p)
        if (hrMax(c * np + p) > hrMax(a * np + p)) hrMax(a * np + p) = hrMax(c * np + p)
        p += 1
      }
      if (maxDev(c) > maxDev(a)) maxDev(a) = maxDev(c)
      c -= 1
    }
    new RPTrie(grid, measure, pivots, label, starts.toArray, tidStart, tidArr,
      dmax, maxDev, hrMin, hrMax)
  }
}
