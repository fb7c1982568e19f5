package repro.core.rptrie

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

import repro.TestUtils
import repro.TestUtils.tids
import repro.core._
import repro.core.search.LocalSearch

/** Succinct encoding tests: bit-for-bit traversal equivalence with the
  * flat trie it shares its arrays with, and dense/sparse level split
  * behaviour.
  */
class SuccinctSuite extends AnyFunSuite {

  private val grid = ZGrid.fit(MBR(0, 0, 10, 10), 1.0)
  private val trajs = TestUtils.randomTrajs(120, maxLen = 12, seed = 131L)

  private def children(t: TrieAccess, v: Int): Seq[(Int, Int)] = {
    val buf = mutable.ArrayBuffer.empty[(Int, Int)]
    t.foreachChild(v)((z, c) => buf += ((z, c)))
    buf.toSeq
  }

  private def assertEquivalent(ptr: RPTrie, suc: SuccinctRPTrie): Unit = {
    assert(ptr.numNodes == suc.numNodes)
    for (v <- 0 until ptr.numNodes) {
      val pc = children(ptr, v)
      val sc = children(suc, v)
      assert(pc == sc, s"children differ at node $v: $pc vs $sc")
      assert(ptr.childCount(v) == suc.childCount(v))
      assert(tids(ptr, v).toSeq == tids(suc, v).toSeq, s"tids differ at $v")
      assert(ptr.dmax(v) == suc.dmax(v))
      assert(ptr.maxDev(v) == suc.maxDev(v))
      for (p <- ptr.pivots.indices) {
        assert(ptr.hrMin(v, p) == suc.hrMin(v, p))
        assert(ptr.hrMax(v, p) == suc.hrMax(v, p))
      }
    }
  }

  for (m <- Seq[Measure](Hausdorff, Frechet, DTW); opt <- Seq(false, true)) {
    test(s"pointer and succinct tries traverse identically (${m.name}, optimized=$opt)") {
      val ptr = RPTrie.build(trajs, grid, m, np = 3,
        optimized = opt && m.orderIndependent)
      assertEquivalent(ptr, SuccinctRPTrie.encode(ptr))
    }
  }

  test("dense/sparse split: tiny denseNodeMax pushes everything sparse") {
    val ptr = RPTrie.build(trajs, grid, Hausdorff, np = 2)
    val allSparse = SuccinctRPTrie.encode(ptr, denseNodeMax = 0)
    assert(allSparse.denseCount == 0)
    assertEquivalent(ptr, allSparse)
  }

  test("dense/sparse split: huge denseNodeMax makes everything dense") {
    val ptr = RPTrie.build(trajs, grid, Hausdorff, np = 2)
    val allDense = SuccinctRPTrie.encode(ptr, denseNodeMax = Int.MaxValue)
    assert(allDense.denseCount == ptr.numNodes)
    assertEquivalent(ptr, allDense)
  }

  test("large alphabets (cells > denseCellMax) fall back to all-sparse") {
    val fineGrid = ZGrid.fit(MBR(0, 0, 10, 10), 0.05) // 256x256 = 65536 cells
    val ptr = RPTrie.build(trajs, fineGrid, Hausdorff, np = 2)
    val suc = SuccinctRPTrie.encode(ptr)
    assert(suc.denseCount == 0)
    assertEquivalent(ptr, suc)
  }

  test("default split has a dense upper part on small alphabets") {
    val ptr = RPTrie.build(trajs, grid, Hausdorff, np = 2)
    val suc = SuccinctRPTrie.encode(ptr)
    assert(suc.denseCount > 0)
    assert(suc.denseCount <= ptr.numNodes)
  }

  test("search results are identical on pointer and succinct tries") {
    val q = TestUtils.randomQuery(9, seed = 137L)
    val ptr = RPTrie.build(trajs, grid, Hausdorff, np = 3)
    val suc = SuccinctRPTrie.encode(ptr)
    assert(suc.denseCount > 0)
    val (sa, sb) = (new LocalSearch.Stats, new LocalSearch.Stats)
    val a = LocalSearch.topK(ptr, trajs, q, 15, sa)
    val b = LocalSearch.topK(suc, trajs, q, 15, sb)
    assert(a.toSeq == b.toSeq)
    assert(sa.nodesPopped > 0 && sa.exactDistances > 0)
    assert((sa.nodesPopped, sa.nodesPushed, sa.exactDistances) ==
      (sb.nodesPopped, sb.nodesPushed, sb.exactDistances))
  }

  test("encoding a single-node trie works") {
    val ptr = RPTrie.build(Array.empty[Trajectory], grid, Hausdorff)
    val suc = SuccinctRPTrie.encode(ptr)
    assert(suc.numNodes == 1)
    assert(children(suc, 0).isEmpty)
  }
}
