package repro.core.rptrie

/** Succinct RP-Trie (§III-B "Succinct trie structure", after SuRF).
  *
  * The upper (dense) levels — few, frequently accessed nodes — store their
  * children as a `B_c` bitmap per node, `numCells` bits wide, concatenated in
  * BFS order: bit z marks a child with label z, and the child's handle is
  * `childStart(v)` plus the bit's rank. The lower (sparse) levels — the long
  * tail — are the `RPTrie`'s own label arrays. Labels, child offsets, tids
  * and payloads are the `RPTrie`'s arrays, shared by reference; `B_c` is the
  * only data this encoding adds. SuRF's `B_l` (which children are internal)
  * is not stored: every child has its own handle, so "internal" is
  * `childCount(c) > 0`.
  *
  * Whole levels are encoded densely while the running node count stays ≤
  * `denseNodeMax` and the grid alphabet is ≤ `denseCellMax` bits per bitmap —
  * the paper's 8×8 running example always qualifies; very fine grids fall
  * back to all-sparse (see DESIGN.md).
  */
final class SuccinctRPTrie private (
    trie: RPTrie,
    val denseCount: Int,
    wordsPerNode: Int,
    bc: Array[Long],
) extends RPTrie(
      trie.grid, trie.measure, trie.pivots, trie.label, trie.childStart,
      trie.tidStart, trie.tidArr, trie.dmaxArr, trie.maxDevArr, trie.hrMinArr, trie.hrMaxArr) {

  override def foreachChild(v: Int)(f: (Int, Int) => Unit): Unit =
    if (v < denseCount) {
      var child = childStart(v)
      val base = v * wordsPerNode
      var w = 0
      while (w < wordsPerNode) {
        var word = bc(base + w)
        while (word != 0L) {
          val bit = java.lang.Long.numberOfTrailingZeros(word)
          f(w * 64 + bit, child)
          child += 1
          word &= word - 1
        }
        w += 1
      }
    } else super.foreachChild(v)(f)
}

object SuccinctRPTrie {

  /** Encode a frozen RP-Trie: BFS numbering and z-sorted child order are
    * shared, so traversal is bit-for-bit equivalent.
    */
  def encode(
      trie: RPTrie,
      denseNodeMax: Int = 256,
      denseCellMax: Int = 4096,
  ): SuccinctRPTrie = {
    val cells = trie.grid.numCells

    // Dense prefix: whole BFS levels while the cumulative node count stays
    // small. Level L is the handle range [lo, hi); its children, level L + 1,
    // are [hi, childStart(hi)).
    var denseCount = 0
    if (cells <= denseCellMax) {
      var lo = 0
      var hi = 1
      while (hi > lo && hi <= denseNodeMax) { lo = hi; hi = trie.childStart(hi) }
      denseCount = lo
    }

    val wordsPerNode = math.max(1, (cells + 63) / 64)
    val bc = new Array[Long](denseCount * wordsPerNode)
    for (v <- 0 until denseCount)
      trie.foreachChild(v)((z, _) => bc(v * wordsPerNode + (z >> 6)) |= 1L << (z & 63))
    new SuccinctRPTrie(trie, denseCount, wordsPerNode, bc)
  }
}
