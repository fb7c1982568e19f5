package repro

import repro.baselines.LinearSearch
import repro.baselines.dft.DFT
import repro.baselines.dita.DITA
import repro.core._
import repro.core.rptrie.RPTrie
import repro.core.search.LocalSearch

/** The query contract shared by every search path: distance ties are broken
  * by id, and an empty query is rejected on the driver.
  */
class QueryContractSuite extends SparkSpec {

  // Two identical trajectories, the larger id first: a k = 1 query ties them.
  // The points are off the cell centres, so that LocalSearch's leaf bound
  // stays below the tied distance (it prunes a candidate whose bound reaches
  // d_k, and would then never see the second twin).
  private val pts = Array(Point(1.2, 1.3), Point(3.7, 2.4), Point(5.6, 4.2))
  private val twins = Array(Trajectory(9L, pts), Trajectory(1L, pts))
  private val q = Array(Point(1.0, 2.0), Point(3.0, 3.0), Point(5.0, 5.0))
  private def twinRdd = spark.sparkContext.parallelize(twins.toIndexedSeq, 1)

  test("a distance tie keeps the smaller id: LocalSearch.topK") {
    val grid = ZGrid.fit(MBR(0, 0, 8, 8), 1.0)
    for (optimized <- Seq(false, true)) {
      val trie = RPTrie.build(twins, grid, Frechet, np = 0, optimized = optimized)
      assert(LocalSearch.topK(trie, twins, q, 1).toSeq ==
        Seq((1L, Frechet.dist(q, pts))), s"optimized=$optimized")
    }
  }

  test("a distance tie keeps the smaller id: LinearSearch (one partition)") {
    val idx = LinearSearch.build(twinRdd, Frechet, numPartitions = 1)
    try assert(idx.query(q, 1).toSeq == Seq((1L, Frechet.dist(q, pts))))
    finally idx.unpersist()
  }

  test("a distance tie keeps the smaller id: DITA (Frechet)") {
    val idx = DITA.build(twinRdd, Frechet, numPartitions = 1)
    try assert(idx.query(q, 1).toSeq == Seq((1L, Frechet.dist(q, pts))))
    finally idx.unpersist()
    // DITA sorts its entries by (first cell, last cell, id), so identical
    // trajectories always meet the smaller id first. These two mirror each
    // other across the query, and the larger id has the smaller first cell.
    val mirrored = Array(
      Trajectory(9L, Array(Point(1, 1), Point(5, 1))),
      Trajectory(1L, Array(Point(1, 3), Point(5, 3))))
    val mq = Array(Point(1, 2), Point(5, 2))
    val idx2 = DITA.build(spark.sparkContext.parallelize(mirrored.toIndexedSeq, 1),
      Frechet, numPartitions = 1)
    try assert(idx2.query(mq, 1).toSeq == Seq((1L, 1.0)))
    finally idx2.unpersist()
  }

  // ---- empty queries --------------------------------------------------------

  private val trajs = TestUtils.randomTrajs(60, maxLen = 8, seed = 263L)
  private def rdd = spark.sparkContext.parallelize(trajs.toIndexedSeq, 2)
  private val empty = Array.empty[Point]

  test("an empty query is rejected on the driver: Repose (Hausdorff)") {
    val idx = Repose.build(spark, rdd, Hausdorff, ReposeConfig(delta = 1.0, numPartitions = 2))
    try {
      intercept[IllegalArgumentException](idx.query(empty, 3))
      intercept[IllegalArgumentException](idx.queryBatch(Array(q, empty), 3))
    } finally idx.unpersist()
  }

  test("an empty query is rejected on the driver: LinearSearch (Frechet)") {
    val idx = LinearSearch.build(rdd, Frechet, numPartitions = 2)
    try intercept[IllegalArgumentException](idx.queryBatch(Array(empty), 3))
    finally idx.unpersist()
  }

  test("an empty query is rejected on the driver: DFT (Frechet)") {
    val idx = DFT.build(rdd, Frechet, numPartitions = 2)
    try intercept[IllegalArgumentException](idx.query(empty, 3))
    finally idx.unpersist()
  }

  test("an empty query is rejected on the driver: DITA (Frechet)") {
    val idx = DITA.build(rdd, Frechet, numPartitions = 2)
    try intercept[IllegalArgumentException](idx.query(empty, 3))
    finally idx.unpersist()
  }
}
