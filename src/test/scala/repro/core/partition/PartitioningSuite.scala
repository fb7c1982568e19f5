package repro.core.partition

import repro.{SparkSpec, TestUtils}
import repro.core._

/** Global partitioning tests (§V-B): balance, cluster scattering vs
  * clustering, determinism, and the custom Partitioner wiring.
  */
class PartitioningSuite extends SparkSpec {

  private def data = {
    val trajs = TestUtils.randomTrajs(400, maxLen = 10, seed = 139L)
    spark.sparkContext.parallelize(trajs.toIndexedSeq, 8)
  }
  private val mbr = MBR(0, 0, 10, 10)

  test("IdPartitioner routes by precomputed key") {
    val p = new IdPartitioner(7)
    assert(p.numPartitions == 7)
    assert(p.getPartition(3) == 3)
  }

  for (st <- Seq[PartitionStrategy](Heterogeneous, Homogeneous, RandomPartitioning)) {
    test(s"${st.name}: every trajectory is assigned exactly once to a valid partition") {
      val assigned = GlobalPartitioning.assign(data, st, 8, mbr).collect()
      assert(assigned.length == 400)
      assert(assigned.forall { case (pid, _) => pid >= 0 && pid < 8 })
      assert(assigned.map(_._2.id).sorted.toSeq == (0L until 400L))
    }

    test(s"${st.name}: partition sizes are balanced") {
      val sizes = GlobalPartitioning.assign(data, st, 8, mbr)
        .map { case (pid, _) => (pid, 1L) }
        .reduceByKey(_ + _).values.collect()
      assert(sizes.length == 8)
      // Sorted strategies deal/chunk exactly; random hashing is binomial, so
      // allow it the mean partition size as spread.
      val tol = if (st == RandomPartitioning) 400 / 8 else math.max(2, 400 / 8 / 4)
      assert(sizes.max - sizes.min <= tol, s"unbalanced: ${sizes.toList}")
    }
  }

  test("heterogeneous scatters each cluster across partitions; homogeneous concentrates it") {
    // Two tight, far-apart bundles of identical-ish trajectories.
    def bundle(n: Int, cx: Double, cy: Double, idBase: Long): Seq[Trajectory] =
      (0 until n).map { i =>
        Trajectory(idBase + i, Array(Point(cx, cy), Point(cx + 0.01, cy + 0.01)))
      }
    val trajs = bundle(64, 1, 1, 0) ++ bundle(64, 9, 9, 64)
    val rdd = spark.sparkContext.parallelize(trajs, 4)
    val p = 8

    val het = GlobalPartitioning.assign(rdd, Heterogeneous, p, mbr).collect()
    val hetPartsOfC1 = het.filter(_._2.id < 64).map(_._1).toSet
    assert(hetPartsOfC1.size == p, s"heterogeneous left cluster on ${hetPartsOfC1.size} partitions")

    val hom = GlobalPartitioning.assign(rdd, Homogeneous, p, mbr).collect()
    val homPartsOfC1 = hom.filter(_._2.id < 64).map(_._1).toSet
    assert(homPartsOfC1.size <= p / 2, s"homogeneous spread cluster over ${homPartsOfC1.size}")
  }

  test("partitioned() places rows on their assigned partition") {
    val assigned = GlobalPartitioning.assign(data, Heterogeneous, 6, mbr)
    val placed = GlobalPartitioning.partitioned(assigned, 6)
    assert(placed.getNumPartitions == 6)
    val check = placed
      .mapPartitionsWithIndex { (pid, it) => Iterator.single((pid, it.size)) }
      .collect()
    assert(check.map(_._2).sum == 400)
  }

  test("assignment is deterministic") {
    val a = GlobalPartitioning.assign(data, Heterogeneous, 8, mbr)
      .collect().sortBy(_._2.id).map(_._1).toSeq
    val b = GlobalPartitioning.assign(data, Heterogeneous, 8, mbr)
      .collect().sortBy(_._2.id).map(_._1).toSeq
    assert(a == b)
  }

  /** Plain-Scala §V-B reference: consecutive-deduped grid cells of `t` at
    * precision `p` (2^p × 2^p cells over the square spanned by `mbr`).
    */
  private def cells(t: Trajectory, p: Int): Vector[(Int, Int)] = {
    val side = 1 << p
    val u = math.max(mbr.width, mbr.height)
    def cell(v: Double, lo: Double) = math.min(side - 1, math.max(0, ((v - lo) / u * side).toInt))
    t.points.foldLeft(Vector.empty[(Int, Int)]) { (acc, pt) =>
      val c = (cell(pt.x, mbr.minX), cell(pt.y, mbr.minY))
      if (acc.lastOption.contains(c)) acc else acc :+ c
    }
  }

  test("clusterKeys coarsens until cluster count is near N/numPartitions") {
    val trajs = TestUtils.randomTrajs(400, maxLen = 10, seed = 139L)
    val target = math.max(8, 400 / 8)
    val distinctAt = (1 to 10).map(p => p -> trajs.map(cells(_, p)).distinct.length).toMap
    // The finest precision with at most max(P, N/P) clusters, else the coarsest.
    val p = (10 to 1 by -1).find(distinctAt(_) <= target).getOrElse(1)
    val keys = GlobalPartitioning.clusterKeys(data, mbr, 8).collect()
    assert(keys.map(_._1).sorted.toSeq == (0L until 400L))
    assert(keys.map(_._2).distinct.length == distinctAt(p),
      s"expected precision $p; distinct sequences per precision: ${distinctAt.toSeq.sorted}")
    // Same clusters, not just the same number of them.
    def clusters[K](pairs: Seq[(Long, K)]): Set[Set[Long]] =
      pairs.groupMap(_._2)(_._1).values.map(_.toSet).toSet
    assert(clusters(keys.toSeq) == clusters(trajs.toSeq.map(t => (t.id, cells(t, p)))))
  }

  for (st <- Seq[PartitionStrategy](Heterogeneous, Homogeneous)) {
    test(s"${st.name}: assign ranks by (cluster key, id) like the plain-Scala reference") {
      val ranked = GlobalPartitioning.clusterKeys(data, mbr, 8).collect()
        .sortBy { case (id, key) => (key, id) }.map(_._1)
      val expected = ranked.zipWithIndex.map { case (id, r) =>
        id -> (if (st == Heterogeneous) r % 8 else r * 8 / ranked.length)
      }.toMap
      val got = GlobalPartitioning.assign(data, st, 8, mbr).collect()
        .map { case (pid, t) => t.id -> pid }.toMap
      assert(got == expected)
    }
  }

  test("partition size histogram matches DuckDB (oracle)") {
    import spark.implicits._
    val assigned = GlobalPartitioning.assign(data, Heterogeneous, 8, mbr)
      .map { case (pid, t) => (pid, t.id) }
      .toDF("pid", "tid")
    val hist = assigned.groupBy($"pid").count().select($"pid", $"count" as "cnt")
    repro.Oracle.assertEquivalent(
      hist,
      "SELECT pid, count(*) AS cnt FROM assigned GROUP BY pid",
      "assigned" -> assigned)
  }
}
