package repro.core.search

import scala.collection.mutable
import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core._

/** The shared top-k pieces without Spark: the k-bounded accumulator, the
  * driver merge, and DFT's and DITA's sample-threshold loop.
  */
class TopKSuite extends AnyFunSuite {

  private def byDistanceThenId(rs: Seq[(Long, Double)]): Seq[(Long, Double)] =
    rs.sortBy(r => (r._2, r._1))

  test("Accumulator keeps the k smallest pairs by (distance, id) in any offer order") {
    val rnd = new Random(3L)
    // Few distinct distances, so most pairs tie with another one.
    val pairs = (0L until 40L).map(id => (id, rnd.nextInt(6).toDouble))
    for (k <- Seq(1, 3, 10, 40, 60); round <- 0 until 5) {
      val best = new TopK.Accumulator(k)
      rnd.shuffle(pairs).foreach { case (id, d) => best.offer(id, d) }
      val expected = byDistanceThenId(pairs).take(k)
      assert(best.result.toSeq == expected, s"k=$k round=$round")
      assert(best.dk == (if (k <= pairs.length) expected.last._2 else Double.MaxValue))
    }
  }

  test("Accumulator d_k is Double.MaxValue until k pairs are held") {
    val best = new TopK.Accumulator(2)
    assert(best.dk == Double.MaxValue)
    best.offer(5L, 3.0)
    assert(best.dk == Double.MaxValue)
    best.offer(4L, 1.0)
    assert(best.dk == 3.0)
    best.offer(3L, 2.0)
    assert(best.dk == 2.0)
    assert(best.result.toSeq == Seq((4L, 1.0), (3L, 2.0)))
  }

  test("Accumulator with k = 0 holds nothing") {
    val best = new TopK.Accumulator(0)
    best.offer(1L, 1.0)
    assert(best.result.isEmpty)
  }

  test("merge orders by (distance, id) and keeps k") {
    val rs = Array((9L, 1.0), (1L, 1.0), (4L, 0.5), (2L, 3.0))
    assert(TopK.merge(rs, 3).toSeq == Seq((4L, 0.5), (1L, 1.0), (9L, 1.0)))
    assert(TopK.merge(rs, 10).length == 4)
  }

  // ---- sample-threshold loop ------------------------------------------------

  private val q = Array(Point(0, 0), Point(1, 0))
  /** Trajectories at Fréchet distance 1, 2, …, n from `q` (a parallel shift). */
  private def shifted(n: Int): Array[Trajectory] =
    Array.tabulate(n)(i => Trajectory(i.toLong, q.map(p => Point(p.x, p.y + i + 1))))

  test("sampleTheta is the sample's k-th distance") {
    // c·k ≥ the pool, so the sample is the whole pool.
    assert(TopK.sampleTheta(q, shifted(6), Frechet, k = 3, c = 5, seed = 7L) == 3.0)
    // A sample smaller than k gives its largest distance.
    assert(TopK.sampleTheta(q, shifted(2), Frechet, k = 4, c = 5, seed = 7L) == 2.0)
  }

  test("sampleTheta floors a zero k-th distance at 1e-12") {
    val pool = Array(Trajectory(0L, q.clone()), Trajectory(1L, q.clone())) ++ shifted(3)
    assert(TopK.sampleTheta(q, pool, Frechet, k = 2, c = 5, seed = 7L) == 1e-12)
  }

  /** A fake `refine` that answers the scripted result for each θ and records θ. */
  private def scripted(script: Double => Array[(Long, Double)]) = {
    val seen = mutable.ArrayBuffer.empty[Double]
    val refine = (theta: Double) => { seen += theta; script(theta) }
    (seen, refine)
  }

  test("untilExact doubles θ while fewer than k results or a k-th distance > θ come back") {
    val (seen, refine) = scripted {
      case t if t < 4.0 => Array((1L, 0.5)) // fewer than k = 2 candidates
      case 4.0 => Array((1L, 0.5), (2L, 5.0)) // k-th distance 5 > θ = 4
      case _ => Array((1L, 0.5), (3L, 6.0)) // θ = 8: exact
    }
    val got = TopK.untilExact(1.0, k = 2)(refine)
    assert(seen.toSeq == Seq(1.0, 2.0, 4.0, 8.0))
    assert(got.toSeq == Seq((1L, 0.5), (3L, 6.0)))
  }

  test("untilExact stops on the first exact round") {
    val (seen, refine) = scripted(_ => Array((1L, 0.5), (2L, 3.0)))
    val got = TopK.untilExact(3.0, k = 2)(refine)
    assert(seen.toSeq == Seq(3.0))
    assert(got.toSeq == Seq((1L, 0.5), (2L, 3.0)))
  }
}
