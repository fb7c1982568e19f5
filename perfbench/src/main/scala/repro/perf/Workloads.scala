package repro.perf

import repro.core.{Hausdorff, Measure, ReposeConfig}
import repro.data.{Datasets, TrajGen}

/** One benchmark workload: a dataset analog of `Datasets`, a measure and the
  * query set. `loopQueries` is the fixed number of single
  * queries of the closed loop (it cycles through the query set), so the tail
  * percentile is the same on every run.
  */
final case class Workload(
    name: String,
    spec: TrajGen.Spec,
    measure: Measure,
    queries: Int,
    loopQueries: Int,
) {
  def delta: Double = Datasets.delta(spec, measure)

  def config: ReposeConfig = ReposeConfig(delta = delta, numPartitions = Workloads.Partitions)
}

object Workloads {

  val K = 50
  val Partitions = 16

  val all: Seq[Workload] = Seq(
    // Traversal-bound: fine all-sparse grid, large greedy trie, cheap refinement.
    // Half the analog keeps a run near 45 s; 312 trajectories per partition
    // still leave k = 50 well below the partition size.
    Workload("porto-hausdorff", Datasets.porto.copy(n = 5000), Hausdorff, queries = 60, loopQueries = 100),
    // Orchestration-bound: short trajectories; job launch, task wait and merge
    // dominate. The full analog.
    Workload("tdrive-hausdorff", Datasets.tdrive, Hausdorff, queries = 60, loopQueries = 400),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (expected one of ${all.map(_.name).mkString(", ")})"))
}
