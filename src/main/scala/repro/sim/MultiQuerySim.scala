package repro.sim

import repro.core.model.PlanFlow

/** Multiple query instances on one Jarvis-enabled data source node
  * (paper §VI-F, Fig. 11).
  *
  * Each instance runs with *fixed* load factors sized to a per-query CPU
  * demand (the paper's setup); the node's cores are shared under a fair
  * allocation policy, and each runtime instance adds a small fixed overhead
  * (control proxies + Jarvis runtime bookkeeping). When the summed demand
  * exceeds the cores, every query degrades equally with the same
  * super-linear overload model as the single-query simulator
  * ([[PlanFlow.overloadScale]]).
  */
object MultiQuerySim {

  /** Fixed per-runtime overhead in cores (paper §VI-B: Jarvis consumes
    * "less than 1 % of a single core"; we charge 1 % per instance plus the
    * dataflow-agent overhead).
    */
  val PerQueryOverheadCores: Double = 0.015

  final case class MultiQueryResult(
      cores: Int,
      nQueries: Int,
      perQueryDemandCores: Double,
      aggThroughputMbps: Double,
      saturated: Boolean,
  )

  /** Aggregate throughput of `nQueries` identical instances.
    *
    * @param cores               cores on the node (1 = t2.micro, 2 = t2.medium)
    * @param perQueryDemandCores CPU demand of one instance's fixed plan
    * @param perQueryInputMbps   input rate of one instance
    */
  def aggregateThroughput(
      cores: Int,
      nQueries: Int,
      perQueryDemandCores: Double,
      perQueryInputMbps: Double,
  ): MultiQueryResult = {
    val demand = nQueries * (perQueryDemandCores + PerQueryOverheadCores)
    MultiQueryResult(
      cores = cores,
      nQueries = nQueries,
      perQueryDemandCores = perQueryDemandCores,
      aggThroughputMbps = nQueries * perQueryInputMbps * PlanFlow.overloadScale(demand, cores),
      saturated = demand > cores,
    )
  }

  /** Largest query count whose aggregate throughput is still within
    * `tolerance` of ideal (nQueries × input rate) — the paper's "supports
    * up to N queries".
    */
  def maxSupportedQueries(
      cores: Int,
      perQueryDemandCores: Double,
      perQueryInputMbps: Double,
      upTo: Int = 40,
      tolerance: Double = 0.95,
  ): Int =
    (1 to upTo)
      .takeWhile { n =>
        val r = aggregateThroughput(cores, n, perQueryDemandCores, perQueryInputMbps)
        r.aggThroughputMbps >= tolerance * n * perQueryInputMbps
      }
      .lastOption
      .getOrElse(0)
}
