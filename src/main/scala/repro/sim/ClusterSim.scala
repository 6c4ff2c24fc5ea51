package repro.sim

import repro.core.lp.LoadFactorLP
import repro.core.model.{Calibration, PlanFlow, QuerySpec}
import repro.core.strategy.PartitionStrategy

/** Steady-state performance of one data source under a partitioning plan. */
final case class SourcePerf(
    /** Wire Mbps leaving the source (drains + results). */
    netMbps: Double,
    /** CPU cores demanded by the plan at the offered rate. */
    cpuDemandCores: Double,
    /** Max input record rate the node itself can absorb (∞-like = offered
      * rate when a drain path exists).
      */
    processLimitRecsPerSec: Double,
    /** CPU-cores of *remaining* work the SP must run on this source's
      * drains to complete the query.
      */
    spDemandCores: Double,
    /** Effective load factors the plan ran with. */
    e: Vector[Double],
)

/** Steady-state throughput model for a core building block: N data sources
  * under one stream processor (paper Fig. 4b). Substitutes for the EC2
  * testbed — DESIGN.md §2.
  *
  * Throughput is the offered input rate clipped by (1) the node's own
  * processing limit when it has no drain path (All-Src), (2) the per-source
  * network share, (3) the SP link aggregate, and (4) SP compute. Latency is
  * an M/M/1-style queueing estimate over the most utilized resource with a
  * base epoch latency, reported against the paper's 5-second bound.
  */
object ClusterSim {

  /** Plan `strategy` for one source at `inputMbps` and evaluate the plan. */
  def sourcePerf(
      q: QuerySpec,
      strategy: PartitionStrategy,
      budgetCores: Double,
      inputMbps: Double,
  ): SourcePerf = {
    val rate = q.recsPerSecFor(inputMbps)
    val e = strategy.effectiveLoadFactors(q, budgetCores, rate)
    val p = LoadFactorLP.eToP(e)
    val ops = q.ops
    val flow = PlanFlow.evaluate(q, p, budgetCores, rate)

    if (!strategy.drainsOverflow) {
      // All-Src: unprocessable records backlog; sustained input = processed.
      val sustained = rate * PlanFlow.overloadScale(flow.cpuDemand, budgetCores)
      var r = sustained
      for (i <- 0 until q.numOps) r = ops(i).outRecsPerSec(p(i) * r)
      val outMbps = r * ops.last.bytesOutPerRec * 8 / 1e6
      SourcePerf(outMbps, flow.cpuDemand, sustained, 0.0, e)
    } else {
      // Drain-capable: shortfall force-drains; all input leaves the node.
      // Remaining per-record SP cost from operator i to the end, accounting
      // for record relays along the rest of the chain.
      val remainingCost = Array.fill(q.numOps + 1)(0.0)
      for (i <- (q.numOps - 1) to 0 by -1)
        remainingCost(i) = ops(i).costSecPerRec + ops(i).recRelay * remainingCost(i + 1)
      var spDemand = 0.0
      for (i <- 0 until q.numOps) {
        val px = flow.proxies(i)
        spDemand += ((px.incoming - px.intended) + (px.intended - px.processed)) * remainingCost(i)
      }
      SourcePerf(flow.netBytes * 8 / 1e6, flow.cpuDemand, rate, spDemand, e)
    }
  }

  /** One row of the single-source throughput tables (T1 / Fig. 7). */
  final case class ThroughputResult(
      strategy: String,
      budgetPct: Int,
      throughputMbps: Double,
      netMbps: Double,
      cpuDemandCores: Double,
      e: Vector[Double],
  )

  /** Single data source, single SP (SP compute unconstrained — one query on
    * a 64-core m5a.16xlarge).
    */
  def singleSourceThroughput(
      q: QuerySpec,
      strategy: PartitionStrategy,
      budgetPct: Int,
      inputMbps: Double,
      bandwidthMbps: Double,
  ): ThroughputResult = {
    val perf = sourcePerf(q, strategy, budgetPct / 100.0, inputMbps)
    val netLimited =
      if (perf.netMbps <= bandwidthMbps || perf.netMbps <= 0) inputMbps
      else inputMbps * bandwidthMbps / perf.netMbps
    val procLimited = q.mbps(perf.processLimitRecsPerSec)
    ThroughputResult(
      strategy.name,
      budgetPct,
      math.min(netLimited, procLimited),
      perf.netMbps,
      perf.cpuDemandCores,
      perf.e,
    )
  }

  /** One row of the multi-source scaling tables (T5 / Fig. 10). */
  final case class ScalingResult(
      strategy: String,
      nSources: Int,
      aggThroughputMbps: Double,
      perSourceNetMbps: Double,
      linkUtilization: Double,
      medianLatencyMs: Double,
      maxLatencyMs: Double,
  )

  /** Base epoch-processing latency when nothing queues (serialization +
    * one micro-batch); calibrated to the paper's healthy-load median.
    */
  val BaseLatencySec: Double = 0.33

  def multiSourceThroughput(
      q: QuerySpec,
      strategy: PartitionStrategy,
      budgetCores: Double,
      inputMbps: Double,
      nSources: Int,
  ): ScalingResult = {
    val perf = sourcePerf(q, strategy, budgetCores, inputMbps)
    scaleToSources(q, strategy.name, perf, inputMbps, nSources)
  }

  /** `nSources` sources that each run the plan evaluated as `perf`, sharing
    * the SP's link and cores.
    */
  private def scaleToSources(
      q: QuerySpec,
      strategyName: String,
      perf: SourcePerf,
      inputMbps: Double,
      nSources: Int,
  ): ScalingResult = {
    val netUtil = nSources * perf.netMbps / Calibration.PerQueryLinkMbps
    val spUtil = nSources * perf.spDemandCores / Calibration.SpCoresScaling
    val u = math.max(netUtil, spUtil)
    val perSourceIn = math.min(q.mbps(perf.processLimitRecsPerSec), inputMbps)
    val agg = nSources * perSourceIn * math.min(1.0, 1.0 / math.max(u, 1e-9))

    val (medianMs, maxMs) =
      if (u < 0.999) {
        val med = BaseLatencySec / (1.0 - u) * 1000.0
        (med, math.min(med * 3.0, 300e3))
      } else {
        // Saturated: backlog grows without bound; report the paper-style
        // ">60 s" sentinel.
        (60e3, 300e3)
      }
    ScalingResult(strategyName, nSources, agg, perf.netMbps, netUtil, medianMs, maxMs)
  }

  /** Largest source count for which aggregate throughput still scales
    * linearly (within `tolerance` of N × input rate).
    */
  def maxSupportedSources(
      q: QuerySpec,
      strategy: PartitionStrategy,
      budgetCores: Double,
      inputMbps: Double,
      upTo: Int = 300,
      tolerance: Double = 0.98,
  ): Int = {
    val perf = sourcePerf(q, strategy, budgetCores, inputMbps)
    var best = 0
    for (n <- 1 to upTo) {
      val r = scaleToSources(q, strategy.name, perf, inputMbps, n)
      if (r.aggThroughputMbps >= tolerance * n * inputMbps) best = n
    }
    best
  }
}
