package repro.core.model

/** Every constant the paper states about the evaluated workloads, plus the
  * few we had to derive; each value cites where it comes from.
  *
  * The paper's ×10 scaled rates are the defaults (S2SProbe 26.2 Mbps,
  * LogAnalytics 49.6 Mbps; §VI-A "Workloads"); budgets are fractions of a
  * single 2.4 GHz core (§VI-A "Testbed setup").
  */
object Calibration {

  /** Pingmesh record wire size (§II-B1): 86 bytes. */
  val PingmeshRecBytes: Double = 86.0

  /** ×10-scaled per-source Pingmesh rate (§VI-A): 26.2 Mbps. */
  val PingmeshMbps: Double = 26.2

  /** Pingmesh record rate at ×10 scale: 26.2 Mbps / 86 B ≈ 38 081 rec/s. */
  val PingmeshRecsPerSec: Double = PingmeshMbps * 1e6 / 8 / PingmeshRecBytes

  /** Filter keeps errCode == 0 records; filter-out rate 14 % (§VI-A). */
  val S2SFilterKeep: Double = 0.86

  /** F costs 13 % of a core on the full ×10 stream (§VI-B, Fig. 7a). */
  val S2SFilterCores: Double = 0.13

  /** Full S2SProbe needs ≈85 % of a core (§VI-B) ⇒ G+R ≈ 72 % on the
    * filtered stream.
    */
  val S2SGroupReduceCores: Double = 0.72

  /** Probe fan-out per source (§VI-A, guided by Pingmesh): 20 000 peers,
    * i.e. 20 000 (src,dst) groups per source; 10-second windows at 1-second
    * epochs.
    */
  val S2SGroups: Long = 20000L
  val WindowEpochs: Int = 10

  /** Serialized aggregate record (window, srcIp, dstIp, avg, max, min, cnt):
    * two 4-byte IPs, an 8-byte window, three 8-byte doubles, an 8-byte count
    * plus Kryo framing ≈ the 86-byte input record. Derived; keeps the
    * aggregation's data reduction tied to probes-per-pair-per-window, which
    * is what makes the ×1-scale scaling experiment behave as in Fig. 10(c).
    */
  val S2SAggRecBytes: Double = 86.0

  /** T2TProbe: join projects to (srcToR, dstToR, rtt[, window]) — a ~20-byte
    * record (§VI-B: "the output size of the projection is less than the
    * input size of the J operator").
    */
  val T2TJoinedRecBytes: Double = 20.0

  /** ToR-pair group count per source — one source ToR against the ToRs of
    * its 20 K peers (derived; a few hundred ToRs).
    */
  val T2TGroups: Long = 500L

  /** Reference static-table size for the T2T throughput table (Fig. 7b). */
  val T2TTableSizeRef: Long = 500L

  /** Join cost share at the reference table size — chosen so F+J exceeds a
    * core (§VI-B: Best-OP "cannot accommodate J operator even at 100 % CPU";
    * All-Src "cannot handle the input rate even at 100 % CPU").
    */
  val T2TJoinCoresRef: Double = 0.95

  /** Join cost growth with the static table size (hash-table cache misses):
    * cost(size) = ref × (1 + 0.17·ln(size/ref)). Derived — the paper only
    * states cost increases with table size (§VI-C).
    */
  def t2tJoinCores(tableSize: Long): Double =
    math.max(0.05, T2TJoinCoresRef * (1 + 0.17 * math.log(tableSize.toDouble / T2TTableSizeRef)))

  /** G+R over ToR pairs, on the joined stream (derived so the query totals
    * ≈1.4 cores at the reference size).
    */
  val T2TGroupReduceCores: Double = 0.33

  /** LogAnalytics ×10-scaled rate (§VI-A): 49.6 Mbps. */
  val LogMbps: Double = 49.6

  /** Average raw log line size (derived from "0.62 MBps" per source and the
    * generator's line format): 124 bytes ⇒ 50 000 lines/s at ×10.
    */
  val LogRecBytes: Double = 124.0
  val LogRecsPerSec: Double = LogMbps * 1e6 / 8 / LogRecBytes

  /** Full LogAnalytics uses 31 % of a core at 49.6 Mbps (§VI-B), split
    * F 4 % / M 17 % / G+R 10 % (derived; parse dominates text pipelines).
    */
  val LogFilterCores: Double = 0.04
  val LogMapCores: Double = 0.17
  val LogGroupReduceCores: Double = 0.10

  /** Low filter-out rate on log lines (§VI-B): keep 95 %. */
  val LogFilterKeep: Double = 0.95

  /** Parsed JobStats record (tenant, latency, cpu, mem): 28 bytes. */
  val LogParsedRecBytes: Double = 28.0

  /** Histogram groups: tenants × latency buckets. */
  val LogTenants: Long = 100L
  val LogBuckets: Long = 30L
  val LogAggRecBytes: Double = 24.0

  /** Effective per-query per-source bandwidth (§VI-A "Network
    * configuration"): 10 Gbps / 250 sources / 20 queries × 10 = 20.48 Mbps.
    * Scales with the data-rate scale factor (×10 default).
    */
  def perSourceBandwidthMbps(scale: Double = 10.0): Double = 2.048 * scale

  /** Per-query share of the stream processor's 10 Gbps link across 20
    * queries (§VI-A) — the aggregate cap in multi-source experiments.
    */
  val PerQueryLinkMbps: Double = 10000.0 / 20

  /** SP cores available in the multi-source scaling experiments (Fig. 10):
    * one query under test on the 64-core m5a.16xlarge, ~75 % usable after
    * engine overhead.
    */
  val SpCoresScaling: Double = 48.0

  /** Control-loop constants (§IV-C, §VI-C): 1 s epochs; 3 consecutive
    * non-stable epochs to detect a change; thresholds against oscillation;
    * load-factor grid for binary-search fine-tuning.
    */
  val EpochSeconds: Double = 1.0
  val DetectEpochs: Int = 3
  val DrainedThres: Double = 0.05
  val IdleThres: Double = 0.10
  val LoadFactorGrid: Int = 20

  /** Super-linear service degradation when demanded CPU exceeds the budget
    * (thrashing / GC / backlog serialization on 1-GB t2.micro nodes):
    * effective processing scale = (C/D)^(1+OverloadAlpha). The one free
    * parameter of the performance model (DESIGN.md §3).
    */
  val OverloadAlpha: Double = 0.5

  /** End-to-end latency bound for the throughput metric (§VI-A): 5 s. */
  val LatencyBoundSec: Double = 5.0

  // ------------------------------------------------------------------
  // Calibrated query specs
  // ------------------------------------------------------------------

  /** S2SProbe (Listing 1): W → F → G+R over Pingmesh records. */
  val s2sProbe: QuerySpec = {
    val f = OperatorSpec(
      name = "F", kind = OpKind.Filter,
      costSecPerRec = S2SFilterCores / PingmeshRecsPerSec,
      recRelay = S2SFilterKeep,
      bytesInPerRec = PingmeshRecBytes, bytesOutPerRec = PingmeshRecBytes,
    )
    val gr = OperatorSpec(
      name = "G+R", kind = OpKind.GroupReduce,
      costSecPerRec = S2SGroupReduceCores / (S2SFilterKeep * PingmeshRecsPerSec),
      recRelay = 1.0,
      bytesInPerRec = PingmeshRecBytes, bytesOutPerRec = S2SAggRecBytes,
      groupCount = S2SGroups, windowEpochs = WindowEpochs,
    )
    QuerySpec("S2SProbe", Vector(f, gr), PingmeshRecBytes, PingmeshRecsPerSec)
  }

  /** T2TProbe (Listing 2): W → F → J(ip→ToR) → G+R, parameterized by the
    * static table size.
    */
  def t2tProbe(tableSize: Long = T2TTableSizeRef): QuerySpec = {
    val f = OperatorSpec(
      name = "F", kind = OpKind.Filter,
      costSecPerRec = S2SFilterCores / PingmeshRecsPerSec,
      recRelay = S2SFilterKeep,
      bytesInPerRec = PingmeshRecBytes, bytesOutPerRec = PingmeshRecBytes,
    )
    val j = OperatorSpec(
      name = "J", kind = OpKind.Join,
      costSecPerRec = t2tJoinCores(tableSize) / (S2SFilterKeep * PingmeshRecsPerSec),
      recRelay = 1.0,
      bytesInPerRec = PingmeshRecBytes, bytesOutPerRec = T2TJoinedRecBytes,
    )
    val gr = OperatorSpec(
      name = "G+R", kind = OpKind.GroupReduce,
      costSecPerRec = T2TGroupReduceCores / (S2SFilterKeep * PingmeshRecsPerSec),
      recRelay = 1.0,
      bytesInPerRec = T2TJoinedRecBytes, bytesOutPerRec = S2SAggRecBytes,
      groupCount = T2TGroups, windowEpochs = WindowEpochs,
    )
    QuerySpec("T2TProbe", Vector(f, j, gr), PingmeshRecBytes, PingmeshRecsPerSec)
  }

  /** LogAnalytics (Listing 3): W → F(valid line) → M(parse) → G+R(histogram)
    * over raw text lines.
    */
  val logAnalytics: QuerySpec = {
    val f = OperatorSpec(
      name = "F", kind = OpKind.Filter,
      costSecPerRec = LogFilterCores / LogRecsPerSec,
      recRelay = LogFilterKeep,
      bytesInPerRec = LogRecBytes, bytesOutPerRec = LogRecBytes,
    )
    val m = OperatorSpec(
      name = "M", kind = OpKind.Map,
      costSecPerRec = LogMapCores / (LogFilterKeep * LogRecsPerSec),
      recRelay = 1.0,
      bytesInPerRec = LogRecBytes, bytesOutPerRec = LogParsedRecBytes,
    )
    val gr = OperatorSpec(
      name = "G+R", kind = OpKind.GroupReduce,
      costSecPerRec = LogGroupReduceCores / (LogFilterKeep * LogRecsPerSec),
      recRelay = 1.0,
      bytesInPerRec = LogParsedRecBytes, bytesOutPerRec = LogAggRecBytes,
      groupCount = LogTenants * LogBuckets, windowEpochs = WindowEpochs,
    )
    QuerySpec("LogAnalytics", Vector(f, m, gr), LogRecBytes, LogRecsPerSec)
  }
}
