package repro.bench

import repro.core.lp.LoadFactorLP
import repro.core.model.Calibration
import repro.core.strategy.PartitionStrategy
import repro.dataflow.{MonitoringData, PartitionedExec, Queries}
import repro.exp.Exp4Synopsis
import repro.{DfCompare, SparkSpec}

/** T4 — paper Fig. 9: data-synopsis (WSP sampling) accuracy/network
  * trade-off vs Jarvis' lossless partitioning, on real Spark execution at
  * benchmark scale (~0.9 M probe records, SF≈0.1).
  */
class T4SynopsisBench extends SparkSpec {

  private lazy val wspRows = Exp4Synopsis.wspRows(spark)
  private def row(rate: Double) = wspRows.find(_.samplingRate == rate).get

  test("print T4 tables (Fig. 9)") {
    Exp4Synopsis.printAll(spark)
    assert(wspRows.size == 4)
  }

  test("high sampling rates keep most range errors within 1 ms (paper: 85-90% at 0.6-0.8)") {
    info(f"err<=1ms at 0.8: ${row(0.8).errLe1msPct}%.1f%% (paper: ~90%%)")
    assert(row(0.8).errLe1msPct >= 80.0, s"${row(0.8)}")
    assert(row(0.6).errLe1msPct >= 70.0, s"${row(0.6)}")
  }

  test("low sampling rates push 20-40% of errors beyond 1 ms (paper)") {
    val gt1At02 = 100.0 - row(0.2).errLe1msPct
    info(f"err>1ms at 0.2: $gt1At02%.1f%% (paper: 20-40%%)")
    assert(gt1At02 >= 15.0, s"${row(0.2)}")
  }

  test("sampling misses alerts at low rates (paper: 10-38% missed at 0.2-0.4)") {
    info(f"missed alerts at 0.2: ${row(0.2).missedAlertPct}%.1f%% " +
      f"at 0.4: ${row(0.4).missedAlertPct}%.1f%% (paper: 10-38%%)")
    assert(row(0.2).missedAlertPct >= 8.0, s"${row(0.2)}")
    assert(row(0.2).missedAlertPct >= row(0.8).missedAlertPct)
  }

  test("WSP network cost equals its sampling rate; only low rates save bandwidth") {
    wspRows.foreach(r => assert(r.netPctOfInput == r.samplingRate * 100))
  }

  test("Jarvis spans a similar-or-better bandwidth range losslessly (paper: 11.4-90%)") {
    val jr = Exp4Synopsis.jarvisRows
    val at100 = jr.find(_.budgetPct == 100).get.netPctOfInput
    val at20 = jr.find(_.budgetPct == 20).get.netPctOfInput
    info(f"Jarvis net: $at100%.1f%% of input at 100%% CPU, $at20%.1f%% at 20%% (paper: 11.4-90%%)")
    assert(at100 <= 20.0, s"at100=$at100")
    assert(at20 <= 95.0, s"at20=$at20")
    assert(at100 < at20)
  }

  test("Jarvis is exactly lossless at benchmark scale (partitioned == full, LP plan at 60%)") {
    val pings = MonitoringData.pingmesh(spark, nSources = 40, nPeers = 120, nEpochs = 60,
      probesPerEpoch = 3).cache()
    try {
      val q = Calibration.s2sProbe
      val e = PartitionStrategy.Jarvis.effectiveLoadFactors(q, 0.6, q.inputRecsPerSec)
      val eGrid = e.map(x => math.floor(x * 20) / 20) // runtime's discretized plan
      DfCompare.assertSameRows(
        PartitionedExec.S2S.run(pings, PartitionedExec.S2S.lanes(eGrid)).result,
        Queries.s2sFull(pings),
        "Jarvis losslessness at scale")
      // e really is an interior (partial) plan, not a degenerate one.
      assert(eGrid.exists(x => x > 0.0 && x < 1.0), s"e=$eGrid")
      assert(LoadFactorLP.eToP(e).nonEmpty)
    } finally pings.unpersist()
  }
}
