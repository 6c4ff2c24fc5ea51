package repro.dataflow

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{lit, udf}
import repro.core.adapt.{EpochObs, JarvisRuntime, Phase}
import repro.core.model.{OpKind, OperatorSpec, QuerySpec}
import repro.sim.SourceNodeSim
import repro.{DfCompare, SparkSpec}

/** The Jarvis control loop driving *real Spark execution* epoch by epoch:
  * load factors adapt to a (simulated) budget while every epoch's
  * partitioned result stays identical to the full query — losslessness
  * holds even mid-adaptation.
  */
class EpochSparkDriverSpec extends SparkSpec {

  /** S2S-shaped spec scaled to the tiny test stream: 200 records/epoch,
    * full pipeline demand = 0.85 cores at that rate.
    */
  private val RecsPerEpoch = 200.0
  private val testSpec: QuerySpec = {
    val f = OperatorSpec("F", OpKind.Filter,
      costSecPerRec = 0.13 / RecsPerEpoch, recRelay = 0.86,
      bytesInPerRec = 86, bytesOutPerRec = 86)
    val gr = OperatorSpec("G+R", OpKind.GroupReduce,
      costSecPerRec = 0.72 / (0.86 * RecsPerEpoch), recRelay = 1.0,
      bytesInPerRec = 86, bytesOutPerRec = 120, groupCount = 2000, windowEpochs = 10)
    QuerySpec("S2SProbe-test", Vector(f, gr), 86, RecsPerEpoch)
  }

  private def batchFor(epoch: Int): DataFrame =
    MonitoringData.pingmesh(spark, nSources = 4, nPeers = 16, nEpochs = 1,
      probesPerEpoch = 50, seed = 1000L + epoch)

  private def newDriver(budget: Double) = new EpochSparkDriver(spark, testSpec, batchFor, budget)

  test("zero load factors observe the full stream at proxy 1 and nothing local") {
    val d = newDriver(0.5)
    val obs = d.runEpoch(Vector(0.0, 0.0))
    assert(obs.proxies(0).incoming == 200.0)
    assert(obs.proxies(0).intended == 0.0)
    assert(obs.cpuDemand == 0.0)
    assert(obs.drainedBytes == 200 * 86.0)
  }

  test("full load factors process everything within an ample budget") {
    val d = newDriver(1.0)
    val obs = d.runEpoch(Vector(1.0, 1.0))
    assert(obs.proxies(0).intended == 200.0)
    assert(obs.proxies(0).forcedDrain < 1e-9)
    assert(obs.cpuDemand > 0.7 && obs.cpuDemand < 1.0, s"demand=${obs.cpuDemand}")
  }

  test("measured lane counts track the load factors") {
    val d = newDriver(1.0)
    val obs = d.runEpoch(Vector(1.0, 0.5))
    val gr = obs.proxies(1)
    // ~86% survive F; about half of those go local.
    assert(gr.incoming > 140 && gr.incoming < 200, s"incoming=${gr.incoming}")
    assert(gr.intended < gr.incoming * 0.7, s"intended=${gr.intended}")
  }

  test("each epoch reads its batch exactly once") {
    val reads = spark.sparkContext.longAccumulator("batch reads")
    val counted = udf { () => reads.add(1); true }.asNondeterministic()
    val d = new EpochSparkDriver(spark, testSpec, ep => batchFor(ep).filter(counted()), 1.0)
    d.runEpoch(Vector(1.0, 0.5))
    d.lastResult.get.collect()
    assert(reads.value == RecsPerEpoch.toLong)
    d.runProfileEpoch()
    d.lastResult.get.collect()
    assert(reads.value == 2 * RecsPerEpoch.toLong)
  }

  test("an empty batch gives finite observations and an empty result") {
    val d = new EpochSparkDriver(spark, testSpec, ep => batchFor(ep).filter(lit(false)), 1.0)
    def finite(xs: Double*): Boolean = xs.forall(x => !x.isNaN && !x.isInfinite)
    val obs = d.runEpoch(Vector(1.0, 0.5))
    assert(obs.proxies.forall(_.incoming == 0.0), s"obs=$obs")
    assert(finite(obs.cpuDemand, obs.drainedBytes, obs.outputBytes, obs.utilization), s"obs=$obs")
    assert(obs.proxies.forall(px => finite(px.intended, px.processed)), s"obs=$obs")
    assert(d.lastResult.get.count() == 0)
    val est = d.runProfileEpoch()
    assert(finite(est.recRelays :+ est.budgetPerRec: _*), s"est=$est")
    assert(d.lastResult.get.count() == 0)
  }

  test("profile epoch measures the real filter relay") {
    val est = newDriver(1.0).runProfileEpoch()
    assert(est.recRelays(0) > 0.78 && est.recRelays(0) < 0.94, s"relay=${est.recRelays(0)}")
  }

  test("the control loop converges on Spark and stays lossless throughout") {
    val d = newDriver(0.9)
    val rt = new JarvisRuntime(d)
    for (_ <- 0 until 10) {
      val entry = rt.step()
      // Every epoch's partitioned output, Profile epochs included, equals
      // the full query on that epoch's batch.
      DfCompare.assertSameRows(d.lastResult.get, Queries.s2sFull(batchFor(d.currentEpoch - 1)),
        s"${entry.phase} epoch ${d.currentEpoch - 1}")
    }
    assert(rt.convergences.nonEmpty, s"log=${rt.log.map(l => (l.phase, l.state))}")
    assert(rt.loadFactors.forall(_ > 0.9), s"p=${rt.loadFactors}")
  }

  test("a budget drop re-adapts to a partial plan on Spark") {
    val d = newDriver(0.9)
    val rt = new JarvisRuntime(d)
    rt.run(10)
    d.budgetCores = 0.5
    rt.run(14)
    assert(rt.convergences.size >= 2, s"phases=${rt.log.map(_.phase)}")
    assert(rt.loadFactors.exists(_ < 1.0), s"p=${rt.loadFactors}")
    // Final plan fits the reduced budget.
    val obs = d.runEpoch(rt.loadFactors)
    assert(obs.cpuDemand <= obs.cpuBudget * 1.1, s"demand=${obs.cpuDemand}")
  }

  test("the simulator and the Spark driver account an epoch the same way") {
    // (budget, p): empty, partial and full plans, and two overloaded ones.
    val cases = Seq(
      1.0 -> Vector(0.0, 0.0), 1.0 -> Vector(1.0, 1.0), 1.0 -> Vector(1.0, 0.5),
      1.0 -> Vector(0.5, 1.0), 0.6 -> Vector(0.7, 0.3), 0.3 -> Vector(1.0, 1.0),
      0.4 -> Vector(0.8, 0.6),
    )
    val ops = testSpec.ops
    def drainedOf(obs: EpochObs): Double =
      obs.proxies.zip(ops).foldLeft(0.0) { case (acc, (px, op)) =>
        acc + ((px.incoming - px.intended) + (px.intended - px.processed)) * op.bytesInPerRec
      }
    def outputOf(obs: EpochObs): Double =
      ops.last.outRecsPerSec(obs.proxies.last.processed) * ops.last.bytesOutPerRec

    val driver = newDriver(1.0)
    for ((budget, p) <- cases) {
      driver.budgetCores = budget
      val onSpark = driver.runEpoch(p)
      val simulated = new SourceNodeSim(testSpec, budget, RecsPerEpoch).runEpoch(p)
      for ((name, obs) <- Seq("Spark" -> onSpark, "sim" -> simulated)) {
        assert(obs.drainedBytes == drainedOf(obs), s"$name drained bytes at $p, budget $budget")
        assert(obs.outputBytes == outputOf(obs), s"$name output bytes at $p, budget $budget")
      }
      // The driver counts the G+R lane, where each of the n records lands
      // with probability pi = 0.86·e2, and floors F's modelled count. Allow
      // four binomial standard deviations of that lane plus one F record.
      val e2 = p(0) * p(1)
      val pi = ops(0).recRelay * e2
      val sd = math.sqrt(RecsPerEpoch * pi * (1 - pi))
      val tolerance = 4 * sd * ops(1).costSecPerRec + ops(0).costSecPerRec
      assert(math.abs(onSpark.cpuDemand - simulated.cpuDemand) <= tolerance + 1e-12,
        s"demand at $p: Spark ${onSpark.cpuDemand} vs sim ${simulated.cpuDemand}, tolerance $tolerance")
    }
  }

  test("profile epochs appear in the phase log") {
    val d = newDriver(0.9)
    val rt = new JarvisRuntime(d)
    rt.run(8)
    assert(rt.log.exists(_.phase == Phase.Profile))
  }
}
