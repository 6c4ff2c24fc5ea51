package perfbench

import scala.util.control.NonFatal
import repro.core.strategy.PartitionStrategy
import repro.exp._

/** The computations behind tables T1, T2, T3, T5 and T6, run back to back
  * with no Spark: the `sim` model plane and the `core` control plane.
  */
object ModelSweep {

  final case class Sweep(
      t1: Vector[Vector[repro.sim.ClusterSim.ThroughputResult]],
      fig3: Vector[Exp1Throughput.Fig3Row],
      t2: Vector[Vector[Exp2Convergence.ConvergenceRow]],
      t3: Vector[repro.sim.ConvergenceStudy.StudyResult],
      t5: Vector[Vector[repro.sim.ClusterSim.ScalingResult]],
      t5Max: Vector[Exp5Scaling.MaxSources],
      t6: Vector[Vector[repro.sim.MultiQuerySim.MultiQueryResult]],
      t6Max: Vector[Exp6MultiQuery.MaxQueries],
  )

  def sweep(tr: Tracer): Sweep = tr.span("sweep") {
    val (t1, fig3) = tr.span("exp.T1")(Exp1Throughput.setups.map(Exp1Throughput.run) -> Exp1Throughput.fig3())
    val t2 = tr.span("exp.T2")(Exp2Convergence.scenarios.map(Exp2Convergence.run))
    val t3 = tr.span("exp.T3")(Exp3OperatorCount.run())
    val (t5, t5Max) = tr.span("exp.T5")(Exp5Scaling.settings.map(Exp5Scaling.run) -> Exp5Scaling.maxSources)
    val (t6, t6Max) = tr.span("exp.T6")(Exp6MultiQuery.settings.map(Exp6MultiQuery.run) -> Exp6MultiQuery.maxQueries)
    Sweep(t1, fig3, t2, t3, t5, t5Max, t6, t6Max)
  }

  /** Shape checks that hold for the paper's claims: Jarvis at least matches
    * every baseline at every T1 budget, and every T3 configuration converges.
    */
  def shapeProblems(s: Sweep): Seq[String] = {
    val t1 = for {
      rows <- s.t1
      budget <- Exp1Throughput.Budgets
      jarvis = Exp1Throughput.resultFor(rows, PartitionStrategy.Jarvis.name, budget).throughputMbps
      base <- rows.filter(r => r.budgetPct == budget && r.strategy != PartitionStrategy.Jarvis.name)
      if jarvis < base.throughputMbps * (1 - 1e-9)
    } yield s"T1 budget $budget%: Jarvis $jarvis Mbps < ${base.strategy} ${base.throughputMbps} Mbps"
    val t3 = s.t3.filter(_.notConverged > 0).map(r => s"T3 ${r.numOps} ops: ${r.notConverged} configs not converged")
    t1 ++ t3
  }

  def run(a: Args): Result = {
    val res = new Result
    val tracer = new Tracer(false)
    val t0 = System.nanoTime()
    val reference = sweep(tracer)
    res.setupS += (System.nanoTime() - t0) / 1e9
    res.notes("machine") = Map(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm_xmx_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "jdk" -> System.getProperty("java.version"),
    )
    val refText = reference.toString
    res.notes("sweep_digest") = Digest.sha256(refText)
    val shape = shapeProblems(reference)
    res.problems ++= shape
    res.notes("shape_checks") = if (shape.isEmpty) "pass" else "FAIL"

    /** Sweeps for `seconds`: (wall ms, equal to the reference, traced).
      * When tracing, every other sweep is traced, so both kinds see the
      * same drift over the pass.
      */
    var heapPeakMb = 0.0
    def pass(seconds: Double, trace: Boolean): Vector[(Double, Boolean, Boolean)] = {
      val start = System.nanoTime()
      val out = Vector.newBuilder[(Double, Boolean, Boolean)]
      var i = 0
      while (System.nanoTime() - start < seconds * 1e9) {
        tracer.op = i
        tracer.enabled = trace && i % 2 == 0
        val s0 = System.nanoTime()
        val result = try Some(sweep(tracer)) catch { case NonFatal(_) => None }
        val ms = (System.nanoTime() - s0) / 1e6
        out += ((ms, result.exists(_.toString == refText), tracer.enabled))
        if (trace) heapPeakMb = math.max(heapPeakMb, Jvm.liveHeapMb())
        i += 1
      }
      tracer.enabled = false
      out.result()
    }

    if (pass(WarmSeconds, trace = false).exists(!_._2))
      res.problems += "a warm-up sweep differs from the first sweep"
    val gc0 = Jvm.gcMs()
    val all = pass(a.seconds, a.trace)
    val gc1 = Jvm.gcMs()
    val (traced, plain) = all.partition(_._3)
    val ms = plain.map(_._1)
    val (pct, tail) = Stats.windowTail(ms)
    res.metric("sweep_ms_p50", Stats.median(ms), "ms")
    res.metric("sweep_ms_tail", tail, "ms")
    res.metric("sweeps_per_s", plain.size / (ms.sum / 1000), "1/s")
    res.metric("lost_epoch_pct", 0.0, "%")
    res.metric("error_pct", 100.0 * plain.count(!_._2) / plain.size, "%")
    res.notes("sweeps_timed") = plain.size
    res.notes("sweep_ms") = ms
    res.notes("tail_percentile") = pct
    res.notes("tail_window") = Stats.TailWindow

    if (a.trace) {
      for (t <- Seq("T1", "T2", "T3", "T5", "T6"))
        res.metric(s"exp.${t.toLowerCase}_ms", tracer.medianMs(s"exp.$t"), "ms")
      res.metric("jvm.gc_ms_per_epoch", (gc1 - gc0).toDouble / all.size, "ms")
      res.metric("jvm.heap_peak_mb", heapPeakMb, "MB")
      res.metric("trace.overhead_ms", Stats.median(traced.map(_._1)) - Stats.median(ms), "ms")
      res.metric("trace.unattributed_ms_per_epoch", tracer.medianSelfMs("sweep"), "ms")
      val balance = tracer.rootBalanceNs.map(math.abs).maxOption.getOrElse(0L)
      res.notes("trace_self_time_balance_ns") = balance
      if (balance > 1000) res.problems += s"span self times miss their sweep's wall time by $balance ns"

      val (selfUs, ests, s2s) = CoreTiming.replayT2(ReplayReps)
      res.metric("core.step_self_us", Stats.median(selfUs), "us")
      res.metric("core.lp_solve_us", CoreTiming.lpSolveUs(ests), "us")
      CoreTiming.epochCounts(s2s, 1, Exp2Convergence.s2sScenario.spec.inputRecBytes, res)
      tracer.write(a.outDir.resolve(s"spans-${a.workload}-seed${a.seed}.jsonl"))
    }
    res.attempted = all.size
    res.failed = all.count(!_._2)
    if (res.failed > 0) res.problems += s"${res.failed} sweeps differ from the first sweep"
    res
  }

  /** The JIT takes 2–3 s of sweeps to compile the models. */
  val WarmSeconds = 4.0
  val ReplayReps = 30
}
