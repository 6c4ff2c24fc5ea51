package perfbench

import repro.core.adapt.{EpochLog, JarvisRuntime, Phase, PipelineState, ProfileEstimates}
import repro.core.lp.LoadFactorLP
import repro.exp.Exp2Convergence
import repro.sim.SourceNodeSim

/** Control-plane measurements taken from outside `core`. */
object CoreTiming {

  /** Median wall time (µs) of one `LoadFactorLP.solve` over the captured
    * Profile estimates, taken over several batches of calls after a warm-up
    * batch.
    */
  def lpSolveUs(ests: Vector[ProfileEstimates]): Double =
    if (ests.isEmpty) 0.0
    else {
      val reps = 20000
      var sink = 0.0
      def batch(): Double = {
        val t0 = System.nanoTime()
        var i = 0
        while (i < reps) {
          val e = ests(i % ests.size)
          sink += LoadFactorLP.solve(e.costs, e.recRelays, e.bytesAtOp, e.budgetPerRec).cpuSecPerRec
          i += 1
        }
        (System.nanoTime() - t0) / 1e3 / reps
      }
      batch()
      val us = Stats.median(Vector.fill(7)(batch()))
      lpSink = sink
      us
    }

  /** Keeps the LP results alive, so the JIT cannot drop the timed calls. */
  @volatile var lpSink: Double = 0.0

  /** Phase counts, completed adaptations and drained share of one script
    * repeat, averaged over `units` repeats.
    */
  def epochCounts(log: Seq[EpochLog], units: Int, inputRecBytes: Double, res: Result): Unit = {
    def per(phase: Phase): Double = log.count(_.phase == phase).toDouble / units
    res.metric("core.epochs.startup", per(Phase.Startup), "count")
    res.metric("core.epochs.probe", per(Phase.Probe), "count")
    res.metric("core.epochs.profile", per(Phase.Profile), "count")
    res.metric("core.epochs.adapt", per(Phase.Adapt), "count")
    res.metric("core.convergences",
      log.count(l => l.phase == Phase.Adapt && l.state == PipelineState.Stable).toDouble / units, "count")
    val obs = log.flatMap(_.obs)
    val input = obs.map(_.proxies.head.incoming * inputRecBytes).sum
    res.metric("core.drain_fraction", if (input > 0) obs.map(_.drainedBytes).sum / input else 0.0, "ratio")
  }

  /** Replays every T2 scenario and variant with the simulator wrapped, as
    * `Exp2Convergence.run` drives it, `reps` times. Returns the per-step self
    * times (µs: step wall minus the wrapped executor call), the Profile
    * estimates, and the S2SProbe Jarvis trajectory of the first replay.
    */
  def replayT2(reps: Int): (Vector[Double], Vector[ProfileEstimates], Vector[EpochLog]) = {
    val selfUs = Vector.newBuilder[Double]
    val ests = Vector.newBuilder[ProfileEstimates]
    var s2sJarvis = Vector.empty[EpochLog]
    for (rep <- 0 until reps; sc <- Exp2Convergence.scenarios; (vname, cfg) <- Exp2Convergence.variants) {
      val sim = new SourceNodeSim(sc.spec, sc.initialBudget, sc.inputRate)
      val exec = new TimedExecutor(sim, new Tracer(false), () => -1)
      val rt = new JarvisRuntime(exec, cfg)
      val changeAt = sc.changes.map(c => c.atEpoch -> c).toMap
      val log = Vector.tabulate(sc.totalEpochs) { ep =>
        changeAt.get(ep).foreach(_.apply(sim))
        val t0 = System.nanoTime()
        val entry = rt.step()
        selfUs += (System.nanoTime() - t0 - exec.lastNs) / 1e3
        entry
      }
      if (rep == 0) ests ++= exec.estimates
      if (rep == 0 && sc.name == Exp2Convergence.s2sScenario.name && vname == "Jarvis")
        s2sJarvis = log
    }
    (selfUs.result(), ests.result(), s2sJarvis)
  }
}
