package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.adapt.{EpochLog, JarvisRuntime}
import repro.core.model.Calibration
import repro.dataflow.{EpochSparkDriver, MonitoringData, Queries}
import repro.exp.Exp2Convergence
import repro.jobs.JobSession
import repro.sim.SourceNodeSim

/** `JarvisRuntime` over `EpochSparkDriver` on one Pingmesh source at the
  * paper's x10 rate, under the budgets of the T2 S2SProbe scenario repeated
  * every `totalEpochs` epochs. Epoch `k` runs at script position
  * `k mod totalEpochs`; warm-up epochs are numbered below zero.
  */
final class PingmeshLoop(spark: SparkSession, batches: Vector[DataFrame], tracer: Tracer) {
  private val scenario = Exp2Convergence.s2sScenario

  /** The scenario's budget at each epoch of one repeat, read off a
    * simulator the scenario's changes are applied to.
    */
  val budgets: Vector[Double] = {
    val sim = new SourceNodeSim(scenario.spec, scenario.initialBudget, scenario.inputRate)
    Vector.tabulate(scenario.totalEpochs) { ep =>
      scenario.changes.filter(_.atEpoch == ep).foreach(_.apply(sim))
      sim.budgetCores
    }
  }

  /** Warm-up runs the script's last budget segment: Startup, one
    * adaptation, then steady state, so every timed repeat starts from the
    * runtime state the end of a repeat leaves.
    */
  val warmEpochs: Int = budgets.size - scenario.changes.map(_.atEpoch).max

  private var consumed = -1
  val driver = new EpochSparkDriver(spark, scenario.spec,
    i => { consumed = i % batches.size; batches(consumed) }, budgets(0))
  val executor = new TimedExecutor(driver, tracer, () => consumed)
  private val runtime = new JarvisRuntime(executor)

  /** One epoch: the control step, then the partitioned result collected at
    * the Spark driver. Profile epochs leave their batch without a result.
    */
  def epoch(k: Int): (EpochLog, Option[(Array[Row], Seq[String])]) = {
    driver.budgetCores = budgets(Math.floorMod(k, budgets.size))
    val entry = tracer.span("core.step")(runtime.step())
    val rows =
      if (executor.lastWasProfile) None
      else {
        val df = driver.lastResult.get
        Some(tracer.span("dataflow.result")(df.collect()) -> df.columns.toSeq)
      }
    (entry, rows)
  }
}

/** Runs the pingmesh-1src workload: set-up, reference results, warm-up, the
  * timed pass and, when tracing, a traced pass with listeners and the
  * unpartitioned query on every batch.
  */
object PingmeshBench {

  val Batches = 3
  val SetupReps = 3
  val RecordsPerEpoch: Long = math.round(Calibration.PingmeshRecsPerSec)
  val KeyCols: Vector[String] = Vector("win", "srcIp", "dstIp")

  /** One epoch as measured: wall time, the batch consumed, the control log
    * entry, whether the batch got a result, and why it was wrong, if it was.
    */
  final case class EpochRec(k: Int, ns: Long, batch: Int, entry: Option[EpochLog], lost: Boolean,
                            error: Option[String]) {
    def ms: Double = ns / 1e6
    def failed: Boolean = error.nonEmpty
    /** Fingerprint token: the phase, state and load factors of the epoch. */
    def token: String = entry.fold("error")(e => s"${e.phase}/${e.state}/${e.p.mkString(",")}")
  }

  /** Input batches, cached and materialized: the set-up the benchmark times. */
  def inputs(spark: SparkSession, seed: Long): Vector[DataFrame] = {
    val batches = Vector.tabulate(Batches)(i => MonitoringData.pingmesh(spark, nSources = 1,
      nPeers = Calibration.S2SGroups.toInt, nEpochs = 1, probesPerEpoch = RecordsPerEpoch.toInt,
      seed = seed * 1000 + i).cache())
    batches.foreach(_.count())
    batches
  }

  def run(a: Args): Result = {
    val res = new Result
    val oneThread = a.mode == "onethread"

    var spark: SparkSession = null
    var batches = Vector.empty[DataFrame]
    val sessionS = ArrayBuffer.empty[Double]
    for (i <- 0 until (if (oneThread || a.trace) 1 else SetupReps)) {
      if (i > 0) {
        batches.foreach(_.unpersist(true))
        spark.stop()
      }
      val t0 = System.nanoTime()
      spark = JobSession.build(s"perfbench-${a.workload}")
      sessionS += (System.nanoTime() - t0) / 1e9
      batches = inputs(spark, a.seed)
      res.setupS += (System.nanoTime() - t0) / 1e9
    }
    res.notes("setup_session_s") = sessionS.toSeq
    res.notes("machine") = machine(spark)

    try measure(a, spark, batches, res, oneThread)
    finally spark.stop()
    res
  }

  private def measure(a: Args, spark: SparkSession, batches: Vector[DataFrame], res: Result,
                      oneThread: Boolean): Unit = {
    val tracer = new Tracer(false)
    val loop = new PingmeshLoop(spark, batches, tracer)
    val unit = loop.budgets.size
    val t0 = System.nanoTime()
    val refs = batches.map(b => RowCheck.of(Queries.s2sFull(b), KeyCols))
    res.notes("reference_s") = (System.nanoTime() - t0) / 1e9
    var counters: Option[SparkCounters] = None
    var k = -loop.warmEpochs

    def step(): EpochRec = {
      tracer.op = k
      val t0 = System.nanoTime()
      val out =
        try Right(tracer.span("epoch")(counters.fold(loop.epoch(k))(_.tagged(s"epoch-$k")(loop.epoch(k)))))
        catch { case NonFatal(e) => Left(e.toString) }
      val ns = System.nanoTime() - t0
      val batch = loop.executor.lastBatch
      val rec = out match {
        case Left(err) => EpochRec(k, ns, batch, None, lost = true, Some(s"epoch $k: $err"))
        case Right((entry, rows)) =>
          val bad = rows.flatMap { case (r, cols) => refs(batch).mismatch(r, cols) }
          EpochRec(k, ns, batch, Some(entry), rows.isEmpty, bad.map(m => s"epoch $k batch $batch: $m"))
      }
      // The unpartitioned query on the same batch, outside the epoch's span.
      counters.foreach(_.tagged(s"full-$k") {
        tracer.span("dataflow.full_query")(Queries.s2sFull(batches(batch)).collect())
      })
      k += 1
      rec
    }
    def epochs(n: Int): Vector[EpochRec] = {
      val recs = Vector.fill(n)(step())
      res.problems ++= recs.flatMap(_.error).take(3)
      recs
    }

    if (oneThread) {
      epochs(5)
      val t0 = System.nanoTime()
      val m = ArrayBuffer.empty[EpochRec]
      while (System.nanoTime() - t0 < a.seconds * 1e9) m ++= epochs(1)
      res.metric("dataflow.epoch_ms_1thread", Stats.median(m.map(_.ms).toSeq), "ms")
      res.notes("epochs_1thread") = m.size
      return
    }

    val warm = epochs(loop.warmEpochs)
    res.notes("warmup_epoch_ms") = warm.map(r => math.round(r.ms))

    if (!a.trace) {
      // Whole script repeats, as many as best fill the time given and at
      // least two, to even out machine noise that lasts seconds.
      val unitS = Stats.median(warm.takeRight(5).map(_.ms)) * unit / 1000
      val units = math.max(2, math.round(a.seconds / unitS).toInt)
      val timed = epochs(units * unit)
      res.notes("timed_epoch_ms") = timed.map(r => math.round(r.ms))
      endToEnd(timed, res)
      fingerprint(warm, timed, unit, res)
      res.attempted = timed.size
      res.failed = timed.count(_.failed)
      return
    }

    // Traced run: two repeats in which traced and untraced epochs alternate,
    // so each script position is measured both ways and drift over the
    // run falls on both sides alike.
    val c = new SparkCounters(spark)
    var heapPeakMb = 0.0
    val gc0 = Jvm.gcMs()
    val pass = Vector.tabulate(2 * unit) { i =>
      val on = (i + i / unit) % 2 == 0
      tracer.enabled = on
      counters = if (on) Some(c) else None
      val rec = epochs(1).head
      heapPeakMb = math.max(heapPeakMb, Jvm.liveHeapMb())
      on -> rec
    }
    tracer.enabled = false
    val gc1 = Jvm.gcMs()
    c.settle()
    val all = pass.map(_._2)
    val (traced, plain) = pass.partition(_._1)
    endToEnd(plain.map(_._2), res)
    fingerprint(warm, all, unit, res)
    perLayer(loop, traced.map(_._2), all, tracer, c, res)
    res.metric("trace.overhead_ms", Stats.median(traced.map(_._2.ms)) - Stats.median(plain.map(_._2.ms)), "ms")
    res.metric("jvm.gc_ms_per_epoch", (gc1 - gc0).toDouble / all.size, "ms")
    res.metric("jvm.heap_peak_mb", heapPeakMb, "MB")
    tracer.write(a.outDir.resolve(s"spans-${a.workload}-seed${a.seed}.jsonl"))
    res.attempted = all.size
    res.failed = all.count(_.failed)
  }

  private def endToEnd(m: Vector[EpochRec], res: Result): Unit = {
    val ms = m.map(_.ms)
    val (pct, tail) = Stats.tail(ms)
    res.metric("epoch_ms_p50", Stats.median(ms), "ms")
    res.metric("epoch_ms_tail", tail, "ms")
    res.metric("records_per_s", m.size * RecordsPerEpoch / (ms.sum / 1000), "rec/s")
    res.metric("lost_epoch_pct", 100.0 * m.count(_.lost) / m.size, "%")
    res.metric("error_pct", 100.0 * m.count(_.failed) / m.size, "%")
    res.notes("epochs_timed") = m.size
    res.notes("tail_percentile") = pct
    res.notes("records_per_epoch") = RecordsPerEpoch
  }

  /** The control trajectory: one token per epoch. The digest covers the
    * warm-up and the first timed repeat; every later repeat must equal the
    * first timed one.
    */
  private def fingerprint(warm: Seq[EpochRec], timed: Seq[EpochRec], unit: Int, res: Result): Unit = {
    val repeats = timed.grouped(unit).map(_.map(_.token)).toVector
    res.notes("trajectory_digest") = Digest.sha256((warm.map(_.token) ++ repeats.head).mkString("\n"))
    res.notes("trajectory_repeats_identical") = repeats.forall(_ == repeats.head)
    res.notes("trajectory_first_repeat") = repeats.head.mkString(" ")
  }

  /** Per-layer metrics from the traced epochs `t`; phase counts from every
    * epoch of the traced run's repeats, `all`.
    */
  private def perLayer(loop: PingmeshLoop, t: Vector[EpochRec], all: Vector[EpochRec], tracer: Tracer,
                       c: SparkCounters, res: Result): Unit = {
    val n = t.size.toDouble
    val sums = c.sum(_.startsWith("epoch-"))
    val resultMs = tracer.medianMs("dataflow.result")
    val fullMs = tracer.medianMs("dataflow.full_query")
    val nproc = Runtime.getRuntime.availableProcessors
    res.metric("dataflow.actions_per_epoch", sums("actions") / n, "count")
    res.metric("dataflow.jobs_per_epoch", sums("jobs") / n, "count")
    res.metric("dataflow.observe_ms", tracer.medianMs("dataflow.runEpoch", "dataflow.runProfileEpoch"), "ms")
    res.metric("dataflow.result_ms", resultMs, "ms")
    res.metric("dataflow.full_query_ms", fullMs, "ms")
    res.metric("dataflow.partitioned_over_full", resultMs / fullMs, "ratio")
    res.metric("dataflow.tasks_per_epoch", sums("tasks") / n, "count")
    res.metric("dataflow.task_cpu_ms_per_epoch", sums("cpu_ms") / n, "ms")
    res.metric("dataflow.core_busy_pct", 100.0 * sums("run_ms") / (t.map(_.ms).sum * nproc), "%")
    res.metric("dataflow.shuffle_write_bytes_per_epoch", sums("shuffle_bytes") / n, "bytes")
    res.notes("unattributed_actions") = c.unattributedActions
    if (c.unattributedActions != 0) res.problems += s"${c.unattributedActions} Spark actions not attributed"
    val profile = t.filter(_.lost).map(r => s"epoch-${r.k}").toSet
    if (profile.nonEmpty) {
      val p = c.sum(profile.contains)
      res.notes("profile_epoch_actions_jobs") = Seq(p("actions") / profile.size, p("jobs") / profile.size)
    }

    res.metric("core.step_self_us", tracer.medianSelfMs("core.step") * 1000, "us")
    res.metric("core.lp_solve_us", CoreTiming.lpSolveUs(loop.executor.estimates.toVector), "us")
    CoreTiming.epochCounts(all.flatMap(_.entry), all.size / loop.budgets.size,
      Calibration.s2sProbe.inputRecBytes, res)
    res.metric("trace.unattributed_ms_per_epoch", tracer.medianSelfMs("epoch"), "ms")
    val balance = tracer.rootBalanceNs.map(math.abs).maxOption.getOrElse(0L)
    res.notes("trace_self_time_balance_ns") = balance
    if (balance > 1000) res.problems += s"span self times miss their epoch's wall time by $balance ns"
    res.notes("trace_self_ms_median") = Seq("epoch", "core.step", "dataflow.runEpoch",
      "dataflow.runProfileEpoch", "dataflow.result").map(s => s -> tracer.medianSelfMs(s)).toMap
  }

  private def machine(spark: SparkSession): Map[String, Any] = {
    val sc = spark.sparkContext
    Map(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm_xmx_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "spark_master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "aqe_enabled" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "broadcast_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "jdk" -> System.getProperty("java.version"),
      "spark" -> spark.version,
    )
  }
}
