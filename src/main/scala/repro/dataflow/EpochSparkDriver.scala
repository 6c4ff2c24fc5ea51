package repro.dataflow

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.adapt._
import repro.core.lp.LoadFactorLP
import repro.core.model.{Calibration, PlanFlow, QuerySpec}

/** [[EpochExecutor]] backed by real Spark execution of the S2SProbe
  * pipeline, one micro-batch per epoch (the Structured-Streaming mapping of
  * DESIGN.md §2; `jobs/StreamingDemoJob` runs the identical function under
  * `foreachBatch`).
  *
  * The record flow (incoming / forwarded / relay) is *measured* from the
  * actual batch with one aggregate pass and fed to [[PlanFlow.evaluate]];
  * the CPU-budget arithmetic is the calibrated cost model (a local[*] driver
  * cannot throttle a fractional core — documented substitution). The
  * partitioned result of every epoch is available via [[lastResult]] so
  * tests can assert losslessness *while the control loop is adapting*.
  */
final class EpochSparkDriver(
    spark: SparkSession,
    querySpec: QuerySpec,
    batchFor: Int => DataFrame,
    var budgetCores: Double,
) extends EpochExecutor {

  require(querySpec.numOps == 2, "EpochSparkDriver drives the 2-operator S2SProbe pipeline")

  private var epoch = 0
  private var lastResultDf: Option[DataFrame] = None
  private var lastBatchDf: Option[DataFrame] = None

  def numOps: Int = 2
  def currentEpoch: Int = epoch
  def lastResult: Option[DataFrame] = lastResultDf
  def lastBatch: Option[DataFrame] = lastBatchDf

  def observedByteRelays: Vector[Double] =
    querySpec.byteRelays(math.max(querySpec.inputRecsPerSec, 1.0))

  /** Measure the lane record counts of one batch under effective load
    * factors `e` in a single aggregate pass.
    */
  private def laneCounts(batch: DataFrame, e: Vector[Double]): (Long, Long, Long) = {
    val u = PartitionedExec.uCol(col("recId"))
    val row = batch
      .select(
        count(lit(1)) as "n",
        sum(when(u < e(0) && col("errCode") === 0, 1L).otherwise(0L)) as "intoGr",
        sum(when(u < e(1) && col("errCode") === 0, 1L).otherwise(0L)) as "localGr",
      )
      .collect()(0)
    (row.getLong(0), Option(row.get(1)).map(_.toString.toLong).getOrElse(0L),
      Option(row.get(2)).map(_.toString.toLong).getOrElse(0L))
  }

  def runEpoch(p: Vector[Double]): EpochObs = {
    val e = LoadFactorLP.pToE(p)
    val batch = batchFor(epoch)
    lastBatchDf = Some(batch)
    lastResultDf = Some(PartitionedExec.s2s(batch, e))
    epoch += 1

    // Proxy 1 (F) forwards u < e1 of all records; proxy 2 (G+R) receives
    // F's survivors (errCode == 0 with u < e1) and forwards the u < e2
    // subset to the local aggregate. The flow model takes these counts as
    // the epoch's lanes; F's forwarded count is modelled as floor(n·e1).
    val (n, intoGr, localGr) = laneCounts(batch, e)
    val fIntended = (n * e(0)).toLong
    val lanes = new PlanFlow.Measured(
      incoming = Array(n.toDouble, intoGr.toDouble),
      intended = Array(fIntended.toDouble, localGr.toDouble),
    )
    PlanFlow.evaluate(querySpec, p, budgetCores * Calibration.EpochSeconds, n.toDouble, lanes)
  }

  def runProfileEpoch(): ProfileEstimates = {
    val batch = batchFor(epoch)
    epoch += 1
    // Relay ratios measured from the real batch; costs from calibration
    // (true values — the Spark loop demonstrates the control path, the
    // noisy-profiling behaviour is studied in the simulator).
    val row = batch
      .select(count(lit(1)) as "n",
        sum(when(col("errCode") === 0, 1L).otherwise(0L)) as "kept")
      .collect()(0)
    val n = math.max(1L, row.getLong(0))
    val kept = Option(row.get(1)).map(_.toString.toLong).getOrElse(0L)
    val measuredKeep = kept.toDouble / n
    val ops = querySpec.ops
    ProfileEstimates(
      costs = ops.map(_.costSecPerRec),
      recRelays = Vector(measuredKeep, 1.0),
      bytesAtOp = querySpec.bytesAtOp,
      budgetPerRec = budgetCores / math.max(n / Calibration.EpochSeconds, 1.0),
    )
  }
}
