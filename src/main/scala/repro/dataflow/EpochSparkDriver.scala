package repro.dataflow

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.adapt._
import repro.core.lp.LoadFactorLP
import repro.core.model.{Calibration, PlanFlow, QuerySpec}

/** [[EpochExecutor]] backed by real Spark execution of the S2SProbe
  * pipeline, one micro-batch per epoch (the Structured-Streaming mapping of
  * DESIGN.md §2; `jobs/StreamingDemoJob` runs the identical function under
  * `foreachBatch`).
  *
  * Every epoch, Profile epochs included, runs the partitioned plan with one
  * action. The record flow (incoming / forwarded / relay) is *observed*
  * during that action and fed to [[PlanFlow.evaluate]]; the CPU-budget
  * arithmetic is the calibrated cost model (a local[*] driver cannot
  * throttle a fractional core — documented substitution). The collected
  * result of every epoch is available via [[lastResult]] so tests can assert
  * losslessness *while the control loop is adapting*.
  */
final class EpochSparkDriver(
    spark: SparkSession,
    querySpec: QuerySpec,
    batchFor: Int => DataFrame,
    var budgetCores: Double,
) extends EpochExecutor {

  require(querySpec.numOps == 2, "EpochSparkDriver drives the 2-operator S2SProbe pipeline")

  private val query = PartitionedExec.S2S
  private var epoch = 0
  private var lastE: Seq[Double] = Seq(0.0, 0.0)
  private var lastResultDf: Option[DataFrame] = None

  def numOps: Int = 2
  def currentEpoch: Int = epoch
  /** The partitioned result of the last epoch, collected to the driver. */
  def lastResult: Option[DataFrame] = lastResultDf

  def observedByteRelays: Vector[Double] =
    querySpec.byteRelays(math.max(querySpec.inputRecsPerSec, 1.0))

  /** Run the plan under `e` on the next batch: one action, whose rows
    * become [[lastResult]]; returns the observed lane counts.
    */
  private def runPlan(e: Seq[Double]): Seq[PartitionedExec.LaneCounts] = {
    val pass = query.run(batchFor(epoch), query.lanes(e))
    val rows = pass.result.collect()
    lastResultDf = Some(spark.createDataFrame(rows.toSeq.asJava, pass.result.schema))
    lastE = e
    epoch += 1
    pass.laneCounts
  }

  def runEpoch(p: Vector[Double]): EpochObs = {
    val e = LoadFactorLP.pToE(p)
    // Proxy 1 (F) sees every record; proxy 2 (G+R) receives F's local
    // survivors and forwards the u < e2 subset to the local aggregate. The
    // flow model takes these counts as the epoch's lanes; F's forwarded
    // count is modelled as floor(n·e1).
    val Seq(in, afterF) = runPlan(e)
    val n = in.rows
    val lanes = new PlanFlow.Measured(
      incoming = Array(n.toDouble, afterF.incoming.toDouble),
      intended = Array((n * e(0)).toLong.toDouble, afterF.intended.toDouble),
    )
    PlanFlow.evaluate(querySpec, p, budgetCores * Calibration.EpochSeconds, n.toDouble, lanes)
  }

  def runProfileEpoch(): ProfileEstimates = {
    // The batch is answered under the last plan; F's relay is measured from
    // it, costs come from calibration (true values — the Spark loop
    // demonstrates the control path, the noisy-profiling behaviour is
    // studied in the simulator).
    val Seq(in, afterF) = runPlan(lastE)
    val n = math.max(1L, in.rows)
    ProfileEstimates(
      costs = querySpec.ops.map(_.costSecPerRec),
      recRelays = Vector(afterF.rows.toDouble / n, 1.0),
      bytesAtOp = querySpec.bytesAtOp,
      budgetPerRec = budgetCores / math.max(n / Calibration.EpochSeconds, 1.0),
    )
  }
}
