package repro.sim

import repro.core.adapt._
import repro.core.model.{Calibration, PlanFlow, QuerySpec}

/** Deterministic pseudo-random stream (no java.util.Random so runs are
  * reproducible from the seed alone).
  */
final class Lcg(seed: Long) {
  private var state: Long = seed * 6364136223846793005L + 1442695040888963407L
  /** Next double in [0, 1). */
  def next(): Double = {
    state = state * 6364136223846793005L + 1442695040888963407L
    ((state >>> 11).toDouble / (1L << 53).toDouble)
  }
}

/** Fluid epoch-level simulation of one query instance on one data source
  * node — the substrate substituting for the paper's MiNiFi agent on a
  * t2.micro (DESIGN.md §2).
  *
  * Per epoch: records arrive at the configured rate and flow through the
  * plan as [[PlanFlow.evaluate]] models it: each control proxy forwards
  * `p_i` of its incoming records to the local operator and drains the rest,
  * and under overload the unprocessed records are force-drained so the
  * epoch's latency bound holds. Conditions (budget, rate, operator costs)
  * are mutable so scenarios can change them mid-run.
  *
  * Profiling (paper §IV-C "Profile") runs each operator in a budget slice
  * of the epoch; when the slice processes only a fraction of the operator's
  * available input the cost estimate is biased low (an operator that cannot
  * drain its queue looks cheaper than it is), reproducing the estimation
  * errors of §VI-C.
  */
final class SourceNodeSim(
    initialSpec: QuerySpec,
    var budgetCores: Double,
    var inputRecsPerSec: Double,
    profileNoiseMag: Double = 0.35,
    seed: Long = 42L,
) extends EpochExecutor {

  private var querySpec: QuerySpec = initialSpec
  private val rng = new Lcg(seed)

  def spec: QuerySpec = querySpec
  /** Swap the query spec mid-run (e.g. a join-table size change). */
  def setSpec(q: QuerySpec): Unit = {
    require(q.numOps == initialSpec.numOps, "cannot change operator count mid-run")
    querySpec = q
  }

  def numOps: Int = querySpec.numOps

  def observedByteRelays: Vector[Double] = querySpec.byteRelays(math.max(inputRecsPerSec, 1.0))

  def runEpoch(p: Vector[Double]): EpochObs = {
    require(p.length == numOps, "load factor arity mismatch")
    val epoch = Calibration.EpochSeconds
    PlanFlow.evaluate(querySpec, p, budgetCores * epoch, inputRecsPerSec * epoch)
  }

  def runProfileEpoch(): ProfileEstimates = {
    val ops = querySpec.ops
    val n = inputRecsPerSec * Calibration.EpochSeconds
    val slice = budgetCores * Calibration.EpochSeconds / numOps
    val avail = querySpec.recProducts(math.max(inputRecsPerSec, 1.0)).take(numOps).map(_ * n)
    val costs = Vector.tabulate(numOps) { i =>
      val c = ops(i).costSecPerRec
      val processable = if (c <= 0) Double.MaxValue else slice / c
      val accuracy = math.min(1.0, processable / math.max(avail(i), 1.0))
      // Under-sampled operators look cheaper than they are; a seeded jitter
      // keeps repeated profiles from being identical.
      val bias = profileNoiseMag * (1.0 - accuracy) * (0.7 + 0.3 * rng.next())
      c * (1.0 - bias)
    }
    val rho = {
      val prods = querySpec.recProducts(math.max(inputRecsPerSec, 1.0))
      Vector.tabulate(numOps)(i => if (prods(i) <= 0) 0.0 else prods(i + 1) / prods(i))
    }
    ProfileEstimates(
      costs = costs,
      recRelays = rho,
      bytesAtOp = querySpec.bytesAtOp,
      budgetPerRec = budgetCores / math.max(inputRecsPerSec, 1.0),
    )
  }
}
