package repro.core.model

import repro.core.adapt.{EpochObs, ProxyObs}

/** The record flow of one epoch under a plan (paper §IV-A, §IV-C): each
  * control proxy forwards a share of its records to the local operator and
  * drains the rest; when the forwarded work exceeds the CPU budget,
  * processing degrades and the shortfall is force-drained. The simulator,
  * the cluster model and the Spark driver all evaluate plans here.
  */
object PlanFlow {

  /** Processing scale when `demand` CPU-seconds are asked of `budget`:
    * 1 within budget, else (C/D)^(1+α) with α = Calibration.OverloadAlpha.
    */
  def overloadScale(demand: Double, budget: Double): Double =
    if (demand <= budget || demand <= 0) 1.0
    else math.pow(budget / demand, 1.0 + Calibration.OverloadAlpha)

  /** How records move along the chain. By default proxy i forwards `p_i`
    * of its records and operator i emits what its [[OperatorSpec]] says.
    */
  trait Lanes {
    def forward(i: Int, p: Double, incoming: Double): Double = p * incoming
    def relay(i: Int, op: OperatorSpec, processed: Double): Double = op.outRecsPerSec(processed)
  }

  object Modelled extends Lanes

  /** Lanes counted on a real batch: proxy i saw `incoming(i)` records and
    * forwarded `intended(i)`. The intended flow reproduces the counts
    * exactly; a smaller flow (under overload) scales them in proportion. The
    * last operator's output is modelled, since nothing is counted after it.
    */
  final class Measured(incoming: Array[Double], intended: Array[Double]) extends Lanes {
    private def share(count: Double, of: Double, x: Double): Double =
      if (x == of || of <= 0) count else count * (x / of)

    override def forward(i: Int, p: Double, in: Double): Double =
      share(intended(i), incoming(i), in)

    override def relay(i: Int, op: OperatorSpec, processed: Double): Double =
      if (i + 1 < incoming.length) share(incoming(i + 1), intended(i), processed)
      else op.outRecsPerSec(processed)
  }

  /** One epoch of plan `p` over `inputRecs` source records with `budget`
    * CPU-seconds. Pass 1 computes the intended flow and its demand; pass 2
    * runs the flow under the overload scale, where each proxy's shortfall
    * is force-drained and compounds downstream, as backpressure does.
    */
  def evaluate(
      q: QuerySpec,
      p: Vector[Double],
      budget: Double,
      inputRecs: Double,
      lanes: Lanes = Modelled,
  ): EpochObs = {
    // While loops: a closure over `in` and the sums would box them.
    val ops = q.ops
    var demand = 0.0
    var in = inputRecs
    var i = 0
    while (i < ops.length) {
      val intended = lanes.forward(i, p(i), in)
      demand += intended * ops(i).costSecPerRec
      in = lanes.relay(i, ops(i), intended)
      i += 1
    }
    val scale = overloadScale(demand, budget)

    val proxies = Vector.newBuilder[ProxyObs]
    var drainedBytes = 0.0
    in = inputRecs
    i = 0
    while (i < ops.length) {
      val intended = lanes.forward(i, p(i), in)
      val processed = intended * scale
      drainedBytes += ((in - intended) + (intended - processed)) * ops(i).bytesInPerRec
      proxies += ProxyObs(in, intended, processed)
      in = lanes.relay(i, ops(i), processed)
      i += 1
    }
    EpochObs(proxies.result(), demand, budget, drainedBytes, in * ops.last.bytesOutPerRec)
  }
}
