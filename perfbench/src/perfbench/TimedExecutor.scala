package perfbench

import scala.collection.mutable.ArrayBuffer
import repro.core.adapt.{EpochExecutor, EpochObs, ProfileEstimates}

/** Decorates an [[EpochExecutor]] so the benchmark can see into the control
  * loop from outside: it times each executor call (as a span when tracing),
  * captures the Profile epochs' estimates for re-timing the LP, and notes
  * which input batch each call consumed, read from `consumedBatch` right
  * after the call returns.
  */
final class TimedExecutor(inner: EpochExecutor, tracer: Tracer, consumedBatch: () => Int)
    extends EpochExecutor {

  /** The most recent call: whether it was a Profile epoch, the batch it
    * consumed and its wall time.
    */
  var lastWasProfile: Boolean = false
  var lastBatch: Int = -1
  var lastNs: Long = 0L
  val estimates: ArrayBuffer[ProfileEstimates] = ArrayBuffer.empty

  def numOps: Int = inner.numOps
  def observedByteRelays: Vector[Double] = inner.observedByteRelays

  def runEpoch(p: Vector[Double]): EpochObs = {
    val t0 = System.nanoTime()
    val obs = tracer.span("dataflow.runEpoch")(inner.runEpoch(p))
    lastNs = System.nanoTime() - t0
    lastWasProfile = false
    lastBatch = consumedBatch()
    obs
  }

  def runProfileEpoch(): ProfileEstimates = {
    val t0 = System.nanoTime()
    val est = tracer.span("dataflow.runProfileEpoch")(inner.runProfileEpoch())
    lastNs = System.nanoTime() - t0
    lastWasProfile = true
    lastBatch = consumedBatch()
    estimates += est
    est
  }
}
