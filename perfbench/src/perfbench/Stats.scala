package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.jdk.CollectionConverters._

/** Order statistics for timing samples. */
object Stats {

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** The highest whole percentile that leaves at least `beyond` samples
    * above it, and its nearest-rank value. With fewer than `beyond + 1`
    * samples the percentile is 0 and the value is the minimum.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): (Int, Double) =
    if (xs.isEmpty) (0, 0.0)
    else {
      val s = xs.sorted
      val n = s.length
      val pct = math.max(0, (100L * (n - beyond) / n).toInt)
      val rank = math.max(1, math.ceil(pct / 100.0 * n).toInt)
      (pct, s(rank - 1))
    }

  /** `tail` taken in each run of `window` consecutive samples, and the
    * median of those tails. An incomplete last run is left out; with fewer
    * than `window` samples this is `tail` of all of them. A burst of machine
    * noise then moves one window's tail instead of the whole run's.
    */
  def windowTail(xs: Seq[Double], window: Int = TailWindow): (Int, Double) =
    if (xs.length < window) tail(xs)
    else {
      val tails = xs.grouped(window).filter(_.length == window).map(tail(_)).toSeq
      (tails.head._1, median(tails.map(_._2)))
    }

  /** Operations per tail window of model-sweep: about one second of sweeps,
    * with the tail at p95.
    */
  val TailWindow = 200
}

/** JVM counters read around a pass. */
object Jvm {
  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Heap in use right after the most recent collection, in MB: the live
    * data, without the garbage the young generation holds between
    * collections.
    */
  def liveHeapMb(): Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP)
      .flatMap(p => Option(p.getCollectionUsage)).map(_.getUsed).sum / 1048576.0
}
