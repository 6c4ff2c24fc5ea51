package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `op` is the epoch or sweep the span belongs
  * to; `parent` is the id of the enclosing span, or -1.
  */
final case class Span(id: Int, parent: Int, name: String, op: Int, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder, written out once at the end of a run. While
  * disabled it runs the body and records nothing, so the timed passes pay
  * one branch per boundary.
  */
final class Tracer(var enabled: Boolean) {
  private val done = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  var op: Int = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        done += Span(id, parent, name, op, t0, t1)
      }
    }

  def spans: Vector[Span] = done.toVector

  /** Self time of every span: its duration minus the time its direct
    * children cover (children of one span never overlap: one caller thread).
    */
  def selfNs: Map[Int, Long] = {
    val childNs = done.groupMapReduce(_.parent)(_.durNs)(_ + _)
    done.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }

  /** Median duration (ms) of the spans with any of `names`. */
  def medianMs(names: String*): Double =
    Stats.median(done.iterator.filter(s => names.contains(s.name)).map(_.durNs / 1e6).toSeq)

  /** Median self time (ms) of the spans named `name`. */
  def medianSelfMs(name: String): Double = {
    val self = selfNs
    Stats.median(done.iterator.filter(_.name == name).map(s => self(s.id) / 1e6).toSeq)
  }

  /** For each root span (one per epoch or sweep): the sum of the self times
    * of it and all its descendants, minus its wall time. Zero up to
    * rounding when the spans account for the whole operation.
    */
  def rootBalanceNs: Vector[Long] = {
    val self = selfNs
    val byOpRoot = done.filter(_.parent == -1)
    val children = done.groupBy(_.parent)
    def subtree(id: Int): Long =
      self(id) + children.getOrElse(id, ArrayBuffer.empty).map(c => subtree(c.id)).sum
    byOpRoot.map(r => subtree(r.id) - r.durNs).toVector
  }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val self = selfNs
    val w = new PrintWriter(Files.newBufferedWriter(path))
    try done.sortBy(_.id).foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","op":${s.op},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":${self(s.id)}}""")
    } finally w.close()
  }
}
