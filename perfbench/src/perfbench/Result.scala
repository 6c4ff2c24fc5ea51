package perfbench

import scala.collection.mutable.{ArrayBuffer, LinkedHashMap}

/** Everything one benchmark JVM measured, printed as one JSON line that
  * `run.py` reads back.
  */
final class Result {
  var attempted: Long = 0L
  var failed: Long = 0L
  /** Reasons the run's outputs are wrong; empty when they are correct. */
  val problems: ArrayBuffer[String] = ArrayBuffer.empty
  val setupS: ArrayBuffer[Double] = ArrayBuffer.empty
  val metrics: LinkedHashMap[String, (Double, String)] = LinkedHashMap.empty
  /** Facts about the run that are not metrics: machine shape, sample
    * counts, fingerprints.
    */
  val notes: LinkedHashMap[String, Any] = LinkedHashMap.empty

  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  def toJson: String = Json(LinkedHashMap[String, Any](
    "problems" -> problems.toSeq,
    "attempted" -> attempted,
    "failed" -> failed,
    "setup_s" -> setupS.toSeq,
    "metrics" -> metrics.map { case (k, (v, u)) => k -> LinkedHashMap("value" -> v, "unit" -> u) },
    "notes" -> notes,
  ))
}

/** Minimal JSON writer for the value types the benchmark emits. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => apply(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.result()
  }
}
