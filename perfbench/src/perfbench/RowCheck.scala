package perfbench

import org.apache.spark.sql.{DataFrame, Row}

/** A collected query result keyed by its group columns, for comparing a
  * partitioned plan's output with the unpartitioned query on the same batch.
  *
  * Group keys and counts must match exactly; doubles within a relative
  * tolerance, because a partitioned plan sums in a different order than the
  * full query (fixed-digit formatting flips the last printed digit on about
  * one group in a thousand at these batch sizes).
  */
final class RowCheck private (columns: Vector[String], keyCols: Vector[String],
                              byKey: Map[Vector[Any], Vector[Any]]) {

  /** None when `actual` matches this reference, else a one-line reason. */
  def mismatch(actual: Array[Row], actualColumns: Seq[String]): Option[String] = {
    if (actualColumns.sorted != columns.sorted)
      return Some(s"columns ${actualColumns.mkString(",")} vs ${columns.mkString(",")}")
    if (actual.length != byKey.size)
      return Some(s"${actual.length} rows vs ${byKey.size} expected")
    val keyIdx = keyCols.map(actualColumns.indexOf)
    val valIdx = columns.filterNot(keyCols.contains).map(actualColumns.indexOf)
    var i = 0
    while (i < actual.length) {
      val r = actual(i)
      val key = keyIdx.map(r.get)
      byKey.get(key) match {
        case None => return Some(s"unexpected group $key")
        case Some(expected) =>
          var j = 0
          while (j < valIdx.length) {
            if (!RowCheck.same(r.get(valIdx(j)), expected(j)))
              return Some(s"group $key ${columns.filterNot(keyCols.contains)(j)}: " +
                s"${r.get(valIdx(j))} vs ${expected(j)}")
            j += 1
          }
      }
      i += 1
    }
    None
  }
}

object RowCheck {

  val RelTol = 1e-9

  def same(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) =>
      x == y || math.abs(x - y) <= RelTol * math.max(math.abs(x), math.abs(y))
    case _ => a == b
  }

  /** Collect `reference` once and index it by `keyCols`. */
  def of(reference: DataFrame, keyCols: Vector[String]): RowCheck = {
    val columns = reference.columns.toVector
    val keyIdx = keyCols.map(columns.indexOf)
    val valIdx = columns.indices.filterNot(keyIdx.contains).toVector
    val byKey = reference.collect().map(r => keyIdx.map(r.get) -> valIdx.map(r.get)).toMap
    new RowCheck(keyCols ++ columns.filterNot(keyCols.contains), keyCols, byKey)
  }
}
