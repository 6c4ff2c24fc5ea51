package repro.exp

import java.io.{ByteArrayOutputStream, PrintStream}
import java.nio.charset.StandardCharsets
import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite

/** The printed T1, T2, T3, T5 and T6 tables, as one string. T4 needs Spark
  * and is left out.
  *
  * To regenerate the golden file, run this object's `main` on the test
  * classpath and redirect its standard output to
  * `src/test/resources/golden/model-tables.txt`.
  */
object ModelTablesGolden {
  val Resource = "/golden/model-tables.txt"

  def render(): String = {
    val buf = new ByteArrayOutputStream
    val out = new PrintStream(buf, true, StandardCharsets.UTF_8)
    Console.withOut(out) {
      Exp1Throughput.printAll()
      Exp2Convergence.printAll()
      Exp3OperatorCount.printAll()
      Exp5Scaling.printAll()
      Exp6MultiQuery.printAll()
    }
    out.flush()
    buf.toString(StandardCharsets.UTF_8)
  }

  def main(args: Array[String]): Unit = print(render())
}

/** Every model-table figure is pinned: a refactor of the flow model, the
  * cluster model or the control loop must leave the printed tables
  * byte-identical.
  */
class ModelTablesGoldenSpec extends AnyFunSuite {

  test("T1/T2/T3/T5/T6 tables match the golden output") {
    val stream = getClass.getResourceAsStream(ModelTablesGolden.Resource)
    assert(stream != null, s"missing resource ${ModelTablesGolden.Resource}")
    val golden =
      try Source.fromInputStream(stream, "UTF-8").mkString
      finally stream.close()
    val actual = ModelTablesGolden.render()
    val firstDiff = golden.linesIterator.zip(actual.linesIterator).zipWithIndex
      .collectFirst { case ((g, a), i) if g != a => s"line ${i + 1}: expected [$g], got [$a]" }
    assert(actual == golden, firstDiff.getOrElse("outputs differ in length"))
  }
}
