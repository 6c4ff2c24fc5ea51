package perfbench

import java.nio.file.{Path, Paths}

/** Command-line arguments of one benchmark JVM.
  *
  * @param seconds time the timed pass measures
  * @param mode    `run`, or `onethread` for the single-thread repeat of
  *                pingmesh-1src
  * @param outDir  where span files go
  */
final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, mode: String,
                      outDir: Path)

/** Entry point: runs one workload and prints its result as one JSON line
  * prefixed with `PERFBENCH_RESULT `.
  *
  *   java ... perfbench.Bench <workload> <seed> <seconds> <trace 0|1> <mode> <out dir>
  */
object Bench {
  val Workloads: Seq[String] = Seq("pingmesh-1src", "model-sweep")

  def main(argv: Array[String]): Unit = {
    val Array(workload, seed, seconds, trace, mode, out) = argv
    require(Workloads.contains(workload), s"unknown workload $workload")
    val a = Args(workload, seed.toLong, seconds.toDouble, trace == "1", mode, Paths.get(out))
    val res = if (workload == "model-sweep") ModelSweep.run(a) else PingmeshBench.run(a)
    println("PERFBENCH_RESULT " + res.toJson)
  }
}
