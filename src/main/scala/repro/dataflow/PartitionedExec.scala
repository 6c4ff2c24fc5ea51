package repro.dataflow

import org.apache.spark.sql.{Column, DataFrame, Observation, functions}
import org.apache.spark.sql.functions._

/** Data-level partitioned execution of the monitoring queries (paper §IV).
  *
  * Each record draws a deterministic uniform `u ∈ [0,1)` from its record id.
  * Because effective load factors are monotone (`e_1 ≥ e_2 ≥ … ≥ e_M`), a
  * single draw implements the whole proxy chain: a record is processed by
  * local operator `i` iff `u < e_i`, so `lane = #{i : u < e_i}` — the number
  * of operators it runs at the source — is its whole path (Fig. 5). A record
  * with lane `L < M` is drained to the stream processor after local operator
  * `L`, which runs operators `L+1..M` on it.
  *
  * Every query is one [[Query]]: its stages before G+R, its group keys, its
  * mergeable partial aggregates and its output projection. A plan is one
  * pass over the batch with the lane as a column. The stages are per-record
  * functions that carry the lane through, so applying them to every record
  * runs each one wherever the record's lane puts it. One `groupBy` computes
  * every partial aggregate twice, over the source's lane (`lane == M`) and
  * over the drained lanes (`lane < M`), and the projection merges the two
  * states (count/sum/min/max are incrementally mergeable — rule R-1 of
  * §IV-B). The result is *identical* to the unpartitioned query for every
  * monotone `e` — the losslessness Jarvis claims over data synopses — and
  * the tests enforce that with DataFrame and DuckDB oracles.
  */
object PartitionedExec {

  private val UScale = 1000000L
  private val Lane = "lane"

  /** Deterministic uniform draw in [0,1) per record. */
  def uCol(recId: Column, seed: Long = 77L): Column =
    pmod(xxhash64(recId, lit(seed)), lit(UScale)) / lit(UScale.toDouble)

  private def checkMonotone(e: Seq[Double]): Unit = {
    require(e.forall(x => x >= 0 && x <= 1), s"load factors out of range: $e")
    require(e.zip(e.drop(1)).forall { case (a, b) => a >= b - 1e-12 },
      s"effective load factors must be non-increasing: $e")
  }

  /** A mergeable partial aggregate `fn(input)` named `name`; `merge`
    * combines the source's state with the stream processor's.
    */
  final case class Agg(name: String, input: Column, fn: Column => Column,
                       merge: (Column, Column) => Column)

  object Agg {
    private def add(a: Column, b: Column): Column = coalesce(a + b, a, b)

    def count(name: String): Agg = Agg(name, lit(1), functions.count, add)
    def sum(name: String, in: String): Agg = Agg(name, col(in), functions.sum, add)
    def max(name: String, in: String): Agg = Agg(name, col(in), functions.max, greatest(_, _))
    def min(name: String, in: String): Agg = Agg(name, col(in), functions.min, least(_, _))
  }

  /** Record counts at one stage boundary (0 = the input, `k` = after stage
    * `k`): the rows there, the ones proxy `k+1` received from the local
    * chain (lane ≥ k) and the ones it forwarded to its local operator
    * (lane ≥ k+1).
    */
  final case class LaneCounts(rows: Long, incoming: Long, intended: Long)

  /** One pass of a query. [[laneCounts]] blocks until an action on
    * [[result]] has run. A boundary the optimizer removed (empty input)
    * reports no metrics, which read as zero.
    */
  final class Pass(val result: DataFrame, observations: Seq[Observation]) {
    def laneCounts: Seq[LaneCounts] = observations.map { o =>
      val m = o.get
      def long(k: String): Long = m.get(k).collect { case n: Number => n.longValue }.getOrElse(0L)
      LaneCounts(long("rows"), long("incoming"), long("intended"))
    }
  }

  /** One query: the ordered stages before G+R (each keeps the `lane`
    * column), the group keys, the partial aggregates and the output
    * projection over the keys and the merged aggregates.
    */
  final case class Query(stages: Seq[DataFrame => DataFrame], keys: Seq[Column], aggs: Seq[Agg],
                         output: Seq[Column]) {
    def numOps: Int = stages.size + 1

    /** Lane of every record under one effective-load-factor vector `e`. */
    def lanes(e: Seq[Double], seed: Long = 77L): Column = {
      require(e.length == numOps, s"$numOps operators, got load factors $e")
      checkMonotone(e)
      val u = uCol(col("recId"), seed)
      e.map(ei => when(u < ei, 1).otherwise(0)).reduce(_ + _)
    }

    /** Lane of every record when each data source runs its own plan (the
      * paper's decentralized runtimes, §IV-A). Sources absent from the map
      * drain everything (the Startup default).
      */
    def lanesBySource(eBySource: Map[Long, Seq[Double]], seed: Long = 77L): Column =
      eBySource.foldLeft(lit(0)) { case (otherwise, (src, e)) =>
        when(col("srcIp") === src, lanes(e, seed)).otherwise(otherwise)
      }

    /** Run the partitioned plan over `input` with each record's `lane`. */
    def run(input: DataFrame, lane: Column): Pass = {
      val observations = Seq.fill(numOps)(Observation())
      def observe(df: DataFrame, k: Int): DataFrame =
        df.observe(observations(k), count(lit(1)) as "rows",
          count_if(col(Lane) >= k) as "incoming", count_if(col(Lane) >= k + 1) as "intended")
      val staged = stages.zipWithIndex.foldLeft(observe(input.withColumn(Lane, lane), 0)) {
        case (df, (stage, k)) => observe(stage(df), k + 1)
      }
      val partials = aggs.flatMap { a =>
        Seq(a.fn(when(col(Lane) === numOps, a.input)) as s"${a.name}_src",
          a.fn(when(col(Lane) < numOps, a.input)) as s"${a.name}_sp")
      }
      val merged = aggs.map(a => a.merge(col(s"${a.name}_src"), col(s"${a.name}_sp")) as a.name)
      val grouped = staged.groupBy(keys: _*).agg(partials.head, partials.tail: _*)
      new Pass(grouped.select(col("*") +: merged: _*).select(output: _*), observations)
    }
  }

  private val pingAggs = Seq(Agg.count("cnt"), Agg.sum("s_rtt", "rtt"), Agg.max("max_rtt", "rtt"),
    Agg.min("min_rtt", "rtt"))

  private def pingOutput(keys: String*): Seq[Column] = keys.map(col) ++ Seq(
    (col("s_rtt") / col("cnt")) as "avg_rtt", col("max_rtt"), col("min_rtt"), col("cnt"))

  /** S2SProbe: ops = [F, G+R]; matches [[Queries.s2sFull]]. */
  val S2S: Query = Query(
    Seq(Queries.pingFilter),
    Seq(Queries.winCol(col("ts")) as "win", col("srcIp"), col("dstIp")),
    pingAggs, pingOutput("win", "srcIp", "dstIp"))

  /** T2TProbe: ops = [F, J, G+R]; matches [[Queries.t2tFull]]. The static
    * ToR table is available on both sides, as in the paper.
    */
  def T2T(tor: DataFrame): Query = Query(
    Seq(Queries.pingFilter, Queries.torJoin(_, tor, col(Lane))),
    Seq(col("win"), col("srcTor"), col("dstTor")),
    pingAggs, pingOutput("win", "srcTor", "dstTor"))

  /** LogAnalytics: ops = [F, M, G+R]; matches [[Queries.logFull]]. */
  val Log: Query = Query(
    Seq(Queries.logFilter, Queries.logParse(_, col(Lane))),
    Seq(col("win"), col("tenant"), col("bucket")),
    Seq(Agg.count("cnt"), Agg.sum("s_cpu", "cpu"), Agg.sum("s_mem", "mem")),
    Seq(col("win"), col("tenant"), col("bucket"), col("cnt"),
      (col("s_cpu") / col("cnt")) as "avg_cpu", (col("s_mem") / col("cnt")) as "avg_mem"))

  /** Fault-tolerance path (paper §IV-E): a failing data source leaves
    * behind checkpointed partial aggregation state for the current window;
    * the stream processor aggregates the replayed (unprocessed) records and
    * merges both partial sets. Count/sum/min/max merge losslessly, so the
    * recovered result equals the failure-free query.
    *
    * @param checkpointed records the source had already folded into its
    *                     partial state before failing (lane M)
    * @param replayed     records replayed raw to the SP after the failure
    *                     (lane 0)
    */
  def s2sRecoverFromCheckpoint(checkpointed: DataFrame, replayed: DataFrame): DataFrame = {
    val input = checkpointed.withColumn(Lane, lit(S2S.numOps))
      .unionByName(replayed.withColumn(Lane, lit(0)))
    S2S.run(input, col(Lane)).result
  }
}
