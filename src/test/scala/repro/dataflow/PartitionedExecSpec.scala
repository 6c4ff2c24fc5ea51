package repro.dataflow

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{DfCompare, Oracle, PropHelpers, SparkSpec}
import repro.dataflow.PartitionedExec.{LaneCounts, Log, S2S, T2T}

/** Losslessness of data-level partitioned execution (paper §II-B1, §VI-D):
  * for every monotone effective-load-factor vector the partitioned plan
  * (source partial operators before the shuffle + SP-side completion) must
  * produce *exactly* the rows of the unpartitioned query.
  */
class PartitionedExecSpec extends SparkSpec {

  private lazy val pings = MonitoringData.pingmesh(spark, nSources = 5, nPeers = 18,
    nEpochs = 21, probesPerEpoch = 3).cache()
  private lazy val tor = MonitoringData.torMap(spark, 32, ipsPerTor = 8).cache()
  private lazy val lines = MonitoringData.logLines(spark, nSources = 4, nTenants = 6,
    nEpochs = 21, linesPerEpoch = 5).cache()

  private lazy val s2sRef = Queries.s2sFull(pings).cache()
  private lazy val t2tRef = Queries.t2tFull(pings, tor).cache()
  private lazy val logRef = Queries.logFull(lines).cache()

  // ------------------------------------------------------------------
  // S2SProbe
  // ------------------------------------------------------------------

  private val s2sGrid = Seq(
    Seq(0.0, 0.0),   // All-SP
    Seq(1.0, 1.0),   // All-Src
    Seq(1.0, 0.0),   // Filter-Src / Best-OP below 85%
    Seq(0.7, 0.7),   // LP optimum at 60% budget
    Seq(1.0, 0.65),  // filter-first data-level plan
    Seq(0.5, 0.2),   // arbitrary interior plan
    Seq(0.86, 0.33),
  )

  for (e <- s2sGrid)
    test(s"S2SProbe partitioned == full at e=${e.mkString("(", ",", ")")}") {
      DfCompare.assertSameRows(S2S.run(pings, S2S.lanes(e)).result, s2sRef, s"s2s e=$e")
    }

  test("S2SProbe partitioned matches DuckDB directly at an interior plan") {
    Oracle.assertEquivalent(S2S.run(pings, S2S.lanes(Seq(0.7, 0.7))).result, Queries.s2sSql,
      "pings" -> pings)
  }

  test("S2SProbe property: random monotone plans are lossless") {
    val gen = for {
      e1 <- Gen.choose(0.0, 1.0)
      e2 <- Gen.choose(0.0, e1)
    } yield Seq(e1, e2)
    for (e <- PropHelpers.samples(gen, 6, seed = 31L))
      DfCompare.assertSameRows(S2S.run(pings, S2S.lanes(e)).result, s2sRef, s"s2s random e=$e")
  }

  test("S2SProbe rejects non-monotone load factors") {
    intercept[IllegalArgumentException] { S2S.run(pings, S2S.lanes(Seq(0.3, 0.6))).result }
  }

  test("S2SProbe rejects out-of-range load factors") {
    intercept[IllegalArgumentException] { S2S.run(pings, S2S.lanes(Seq(1.2, 0.5))).result }
  }

  test("S2SProbe lanes partition the input exactly") {
    val e = Seq(0.6, 0.25)
    val u = PartitionedExec.uCol(col("recId"))
    val tagged = pings.withColumn("u", u)
    val lane0 = tagged.filter(col("u") >= e.head).count()
    val lane1 = tagged.filter(col("u") < e.head && col("u") >= e(1)).count()
    val lane2 = tagged.filter(col("u") < e(1)).count()
    assert(lane0 + lane1 + lane2 == pings.count())
    // The split fractions track the load factors.
    val n = pings.count().toDouble
    assert(math.abs(lane2 / n - 0.25) < 0.03, s"local fraction ${lane2 / n}")

    // The counts each plan observes at its stage boundaries equal direct
    // filter counts on the same frames with `u` carried through.
    def direct(boundaries: Seq[DataFrame], e: Seq[Double]): Seq[LaneCounts] =
      boundaries.zipWithIndex.map { case (df, k) =>
        def below(i: Int) = if (i == 0) df.count() else df.filter(col("u") < e(i - 1)).count()
        LaneCounts(df.count(), below(k), below(k + 1))
      }
    def observed(q: PartitionedExec.Query, input: DataFrame, lane: Column): Seq[LaneCounts] = {
      val pass = q.run(input, lane)
      pass.result.collect()
      pass.laneCounts
    }
    val filtered = Queries.pingFilter(tagged)
    assert(observed(S2S, pings, S2S.lanes(e)) == direct(Seq(tagged, filtered), e))
    val e3 = Seq(0.8, 0.6, 0.2)
    assert(observed(T2T(tor), pings, T2T(tor).lanes(e3)) ==
      direct(Seq(tagged, filtered, Queries.torJoin(filtered, tor, col("u"))), e3))
    val logTagged = lines.withColumn("u", u)
    val logFiltered = Queries.logFilter(logTagged)
    assert(observed(Log, lines, Log.lanes(e3)) ==
      direct(Seq(logTagged, logFiltered, Queries.logParse(logFiltered, col("u"))), e3))
    // Per-source plans: sources 1 and 3 are unmapped and drain everything.
    val plans = Map(0L -> Seq(1.0, 1.0), 2L -> Seq(0.7, 0.3), 4L -> Seq(0.5, 0.1))
    val bySource = (0L until 5L).map { src =>
      val mine = tagged.filter(col("srcIp") === src)
      direct(Seq(mine, Queries.pingFilter(mine)), plans.getOrElse(src, Seq(0.0, 0.0)))
    }.transpose.map(_.reduce((a, b) =>
      LaneCounts(a.rows + b.rows, a.incoming + b.incoming, a.intended + b.intended)))
    assert(observed(S2S, pings, S2S.lanesBySource(plans)) == bySource)
  }

  // ------------------------------------------------------------------
  // Per-source plans (decentralized runtimes, §IV-A)
  // ------------------------------------------------------------------

  test("per-source plans: heterogeneous load factors are lossless") {
    val plans = Map(
      0L -> Seq(1.0, 1.0),   // rich source: everything local
      1L -> Seq(0.0, 0.0),   // poor source: everything drained
      2L -> Seq(0.7, 0.7),   // LP interior plan
      3L -> Seq(1.0, 0.33),  // filter-first plan
      4L -> Seq(0.5, 0.1),
    )
    DfCompare.assertSameRows(S2S.run(pings, S2S.lanesBySource(plans)).result, s2sRef, "per-source")
  }

  test("per-source plans: sources missing from the map default to All-SP") {
    val plans = Map(0L -> Seq(1.0, 1.0)) // sources 1..4 unmapped
    DfCompare.assertSameRows(S2S.run(pings, S2S.lanesBySource(plans)).result, s2sRef,
      "per-source defaults")
  }

  test("per-source plans match DuckDB directly") {
    val plans = Map(0L -> Seq(0.9, 0.4), 1L -> Seq(0.2, 0.2), 2L -> Seq(1.0, 0.0))
    Oracle.assertEquivalent(S2S.run(pings, S2S.lanesBySource(plans)).result, Queries.s2sSql,
      "pings" -> pings)
  }

  test("per-source plans reject non-monotone vectors") {
    intercept[IllegalArgumentException] {
      S2S.run(pings, S2S.lanesBySource(Map(0L -> Seq(0.2, 0.8)))).result
    }
  }

  // ------------------------------------------------------------------
  // T2TProbe
  // ------------------------------------------------------------------

  private val t2tGrid = Seq(
    Seq(0.0, 0.0, 0.0),
    Seq(1.0, 1.0, 1.0),
    Seq(1.0, 0.0, 0.0),   // Best-OP: F only
    Seq(1.0, 0.5, 0.5),   // J on half the filtered stream
    Seq(0.8, 0.6, 0.2),
  )

  for (e <- t2tGrid)
    test(s"T2TProbe partitioned == full at e=${e.mkString("(", ",", ")")}") {
      DfCompare.assertSameRows(T2T(tor).run(pings, T2T(tor).lanes(e)).result, t2tRef, s"t2t e=$e")
    }

  test("T2TProbe partitioned matches DuckDB directly at an interior plan") {
    Oracle.assertEquivalent(T2T(tor).run(pings, T2T(tor).lanes(Seq(1.0, 0.5, 0.5))).result,
      Queries.t2tSql, "pings" -> pings, "tormap" -> tor)
  }

  test("T2TProbe property: random monotone plans are lossless") {
    val gen = for {
      e1 <- Gen.choose(0.0, 1.0)
      e2 <- Gen.choose(0.0, e1)
      e3 <- Gen.choose(0.0, e2)
    } yield Seq(e1, e2, e3)
    for (e <- PropHelpers.samples(gen, 4, seed = 37L))
      DfCompare.assertSameRows(T2T(tor).run(pings, T2T(tor).lanes(e)).result, t2tRef,
        s"t2t random e=$e")
  }

  // ------------------------------------------------------------------
  // LogAnalytics
  // ------------------------------------------------------------------

  private val logGrid = Seq(
    Seq(0.0, 0.0, 0.0),
    Seq(1.0, 1.0, 1.0),
    Seq(1.0, 1.0, 0.0),   // Best-OP: F+M at the source
    Seq(1.0, 0.4, 0.4),
    Seq(0.7, 0.5, 0.1),
  )

  for (e <- logGrid)
    test(s"LogAnalytics partitioned == full at e=${e.mkString("(", ",", ")")}") {
      DfCompare.assertSameRows(Log.run(lines, Log.lanes(e)).result, logRef, s"log e=$e")
    }

  test("LogAnalytics partitioned matches DuckDB directly at an interior plan") {
    Oracle.assertEquivalent(Log.run(lines, Log.lanes(Seq(1.0, 0.4, 0.4))).result, Queries.logSql,
      "logs" -> lines.select("raw"))
  }

  test("LogAnalytics property: random monotone plans are lossless") {
    val gen = for {
      e1 <- Gen.choose(0.0, 1.0)
      e2 <- Gen.choose(0.0, e1)
      e3 <- Gen.choose(0.0, e2)
    } yield Seq(e1, e2, e3)
    for (e <- PropHelpers.samples(gen, 4, seed = 41L))
      DfCompare.assertSameRows(Log.run(lines, Log.lanes(e)).result, logRef, s"log random e=$e")
  }

  // ------------------------------------------------------------------
  // Fault tolerance (§IV-E): checkpointed partial state + replay
  // ------------------------------------------------------------------

  test("source failure mid-window: checkpointed partials + replayed records recover exactly") {
    // A data source dies halfway through the second window. The records it
    // had already aggregated survive as checkpointed partial state
    // (count/sum/min/max merge losslessly); the unprocessed tail is
    // replayed raw to the SP, which aggregates it and merges both partial
    // sets. The recovered result equals the failure-free query.
    import org.apache.spark.sql.functions.col
    val failAtMs = 10500L
    val processedBeforeFailure = pings.filter(col("ts") < failAtMs)
    val replayedAfterFailure = pings.filter(col("ts") >= failAtMs)
    assert(processedBeforeFailure.count() > 0 && replayedAfterFailure.count() > 0)
    val recovered = PartitionedExec.s2sRecoverFromCheckpoint(
      processedBeforeFailure, replayedAfterFailure)
    DfCompare.assertSameRows(recovered, s2sRef, "fault recovery")
  }

  test("recovery with an empty checkpoint degenerates to All-SP") {
    import org.apache.spark.sql.functions.lit
    val recovered = PartitionedExec.s2sRecoverFromCheckpoint(pings.filter(lit(false)), pings)
    DfCompare.assertSameRows(recovered, s2sRef, "empty checkpoint")
  }

  // ------------------------------------------------------------------
  // The u draw
  // ------------------------------------------------------------------

  test("u is deterministic per record and uniform-ish") {
    val u = PartitionedExec.uCol(col("recId"))
    val stats = pings.select(u as "u").agg(min("u"), max("u"), avg("u")).collect()(0)
    assert(stats.getDouble(0) >= 0.0 && stats.getDouble(1) < 1.0)
    assert(math.abs(stats.getDouble(2) - 0.5) < 0.05, s"mean u = ${stats.getDouble(2)}")
  }

  test("different seeds give different record selections") {
    val a = pings.filter(PartitionedExec.uCol(col("recId"), 1L) < 0.5).count()
    val overlap = pings.filter(
      PartitionedExec.uCol(col("recId"), 1L) < 0.5 &&
        PartitionedExec.uCol(col("recId"), 2L) < 0.5).count()
    // Independent halves should overlap on ~25% of records, not ~50%.
    assert(overlap < a * 0.7)
  }
}
