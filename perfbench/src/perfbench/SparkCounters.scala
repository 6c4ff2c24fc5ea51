package perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.util.QueryExecutionListener

/** Per-epoch Spark work counts, gathered from listeners on the session.
  *
  * The listener bus delivers events on its own thread, after the action that
  * caused them may have returned, so nothing is attributed by arrival time.
  * Each epoch runs under a job group named after it. Jobs carry that group
  * in their properties and tasks are attributed through their stage's job.
  * An action is a root SQL execution, whose start event carries the group.
  * The `QueryExecutionListener` sees every finished action but not its
  * group, so it checks that each action was attributed.
  */
final class SparkCounters(spark: SparkSession) {

  final class Totals {
    val actions = new AtomicLong
    val jobs = new AtomicLong
    val tasks = new AtomicLong
    val cpuNs = new AtomicLong
    val runMs = new AtomicLong
    val shuffleBytes = new AtomicLong
  }

  private val byGroup = new ConcurrentHashMap[String, Totals]
  private val stageGroup = new ConcurrentHashMap[Int, String]
  private val rootExecutions = new AtomicLong
  private val finishedActions = new AtomicLong
  private val jobsStarted = new AtomicLong
  private val jobsEnded = new AtomicLong
  private val tasksEnded = new AtomicLong

  private def totals(group: String): Totals = byGroup.computeIfAbsent(group, _ => new Totals)

  private val jobListener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      jobsStarted.incrementAndGet()
      val props = Option(e.properties)
      val group = props.flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
      e.stageIds.foreach(s => stageGroup.put(s, group))
      totals(group).jobs.incrementAndGet()
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()
    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case s: SparkListenerSQLExecutionStart if s.rootExecutionId.forall(_ == s.executionId) =>
        rootExecutions.incrementAndGet()
        totals(s.jobGroupId.getOrElse("")).actions.incrementAndGet()
      case _ =>
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasksEnded.incrementAndGet()
      val t = totals(stageGroup.getOrDefault(e.stageId, ""))
      t.tasks.incrementAndGet()
      Option(e.taskMetrics).foreach { m =>
        t.cpuNs.addAndGet(m.executorCpuTime)
        t.runMs.addAndGet(m.executorRunTime)
        t.shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      }
    }
  }

  private val actionListener = new QueryExecutionListener {
    override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
      finishedActions.incrementAndGet()
    override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
      finishedActions.incrementAndGet()
  }

  spark.sparkContext.addSparkListener(jobListener)
  spark.listenerManager.register(actionListener)

  /** Run `body` with its Spark jobs tagged as `group`. */
  def tagged[A](group: String)(body: => A): A = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group, interruptOnCancel = false)
    try body
    finally sc.clearJobGroup()
  }

  /** Wait until the listener bus has delivered every event of the jobs run
    * so far: all started jobs ended and the counts stopped changing.
    */
  def settle(timeoutMs: Long = 20000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    var last = (-1L, -1L, -1L)
    var stable = 0
    while (stable < 3 && System.currentTimeMillis() < deadline) {
      Thread.sleep(100)
      val now = (jobsEnded.get, tasksEnded.get, finishedActions.get)
      if (now == last && jobsStarted.get == jobsEnded.get) stable += 1 else stable = 0
      last = now
    }
  }

  /** Actions finished minus actions attributed to a group: 0 when every
    * action was seen starting.
    */
  def unattributedActions: Long = finishedActions.get - rootExecutions.get

  /** Counts summed over the groups for which `keep` holds. */
  def sum(keep: String => Boolean): Map[String, Double] = {
    import scala.jdk.CollectionConverters._
    val groups = byGroup.asScala.filter { case (g, _) => keep(g) }.values
    Map(
      "actions" -> groups.map(_.actions.get).sum.toDouble,
      "jobs" -> groups.map(_.jobs.get).sum.toDouble,
      "tasks" -> groups.map(_.tasks.get).sum.toDouble,
      "cpu_ms" -> groups.map(_.cpuNs.get).sum / 1e6,
      "run_ms" -> groups.map(_.runMs.get).sum.toDouble,
      "shuffle_bytes" -> groups.map(_.shuffleBytes.get).sum.toDouble,
    )
  }
}
