package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** The benchmark's local SparkSession and its per-request job accounting. */
object Spark {

  /** Jobs, tasks and shuffle bytes written, per job group. The listener runs
    * on Spark's event thread; read it after `SparkSession.stop`, which
    * drains the event queue.
    */
  final class Counters extends SparkListener {
    final class Acc { var jobs = 0L; var tasks = 0L; var shuffleBytes = 0L }
    private val byGroup      = new ConcurrentHashMap[String, Acc]()
    private val stageToGroup = new ConcurrentHashMap[Int, String]()

    private def acc(g: String): Acc = byGroup.computeIfAbsent(g, _ => new Acc)

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
        .getOrElse("")
      acc(g).jobs += 1
      e.stageIds.foreach(stageToGroup.put(_, g))
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val a = acc(stageToGroup.getOrDefault(e.stageId, ""))
      a.tasks += 1
      Option(e.taskMetrics).foreach(m => a.shuffleBytes += m.shuffleWriteMetrics.bytesWritten)
    }

    def get(g: String): (Long, Long, Long) =
      Option(byGroup.get(g)).map(a => (a.jobs, a.tasks, a.shuffleBytes)).getOrElse((0L, 0L, 0L))
  }

  def start(localDir: String): (SparkSession, Counters) = {
    val spark = SparkSession.builder()
      .master("local[1]")
      .appName("hadad-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      // Inputs are small: one partition and no adaptive re-planning cut the
      // fixed per-operator cost of local Spark.
      .config("spark.sql.shuffle.partitions", "1")
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.default.parallelism", "1")
      // As in the repository's benches: joins take the shuffle path.
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      // A run submits thousands of small jobs; keeping the status of only
      // the latest ones stops the session's memory and listener work from
      // growing through the run.
      .config("spark.ui.retainedJobs", "20")
      .config("spark.ui.retainedStages", "20")
      .config("spark.ui.retainedTasks", "200")
      .config("spark.sql.ui.retainedExecutions", "20")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val c = new Counters
    spark.sparkContext.addSparkListener(c)
    (spark, c)
  }

  /** Run `body` with its Spark jobs attributed to job group `g`. */
  def group[A](spark: SparkSession, g: String)(body: => A): A = {
    spark.sparkContext.setJobGroup(g, g)
    try body finally spark.sparkContext.clearJobGroup()
  }
}
