package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The Spark jobs that `body` starts, counted by a listener under a job
    * group of its own. Listener events arrive asynchronously but in order,
    * so a marker job in a second group is awaited before the count is read.
    */
  def jobsOf[A](body: => A): (A, Int) = {
    val sc     = spark.sparkContext
    val group  = s"jobs-${System.nanoTime()}"
    val jobs   = new AtomicInteger()
    val marker = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some(`group`)                  => jobs.incrementAndGet()
          case Some(g) if g == s"$group-done" => marker.countDown()
          case _                              =>
        }
    }
    def inGroup[B](g: String)(f: => B): B = {
      sc.setJobGroup(g, g)
      try f finally sc.clearJobGroup()
    }
    sc.addSparkListener(listener)
    try {
      val a = inGroup(group)(body)
      inGroup(s"$group-done")(sc.parallelize(Seq(1), 1).count())
      assert(marker.await(60, TimeUnit.SECONDS), "listener saw no marker job")
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
