package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{Harness, Pipelines, Tables}
import repro.core.Rewriter

/** spark-submit entrypoints, one per reproduced table (DESIGN.md §5).
  *
  *   spark-submit --class repro.jobs.B1 target/scala-2.13/repro_2.13-*.jar
  */
private object JobSession {
  def get(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** B7 and B8 rows: per query and variant, cell and wall speedups. */
  def printHybrid(rows: Seq[Tables.HybridRow]): Unit =
    rows.foreach(r =>
      println(f"${r.query}%-5s ${r.variant}%-9s cellx=${r.cellSpeedup}%7.1f " +
              f"wallx=${r.wallSpeedup}%6.1f"))
}

object B1 {
  def main(args: Array[String]): Unit =
    Harness.printTable("B1 (paper Fig 5)", Tables.b1(JobSession.get("B1")))
}

object B2 {
  def main(args: Array[String]): Unit =
    Harness.printTable("B2 (paper Fig 6)", Tables.b2(JobSession.get("B2")))
}

object B3 {
  def main(args: Array[String]): Unit =
    Harness.printTable("B3 (paper Fig 8)", Tables.b3(JobSession.get("B3")))
}

object B4 {
  def main(args: Array[String]): Unit =
    Harness.printTable("B4 (paper Fig 7)", Tables.b4(JobSession.get("B4")))
}

object B5 {
  def main(args: Array[String]): Unit = {
    val (finds, sample) = Tables.b5(JobSession.get("B5"))
    finds.foreach(r => println(f"${r.pipeline}%-7s ${r.estimator}%-6s ${r.findMs}%8.1f ms"))
    Harness.printTable("B5 overhead sample", sample)
  }
}

object B6 {
  def main(args: Array[String]): Unit =
    Tables.b6(JobSession.get("B6")).foreach(r =>
      println(f"${r.pipeline}%-8s TR=${r.tupleRatio}%4.0f workx=${r.workSpeedup}%8.1f " +
              f"wallx=${r.wallSpeedup}%6.1f"))
}

object B7 {
  def main(args: Array[String]): Unit =
    JobSession.printHybrid(Tables.b7(JobSession.get("B7")))
}

object B8 {
  def main(args: Array[String]): Unit =
    JobSession.printHybrid(Tables.b8(JobSession.get("B8")))
}

object B9 {
  def main(args: Array[String]): Unit =
    Tables.b9(JobSession.get("B9")).foreach(r =>
      println(f"${r.pipeline}%-8s nR=${r.nR}%6d overhead=${r.overheadPct}%6.2f%%"))
}

/** Prints the reproduced Tables 12–13 and 15 (rewrite catalogs). */
object T12T13T15 {
  def main(args: Array[String]): Unit = {
    println("== Tables 12–13: no-views rewrites ==")
    for (id <- Pipelines.notOptIds) {
      val r = Rewriter.rewrite(Pipelines.byId(id), Pipelines.metaFor(id))
      println(f"$id%-7s ${r.best.render}")
    }
    println("\n== Table 15: view-based rewrites ==")
    for (id <- Pipelines.viewsIds) {
      val r = Rewriter.rewrite(Pipelines.byId(id), Pipelines.metaFor(id),
                               views = Pipelines.vexp)
      println(f"$id%-7s ${r.best.render}")
    }
  }
}
