package repro.matrix

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.io.Source

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.bench.{Pipelines, Tables}
import repro.core.{Expr, Rewriter}

/** The cells columns of B1–B5 (`Tables.laTables`): one golden line per
  * pipeline pins the materialized cells of its original and of its HADAD
  * plan. Each plan runs all in driver memory, since cells do not depend on
  * placement (`ExecSpec`); the leaves are seeded local draws, so the lines
  * hold under any core count. B6's work columns (`Tables.b6Requests`) are
  * pinned the same way, one line per pipeline and tuple ratio; each route
  * runs once, placed as in the bench, since its work does not depend on
  * placement either.
  */
object TablesCells {

  val Resource = "tables-cells.tsv"
  val Header   = "table\tpipeline\torigCells\trwCells"

  val B6Resource = "b6-work.tsv"
  val B6Header   = "pipeline\ttupleRatio\tmorpheusWork\thadadWork"

  def lines(spark: SparkSession, t: Tables.LATable): Seq[String] =
    t.requests(spark).map { case (id, meta, env) =>
      val e = Pipelines.byId(id)
      def cells(p: Expr): Long = Exec.run(p, env, _ => true).totalCells
      Seq(t.name, id, cells(e), cells(Rewriter.rewrite(e, meta, t.views).chosen)).mkString("\t")
    }

  def b6Lines(spark: SparkSession): Seq[String] =
    Tables.b6Requests(spark).map { case (tr, p, env) =>
      def work(route: Expr): Long = Tables.work(Exec.run(route, env))
      Seq(p.id, tr, work(p.morpheus), work(p.hadad)).mkString("\t")
    }.toSeq

  /** A golden file's lines after its header. */
  def golden(resource: String, header: String): Seq[String] = {
    val src = Source.fromResource(resource)(scala.io.Codec.UTF8)
    try {
      val lines = src.getLines().toVector
      assert(lines.head == header, s"$resource header")
      lines.tail
    } finally src.close()
  }
}

/** Regenerates both golden files: `sbt "Test/runMain repro.matrix.WriteTablesCells"`. */
object WriteTablesCells {
  def main(args: Array[String]): Unit = {
    val spark = SparkSpec.shared
    def write(resource: String, header: String, lines: Seq[String]): Unit = {
      val out = Paths.get("src", "test", "resources", resource)
      Files.write(out, ((header +: lines).mkString("\n") + "\n").getBytes(StandardCharsets.UTF_8))
      println(s"wrote ${lines.size} lines to $out")
    }
    write(TablesCells.Resource, TablesCells.Header, Tables.laTables.flatMap(TablesCells.lines(spark, _)))
    write(TablesCells.B6Resource, TablesCells.B6Header, TablesCells.b6Lines(spark))
    spark.stop()
  }
}

class TablesCellsSpec extends SparkSpec {

  private val golden = TablesCells.golden(TablesCells.Resource, TablesCells.Header)

  test("the golden file covers exactly B1–B5's pipelines, in order") {
    assert(golden.map(_.split('\t').take(2).toSeq) ==
           Tables.laTables.flatMap(t => t.ids.map(Seq(t.name, _))))
  }

  for (t <- Tables.laTables)
    test(s"${t.name}: every pipeline's cells match the golden file") {
      assert(TablesCells.lines(spark, t) == golden.filter(_.startsWith(t.name + "\t")))
    }

  test("B6: every pipeline's Morpheus and HADAD work match the golden file at each tuple ratio") {
    assert(TablesCells.b6Lines(spark) == TablesCells.golden(TablesCells.B6Resource, TablesCells.B6Header))
  }
}
