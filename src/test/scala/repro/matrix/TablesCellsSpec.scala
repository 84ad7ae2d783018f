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
  * hold under any core count.
  */
object TablesCells {

  val Resource = "tables-cells.tsv"
  val Header   = "table\tpipeline\torigCells\trwCells"

  def lines(spark: SparkSession, t: Tables.LATable): Seq[String] =
    t.requests(spark).map { case (id, meta, env) =>
      val e = Pipelines.byId(id)
      def cells(p: Expr): Long = Exec.run(p, env, _ => true).totalCells
      Seq(t.name, id, cells(e), cells(Rewriter.rewrite(e, meta, t.views).chosen)).mkString("\t")
    }
}

/** Regenerates the golden file: `sbt "Test/runMain repro.matrix.WriteTablesCells"`. */
object WriteTablesCells {
  def main(args: Array[String]): Unit = {
    val out   = Paths.get("src", "test", "resources", TablesCells.Resource)
    val lines = TablesCells.Header +: Tables.laTables.flatMap(TablesCells.lines(SparkSpec.shared, _))
    Files.write(out, (lines.mkString("\n") + "\n").getBytes(StandardCharsets.UTF_8))
    println(s"wrote ${lines.size - 1} pipelines to $out")
    SparkSpec.shared.stop()
  }
}

class TablesCellsSpec extends SparkSpec {

  private val golden: Seq[String] = {
    val src = Source.fromResource(TablesCells.Resource)(scala.io.Codec.UTF8)
    try {
      val lines = src.getLines().toVector
      assert(lines.head == TablesCells.Header, "golden file header")
      lines.tail
    } finally src.close()
  }

  test("the golden file covers exactly B1–B5's pipelines, in order") {
    assert(golden.map(_.split('\t').take(2).toSeq) ==
           Tables.laTables.flatMap(t => t.ids.map(Seq(t.name, _))))
  }

  for (t <- Tables.laTables)
    test(s"${t.name}: every pipeline's cells match the golden file") {
      assert(TablesCells.lines(spark, t) == golden.filter(_.startsWith(t.name + "\t")))
    }
}
