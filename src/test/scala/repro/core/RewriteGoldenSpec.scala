package repro.core

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.io.Source

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.{Pipelines, Tables}
import repro.core.Rewriter.Config

/** The rewriter's full output on the RW_find study: all 57 pipelines of
  * Tables 2–3 × {naive, MNC} × {no views, V_exp}, at the reduced `b3` dims.
  * One golden line per request pins the chosen plan, both costs and the
  * chase counters, so a change to the chase engine that is meant to be
  * behaviour-preserving must reproduce every line exactly.
  */
object RewriteGolden {

  val Resource = "rewrite-golden.tsv"
  val Header   = "request\tbest\toriginalCost\tbestCost\trounds\tfacts\tmerges\tpruned\tbudget\tdeadline"

  final case class Req(id: String, e: Expr, meta: Map[String, Meta],
                       views: Seq[Rewriter.View], cfg: Config)

  val requests: Vector[Req] = for {
    (id, e)       <- Pipelines.all
    (en, est)     <- Vector[(String, () => Estimator)](
                       "naive" -> (() => NaiveEstimator), "mnc" -> (() => new MNCEstimator))
    (vn, views)   <- Vector("none" -> Nil, "vexp" -> Pipelines.vexp)
  } yield Req(s"$id/$en/$vn", e, Tables.b3MetaFor(id), views, Config(estimator = est))

  def line(r: Req): String = {
    val res = Rewriter.rewrite(r.e, r.meta, r.views, r.cfg)
    val s   = res.stats
    Seq(r.id, res.best.render, res.originalCost, res.bestCost, s.rounds, s.facts, s.merges,
        s.prunedSteps, s.hitFactBudget, s.hitDeadline).mkString("\t")
  }
}

/** Regenerates the golden file: `sbt "Test/runMain repro.core.WriteGolden"`. */
object WriteGolden {
  def main(args: Array[String]): Unit = {
    val out   = Paths.get("src", "test", "resources", RewriteGolden.Resource)
    val lines = RewriteGolden.Header +: RewriteGolden.requests.map(RewriteGolden.line)
    Files.write(out, (lines.mkString("\n") + "\n").getBytes(StandardCharsets.UTF_8))
    println(s"wrote ${lines.size - 1} requests to $out")
  }
}

class RewriteGoldenSpec extends AnyFunSuite {

  private val golden: Map[String, String] = {
    val src = Source.fromResource(RewriteGolden.Resource)(scala.io.Codec.UTF8)
    try {
      val lines = src.getLines().toVector
      assert(lines.head == RewriteGolden.Header, "golden file header")
      lines.tail.map(l => l.takeWhile(_ != '\t') -> l).toMap
    } finally src.close()
  }

  test("the golden file covers exactly the request set") {
    assert(golden.keySet == RewriteGolden.requests.map(_.id).toSet)
  }

  for (r <- RewriteGolden.requests)
    test(s"${r.id}: plan, costs and chase counters match the golden file") {
      assert(RewriteGolden.line(r) == golden(r.id))
    }
}
