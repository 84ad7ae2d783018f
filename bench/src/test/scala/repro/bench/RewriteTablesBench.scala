package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Reproduces the paper's rewrite catalogs as printed tables:
  * Tables 12–13 (no-views rewrites of P^¬Opt) and Table 15 (view-based
  * rewrites of P^Views). Each row shows the paper's rewrite next to the one
  * HADAD found here, with γ costs under the naive estimator.
  */
class RewriteTablesBench extends AnyFunSuite {

  private def show(title: String, ids: Seq[String], views: Seq[Rewriter.View],
                   expected: Map[String, Expr]): Unit = {
    println(s"\n== $title ==")
    println(f"${"pipeline"}%-7s ${"γ(orig)"}%12s ${"γ(found)"}%12s  found  |  paper")
    for (id <- ids) {
      val e = Pipelines.byId(id)
      val r = Rewriter.rewrite(e, Tables.b3MetaFor(id), views = views)
      println(f"$id%-7s ${r.originalCost}%12.0f ${r.bestCost}%12.0f  " +
              s"${r.best.render}  |  ${expected(id).render}")
    }
  }

  test("T12/T13: rewrites found without views") {
    show("T12–T13 (paper Tables 12–13): no-views rewrites",
         Pipelines.notOptIds, Nil, Pipelines.noViewsExpected)
  }

  test("T15: rewrites found with the V_exp views") {
    show("T15 (paper Table 15): view-based rewrites",
         Pipelines.viewsIds, Pipelines.vexp, Pipelines.viewsExpected)
  }
}
