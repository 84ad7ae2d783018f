package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestEnvs
import repro.bench.{Pipelines, Tables}

/** Reproduces Table 15: every P^Views pipeline, rewritten against the view
  * set V_exp (Table 14), must use materialized views at least as profitably
  * as the paper's reported rewrite, and stay numerically equivalent.
  */
class RewriteViewsSpec extends AnyFunSuite {

  private def viewMeta(m: Map[String, Meta]): Map[String, Meta] =
    m ++ Pipelines.vexp.map(v => v.name -> CostModel.gamma(v.body, m.get, NaiveEstimator).meta)

  for (id <- Pipelines.viewsIds) {
    test(s"$id: view-based rewrite at least as good as the paper's") {
      val e        = Pipelines.byId(id)
      val m        = Tables.b3MetaFor(id)
      val expected = Pipelines.viewsExpected(id)
      val r        = Rewriter.rewrite(e, m, views = Pipelines.vexp)
      val expectedCost = CostModel.gamma(expected, viewMeta(m).get, NaiveEstimator).cost
      assert(r.bestCost <= expectedCost + 1e-6,
             s"found ${r.best.render} (γ=${r.bestCost}) vs paper ${expected.render} (γ=$expectedCost)")
      // The rewrite must be executable given base matrices + materialized views.
      val env = TestEnvs.withViews(TestEnvs.localEnv(m, seed = 11), Pipelines.vexp)
      TestEnvs.assertEquivalent(e, r.best, env, id)
      TestEnvs.assertEquivalent(e, expected, env, s"$id (paper rewrite sanity)")
    }
  }

  // The paper's flagship view rewrites, checked by exact shape.
  private val exact = Map(
    "P1.19" -> "V2",
    "P1.20" -> "trace(V7)",
    "P1.22" -> "trace(V9)",
    "P2.2"  -> "det(V1)",
    "P2.26" -> "exp(V9)",
  )

  for ((id, render) <- exact) {
    test(s"$id: exact view rewrite is $render") {
      val r = Rewriter.rewrite(Pipelines.byId(id), Tables.b3MetaFor(id),
                               views = Pipelines.vexp)
      assert(r.best.render == render, s"got ${r.best.render}")
    }
  }

  test("P2.21 (OLS): the inverse disappears in favor of V1") {
    val r = Rewriter.rewrite(Pipelines.byId("P2.21"), Tables.b3MetaFor("P2.21"),
                             views = Pipelines.vexp)
    assert(!r.best.render.contains("inv("), r.best.render)
    assert(r.best.render.contains("V1"), r.best.render)
  }
}
