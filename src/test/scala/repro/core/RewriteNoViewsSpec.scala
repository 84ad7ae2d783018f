package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestEnvs
import repro.bench.{Pipelines, Tables}

/** Reproduces Tables 12–13: for every P^¬Opt pipeline, HADAD (no views) must
  * find a rewriting that is (a) numerically equivalent to the original and
  * (b) at most as expensive, under the same cost model, as the rewrite the
  * paper reports. For the P^Opt pipelines, the rewriter must not pick
  * anything *worse* than the original (soundness of the cost choice).
  */
class RewriteNoViewsSpec extends AnyFunSuite {

  for (id <- Pipelines.notOptIds) {
    test(s"$id: finds a rewrite at least as good as the paper's (no views)") {
      val e        = Pipelines.byId(id)
      val m        = Tables.b3MetaFor(id)
      val expected = Pipelines.noViewsExpected(id)
      val r        = Rewriter.rewrite(e, m)
      val expectedCost = CostModel.gamma(expected, m.get, NaiveEstimator).cost
      assert(r.bestCost <= expectedCost + 1e-6,
             s"found ${r.best.render} (γ=${r.bestCost}) vs paper ${expected.render} (γ=$expectedCost)")
      assert(r.bestCost < r.originalCost + 1e-6)
      val env = TestEnvs.localEnv(m, seed = 42)
      TestEnvs.assertEquivalent(e, r.best, env, id)
      TestEnvs.assertEquivalent(e, expected, env, s"$id (paper rewrite sanity)")
    }
  }

  // Exact-shape checks where the paper's rewrite is canonical.
  private val exact = Map(
    "P1.1"  -> "(t(N) t(M))",
    "P1.3"  -> "inv((D C))",
    "P1.5"  -> "D",
    "P1.7"  -> "A",
    "P1.9"  -> "det(D)",
    "P1.13" -> "sum((t(colSums(M))*rowSums(N)))",
    "P1.15" -> "(M (N M))",
    "P1.16" -> "sum(A)",
    "P1.18" -> "sum(A)",
    "P2.3"  -> "trace(D)",
    "P2.7"  -> "C",
    "P2.15" -> "sum(A)",
  )

  for ((id, render) <- exact) {
    test(s"$id: exact rewrite shape is ${render}") {
      val r = Rewriter.rewrite(Pipelines.byId(id), Tables.b3MetaFor(id))
      assert(r.best.render == render, s"got ${r.best.render}")
    }
  }

  for (id <- Pipelines.optIds) {
    test(s"$id: already-optimal pipeline is never made worse") {
      val e = Pipelines.byId(id)
      val m = Tables.b3MetaFor(id)
      val r = Rewriter.rewrite(e, m)
      assert(r.bestCost <= r.originalCost + 1e-6)
      val env = TestEnvs.localEnv(m, seed = 7)
      TestEnvs.assertEquivalent(e, r.best, env, id)
    }
  }
}
