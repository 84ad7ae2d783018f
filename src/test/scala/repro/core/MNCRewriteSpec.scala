package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestEnvs
import repro.bench.{Pipelines, Tables}

/** The MNC-based cost model (§7.2.2) drives the rewriter over all 57
  * pipelines: the chosen rewriting is never worse than the original under
  * MNC and stays numerically equivalent (the same soundness bar as the
  * naive model — the paper runs both and reports the estimator overhead).
  */
class MNCRewriteSpec extends AnyFunSuite {

  private def mncConfig = Rewriter.Config(estimator = () => new MNCEstimator)

  for ((id, e) <- Pipelines.all) {
    test(s"$id: MNC-driven rewrite is sound and not worse") {
      val m = Tables.b3MetaFor(id)
      val r = Rewriter.rewrite(e, m, cfg = mncConfig)
      assert(r.bestCost <= r.originalCost + 1e-6,
             s"${r.best.render} γ=${r.bestCost} vs original γ=${r.originalCost}")
      val env = TestEnvs.localEnv(m, seed = 2100 + id.hashCode)
      TestEnvs.assertEquivalent(e, r.best, env, s"$id (MNC)")
    }
  }

  test("MNC and naive can pick different plans on structured-sparse inputs") {
    // sum((A+B)v)-style choice where nnz structure matters: with an
    // ultra-sparse A the MNC product estimate is far tighter; both models
    // must still return sound (equivalent) rewrites.
    val meta = Map(
      "A" -> Meta.sparse(4000, 60, 120),
      "B" -> Meta.dense(4000, 60),
      "v1" -> Meta.dense(60, 1),
    )
    val e = Mul(Add(Mat("A"), Mat("B")), Mat("v1"))
    val rn = Rewriter.rewrite(e, meta)
    val rm = Rewriter.rewrite(e, meta, cfg = mncConfig)
    val env = TestEnvs.localEnv(meta, seed = 9)
    TestEnvs.assertEquivalent(e, rn.best, env, "naive")
    TestEnvs.assertEquivalent(e, rm.best, env, "mnc")
    assert(rn.bestCost <= rn.originalCost && rm.bestCost <= rm.originalCost)
  }
}
