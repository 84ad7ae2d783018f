package repro.hybrid

import repro.{Oracle, SparkSpec, TestEnvs}
import repro.core._
import repro.matrix.COOMatrix

/** Hybrid (RA + LA) stage tests: the RA preprocessing is checked against
  * DuckDB, the Catalyst view-substitution rule is exercised, and every
  * Q1–Q10 LA rewriting (paper §9.2.2) is verified against the paper's
  * reported rewrite (cost bound + numeric equivalence).
  */
class HybridSpec extends SparkSpec {

  private lazy val tw = HybridData.twitter(spark, nUsers = 50, nTweets = 200, nHashtags = 30)

  test("RA stage: M (tweets ⋈ users, 12 features) matches DuckDB") {
    val m   = HybridData.twitterM(tw)
    val feats = HybridData.TweetFeatures ++ HybridData.UserFeatures
    val arms = feats.zipWithIndex.map { case (f, j) =>
      s"""SELECT CAST(t.t_id AS BIGINT) AS i, CAST($j AS BIGINT) AS j,
         |       CAST($f AS DOUBLE) AS v
         |FROM tweets t JOIN users u ON CAST(t.u_id AS BIGINT) = CAST(u.u_id AS BIGINT)
         |WHERE CAST($f AS DOUBLE) <> 0""".stripMargin
    }
    Oracle.assertEquivalent(m.df.select("i", "j", "v"), arms.mkString("\nUNION ALL\n"),
                            "tweets" -> tw.tweets, "users" -> tw.users)
  }

  test("RA stage: N (US ∧ kw tweet-hashtag incidence) matches DuckDB") {
    val n = HybridData.twitterN(tw, "covid")
    Oracle.assertEquivalent(
      n.df.select("i", "j", "v"),
      """SELECT CAST(e.t_id AS BIGINT) AS i, CAST(e.h_id AS BIGINT) AS j,
        |       CAST(e.filter_level AS DOUBLE) AS v
        |FROM entities e JOIN tweets t ON e.t_id = t.t_id
        |WHERE t.country_code = 'US' AND t.kw = 'covid'""".stripMargin,
      "entities" -> tw.entities, "tweets" -> tw.tweets)
  }

  test("Catalyst rule substitutes an exactly-matching optimized subtree") {
    val dir = java.nio.file.Files.createTempDirectory("vsub").toString + "/v2"
    ViewSubstitution.install(spark)
    ViewSubstitution.clear()
    ViewSubstitution.register(HybridData.usEntities(tw), dir)
    val before = ViewSubstitution.substitutions
    // Exact-match query: the view definition itself.
    val exact = HybridData.usEntities(tw).collect()
    assert(ViewSubstitution.substitutions > before, "rule did not fire on exact match")
    // Same rows as the raw computation (rule removed for the baseline).
    ViewSubstitution.clear()
    val baseline = HybridData.usEntities(tw).collect()
    assert(exact.map(_.toString).sorted.toSeq == baseline.map(_.toString).sorted.toSeq)
  }

  test("Catalyst rule fires under a union (no pushdown across the subtree)") {
    val dir = java.nio.file.Files.createTempDirectory("vsub2").toString + "/v2"
    ViewSubstitution.install(spark)
    ViewSubstitution.clear()
    ViewSubstitution.register(HybridData.usEntities(tw), dir)
    val before = ViewSubstitution.substitutions
    val q = HybridData.usEntities(tw).union(HybridData.usEntities(tw).limit(0))
    q.collect()
    assert(ViewSubstitution.substitutions > before)
    ViewSubstitution.clear()
  }

  /** Build a matrix as the executor reads it: its count, then its cells. */
  private def built(m: => COOMatrix): COOMatrix = { val x = m; x.nnz; x.local; x }

  private def sameCells(a: COOMatrix, b: COOMatrix): Boolean = a.local.entries == b.local.entries

  test("with V2 registered, M and N are each built by one Spark job and held locally") {
    val dir = java.nio.file.Files.createTempDirectory("vjobs").toString + "/v2"
    // Adaptive execution submits each shuffle stage as a job of its own;
    // the benchmark session runs without it, as this count does.
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    ViewSubstitution.install(spark)
    ViewSubstitution.clear()
    try {
      ViewSubstitution.register(HybridData.usEntities(tw), dir)
      val (m, mJobs) = jobsOf(built(HybridData.twitterM(tw)))
      val before     = ViewSubstitution.substitutions
      val (n, nJobs) = jobsOf(built(HybridData.twitterN(tw, "covid")))
      assert(ViewSubstitution.substitutions > before, "the rule did not fire when N was built")
      assert(mJobs == 1 && nJobs == 1, s"M: $mJobs jobs, N: $nJobs jobs")
      assert(m.isLocal && n.isLocal)
      ViewSubstitution.clear()
      assert(sameCells(n, HybridData.twitterN(tw, "covid")))
    } finally {
      ViewSubstitution.clear()
      spark.conf.set("spark.sql.adaptive.enabled", aqe)
    }
  }

  test("registering a view again at its path replaces the entry: no stale file listing") {
    val dir   = java.nio.file.Files.createTempDirectory("vreg").toString + "/v2"
    val other = HybridData.twitter(spark, nUsers = 50, nTweets = 200, nHashtags = 30, seed = 78)
    ViewSubstitution.install(spark)
    ViewSubstitution.clear()
    val (direct, directOther) = (HybridData.twitterN(tw, "covid"), HybridData.twitterN(other, "covid"))
    try {
      // The same definition twice: the second write replaces the first's files.
      ViewSubstitution.register(HybridData.usEntities(tw), dir)
      ViewSubstitution.register(HybridData.usEntities(tw), dir)
      val before = ViewSubstitution.substitutions
      assert(sameCells(HybridData.twitterN(tw, "covid"), direct))
      assert(ViewSubstitution.substitutions > before)
      // Another definition at the same path: its rows are substituted, and
      // the first definition is no longer read from the overwritten files.
      ViewSubstitution.register(HybridData.usEntities(other), dir)
      val hits = ViewSubstitution.substitutions
      assert(sameCells(HybridData.twitterN(other, "covid"), directOther))
      assert(ViewSubstitution.substitutions > hits)
      val after = ViewSubstitution.substitutions
      assert(sameCells(HybridData.twitterN(tw, "covid"), direct))
      assert(ViewSubstitution.substitutions == after)
    } finally ViewSubstitution.clear()
  }

  // ------------------------- Q1–Q10 LA rewriting (paper §9.2.2) -------------

  private val shape = HybridQueries.Shape(nT = 1500, h = 200)

  for ((q, original, paperRewrite) <- HybridQueries.queries) {
    test(s"$q: HADAD's rewriting is at least as good as the paper's") {
      val meta  = shape.meta(q)
      val views = HybridQueries.views(q)
      val r = Rewriter.rewrite(original, meta, views = views)
      val vMeta = meta // view metadata is already included in shape.meta
      val expectedCost = CostModel.gamma(paperRewrite, vMeta.get, NaiveEstimator).cost
      assert(r.bestCost <= expectedCost + 1e-6,
             s"found ${r.best.render} (γ=${r.bestCost}) vs paper " +
             s"${paperRewrite.render} (γ=$expectedCost)")

      // Numeric equivalence on small matrices; views computed from bodies.
      val env0 = TestEnvs.localEnv(meta - "V3" - "V4" - "V5", seed = 1300 + q.hashCode, spd = Set.empty)
      val env  = TestEnvs.withViews(env0, views)
      TestEnvs.assertEquivalent(original, r.best, env, q)
      TestEnvs.assertEquivalent(original, paperRewrite, env, s"$q (paper rewrite sanity)")
    }
  }

  test("Q1/Q9: the views actually appear in the found rewriting") {
    for (q <- Seq("Q1", "Q9")) {
      val (original, _) = HybridQueries.byId(q)
      val r = Rewriter.rewrite(original, shape.meta(q), views = HybridQueries.views(q))
      assert(r.best.render.contains("V"), s"$q: ${r.best.render}")
    }
  }

  test("MIMIC-lite RA stage matches DuckDB") {
    val mi = HybridData.mimic(spark, nPatients = 100, nServices = 20)
    val n  = HybridData.mimicN(mi, "CCU")
    Oracle.assertEquivalent(
      n.df.select("i", "j", "v"),
      """SELECT CAST(c.p_id AS BIGINT) AS i, CAST(c.s_id AS BIGINT) AS j,
        |       CAST(c.outcome AS DOUBLE) AS v
        |FROM callout c JOIN services s ON c.s_id = s.s_id
        |WHERE c.careunit = 'CCU'""".stripMargin,
      "callout" -> mi.callout, "services" -> mi.services)
    val m = HybridData.mimicM(mi)
    assert(m.rows == 100 && m.cols == 12)
    assert(m.nnz > 0)
  }
}
