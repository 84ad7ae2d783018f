package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.bench.Harness
import repro.core.Expr
import repro.core.Rewriter.Config
import repro.hybrid.{HybridData, HybridQueries, ViewSubstitution}
import repro.matrix.{COOMatrix, Exec, Gen}

/** B7's Twitter-lite hybrid queries. A pass holds two kinds of request.
  *
  * An answer is (query, keyword), answered HADAD's way: rewrite, build M and
  * N, where the Catalyst view rule reads N's US-entities part from the
  * materialized RA view V2, materialize the LA views, and run the chosen
  * plan. The first answer to a request also runs the original route (M and
  * N from the base tables, LA part as stated) and compares the values. Each
  * answered query is paired with one keyword so that a pass covers the three
  * keyword selectivities.
  *
  * A rewrite is RW_find alone for one of Q1–Q10, each `RewriteReps` times
  * per pass; its plan is checked on the Breeze oracle after the timed loop.
  * An answer rewrites once and costs about as much as a hundred rewrites, so
  * the run's RW_find figures come from these instead, and weigh the ten
  * queries alike. The seed orders a pass.
  */
final class HybridTwitter(spark: SparkSession, outDir: String) extends Workload {
  val name      = "hybrid-twitter"
  val usesSpark = true

  private val nT = HybridTwitter.Tweets
  private val h  = HybridTwitter.Hashtags
  private val shape   = HybridQueries.Shape(nT, h)
  private val queries = HybridTwitter.Requests.map(_._1).distinct

  private val cfg = Config()
  private val rewrites: Map[String, RewriteCatalog.Req] =
    HybridQueries.queries.map { case (q, e, _) =>
      s"$q/rw" -> RewriteCatalog.Req(s"$q/rw", e, shape.meta(q), HybridQueries.views(q), cfg)
    }.toMap

  val keys: IndexedSeq[String] =
    HybridTwitter.Requests.map { case (q, kw) => s"$q/$kw" } ++
      Vector.fill(HybridTwitter.RewriteReps)(rewrites.keys.toVector.sorted).flatten

  private var tw: HybridData.Twitter = _
  private var extras: Map[String, Exec.Env] = Map.empty
  private val cached = scala.collection.mutable.ArrayBuffer[COOMatrix]()
  private var round = 0

  def setup(tr: Tracer): Unit = {
    close()
    round += 1
    tw = HybridData.twitter(spark, nUsers = nT / 4, nTweets = nT, nHashtags = h)
    Seq(tw.tweets, tw.users, tw.entities).foreach { df => df.cache(); df.count() }
    ViewSubstitution.install(spark)
    ViewSubstitution.clear()
    tr.span("views.register") {
      ViewSubstitution.register(HybridData.usEntities(tw), s"$outDir/v2-round$round")
    }
    // The queries' synthetic extras (X, C, u, v), generated as B7 does.
    extras = queries.map { q =>
      val meta = shape.meta(q)
      q -> (meta.keySet -- Set("M", "N", "V3", "V4", "V5")).map { n =>
        val mm = meta(n)
        n -> (Exec.MatV(keep(Gen.dense(spark, mm.rows, mm.cols, seed = 500 + n.hashCode))): Exec.EVal)
      }.toMap
    }.toMap
  }

  private def keep(m: COOMatrix): COOMatrix = {
    m.df.persist(StorageLevel.MEMORY_AND_DISK); m.nnz; cached += m; m
  }

  // LA-stage environment: B7 keeps filter level <= 4 of N.
  private def laEnv(q: String, n: COOMatrix, m: COOMatrix): Exec.Env =
    extras(q) + ("M" -> Exec.MatV(m)) +
      ("N" -> Exec.MatV(COOMatrix(n.df.filter("v <= 4"), n.rows, n.cols)))

  def answer(key: String, seq: Int, tr: Tracer, check: Boolean): Sample =
    rewrites.get(key) match {
      case Some(r) => r.answer(seq, tr).copy(answered = false)
      case None    => answerQuery(key, seq, tr, check)
    }

  /** Rewrite-only requests are checked on the oracle. Its cells and times
    * are left out, so the cells and `exec` figures stay those of Spark.
    */
  override def postCheck(chosenPlans: Map[String, Expr], tr: Tracer): Map[String, Checked] =
    RewriteCatalog.oracle(rewrites.values.toSeq, chosenPlans, new Tracer(false)).map {
      case (k, c) => k -> Checked(None, Double.NaN, Double.NaN, c.failure)
    }

  private def answerQuery(key: String, seq: Int, tr: Tracer, check: Boolean): Sample = {
    val Array(q, kw) = key.split('/')
    val (original, _) = HybridQueries.byId(q)
    val meta  = shape.meta(q)
    val views = HybridQueries.views(q)
    val local = scala.collection.mutable.ArrayBuffer[COOMatrix]()
    def mat(m: COOMatrix): COOMatrix = {
      m.df.persist(StorageLevel.MEMORY_AND_DISK); m.nnz; local += m; m
    }
    try {
      val hits0 = ViewSubstitution.substitutions
      // HADAD's answer: rewrite (it needs only metadata), then build M and
      // N, materialize the LA views, and run the chosen plan.
      val (out, rw, answerMs) = Spark.group(spark, s"r$seq") {
        tr.request(seq) {
          val t0  = System.nanoTime()
          val out = Rewrite.run(tr, original, meta, views, cfg)
          // The Catalyst rule replaces N's US-entities subtree by a scan of V2.
          val (mR, nR) = tr.span("ra.build") {
            (mat(HybridData.twitterM(tw)), mat(HybridData.twitterN(tw, kw)))
          }
          val envR = tr.span("views") {
            val (e, _) = Harness.withViews(laEnv(q, nR, mR), views, meta)
            e.map {
              case (n, Exec.MatV(m)) if views.exists(_.name == n) => n -> (Exec.MatV(mat(m)): Exec.EVal)
              case other => other
            }
          }
          val rw = tr.span("exec.chosen")(Exec.run(out.result.chosen, envR))
          (out, rw, (System.nanoTime() - t0) / 1e6)
        }
      }
      val hits = ViewSubstitution.substitutions - hits0
      // Original, on the checked answer only: full RA build with the view
      // rule off, then the LA part as stated, compared with HADAD's answer.
      // HADAD's inputs are dropped first so the original cannot reuse them.
      val c0 = System.nanoTime()
      val (origMs, origCells, failure) =
        if (!check) (Double.NaN, -1L, None)
        else Spark.group(spark, "check") {
          val answered = Workload.summary(rw)
          local.foreach(_.df.unpersist(blocking = true))
          local.clear()
          val opt = spark.experimental.extraOptimizations
          spark.experimental.extraOptimizations = opt.filterNot(_ == ViewSubstitution)
          val envO =
            try laEnv(q, mat(HybridData.twitterN(tw, kw)), mat(HybridData.twitterM(tw)))
            finally spark.experimental.extraOptimizations = opt
          val orig = Exec.run(original, envO)
          (orig.wallMillis, orig.totalCells, Workload.sanity(key, Workload.summary(orig), answered))
        }
      val unsubstituted =
        if (hits > 0) None else Some(s"$key: the view rule did not replace N's US-entities part by V2")
      Sample(key, seq, tr.enabled, out.result.findMillis, answerMs, origMs, rw.wallMillis,
             out.result.chosen, RewriteRecord.of(out, meta, cfg),
             Some(Cells(origCells, rw.totalCells, rw.steps.size)),
             out.encodeFacts, out.mncDerivations, hits, (unsubstituted ++ failure).reduceOption(_ + "; " + _),
             (System.nanoTime() - c0) / 1e6)
    } finally local.foreach(_.df.unpersist(blocking = true))
  }

  override def close(): Unit = {
    cached.foreach(_.df.unpersist(blocking = true))
    cached.clear()
    if (tw != null) Seq(tw.tweets, tw.users, tw.entities).foreach(_.unpersist(blocking = true))
  }
}

object HybridTwitter {
  /** Tweets (rows of M and N) and hashtags (columns of N); B7 uses 1200/200. */
  val Tweets   = 240L
  val Hashtags = 40L

  /** Rewrite-only requests per query and pass. */
  val RewriteReps = 8

  /** One query per LA view (V3: Q1, V4: Q3, V5: Q10), each with one of
    * B7's keywords (N holds about 40%, 20% and 10% of US tweets).
    */
  val Requests: IndexedSeq[(String, String)] =
    Vector("Q1" -> "covid", "Q3" -> "trump", "Q10" -> "election")
}
