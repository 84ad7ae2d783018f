package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.Rewriter.Config
import repro.matrix.{Exec, Ops}

/** Deterministic fields of one answered request: the same request must give
  * the same values on every repetition, run and seed.
  */
final case class RewriteRecord(best: String, gammaOrig: Double, gammaBest: Double, gammaChosen: Double,
                     reportedBest: Double, rounds: Int, facts: Int, merges: Int, pruned: Int,
                     budgetHit: Boolean, deadlineHit: Boolean) {
  def improved: Boolean     = gammaChosen < gammaOrig - 1e-9
  def costMismatch: Boolean = math.abs(reportedBest - gammaBest) > 1e-6 * math.max(1.0, gammaBest)
  def costlier: Boolean     = gammaChosen > gammaOrig * (1 + 1e-9) + 1e-9
}

object RewriteRecord {
  def of(out: Rewrite.Out, costMeta: Map[String, Meta], cfg: Config): RewriteRecord = {
    val r = out.result
    RewriteRecord(r.best.render, r.originalCost, Rewrite.gamma(r.best, costMeta, cfg),
        Rewrite.gamma(r.chosen, costMeta, cfg), r.bestCost, r.stats.rounds, r.stats.facts,
        r.stats.merges, r.stats.prunedSteps, r.stats.hitFactBudget, r.stats.hitDeadline)
  }
}

/** Materialized cells (non-zeros of every operator output) of the original
  * (-1 when the original did not run) and the chosen plan, and the chosen
  * plan's operator count.
  */
final case class Cells(orig: Long, chosen: Long, chosenSteps: Int)

/** Outcome of executing one request's original and chosen plan outside the
  * timed loop; cells and times are left out (None, NaN) when they are not
  * those of the workload's executor.
  */
final case class Checked(cells: Option[Cells], origMs: Double, chosenMs: Double,
                         failure: Option[String])

/** One timed request.
  *
  * @param rwMs     `Rewriter.rewrite` wall time
  * @param answerMs time to answer through HADAD (rewrite + what the chosen
  *                 plan needs to run; equal to `rwMs` when nothing runs)
  * @param origMs   execution of the original plan, NaN when it did not run
  * @param chosenMs execution of the chosen plan, NaN when none runs
  * @param cells    None when the plans are not executed in the timed loop
  * @param failure  why the answer is wrong, if it is
  * @param checkMs  time spent checking the answer's value, after the answer
  * @param answered false for a request that only rewrites next to the
  *                 workload's answers; it counts in the RW_find figures only
  */
final case class Sample(key: String, seq: Int, traced: Boolean, rwMs: Double,
                        answerMs: Double, origMs: Double, chosenMs: Double,
                        chosen: Expr, rec: RewriteRecord, cells: Option[Cells], encodeFacts: Int,
                        mncDerivations: Long, vsubHits: Long, failure: Option[String],
                        checkMs: Double = 0.0, answered: Boolean = true)

/** A named request set driven in a closed loop with one client. */
trait Workload {
  def name: String

  def usesSpark: Boolean

  /** Request keys of one pass; every pass answers each once (a key listed
    * k times, k times), in a seeded order, so the set of answers does not
    * depend on the seed.
    */
  def keys: IndexedSeq[String]


  /** One set-up round: inputs and views, built from scratch. */
  def setup(tr: Tracer): Unit

  /** Answer one request, timing only the answer path. With `check`, the
    * original also runs, after the timed part, and the two values are
    * compared; the result goes to `Sample.failure`. The runner checks the
    * first answer to every key; later answers must repeat its plan and cells.
    */
  def answer(key: String, seq: Int, tr: Tracer, check: Boolean): Sample

  /** Checks run once per distinct request after the timed loop, for
    * workloads whose timed loop executes no plan.
    */
  def postCheck(chosen: Map[String, Expr], tr: Tracer): Map[String, Checked] = Map.empty

  def close(): Unit = ()
}

object Workload {
  /** A result's sum of all cells, which `Harness` compares between plans. */
  def summary(r: Exec.Result): Double = r.value match {
    case Exec.ScaV(v) => v
    case Exec.MatV(m) => Ops.sumAll(m)
  }

  def sanity(id: String, a: Double, b: Double): Option[String] =
    if (a.isNaN || a.isInfinite)
      if (b.isNaN || b.isInfinite || math.abs(b) > 1e100) None
      else Some(s"$id: original overflowed but the rewrite did not: $a vs $b")
    else if (math.abs(a - b) / math.max(1.0, math.abs(a)) < 1e-6) None
    else Some(s"$id: original and rewrite disagree: $a vs $b")

  def byName(name: String, spark: => SparkSession, outDir: String): Workload = name match {
    case "rewrite-catalog" => new RewriteCatalog
    case "hybrid-twitter"  => new HybridTwitter(spark, outDir)
    case other             => sys.error(s"unknown workload '$other'")
  }
}
