package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.Rewriter.View
import repro.matrix.{Exec, Gen}

/** Shared benchmark machinery: builds Spark environments from metadata,
  * runs a pipeline's original and HADAD-rewritten forms on the as-stated
  * executor, sanity-checks the two results against each other, and prints
  * paper-style table rows (B1–B5, B7 and B8). Every bench reports a
  * deterministic metric (total materialized cells — the quantity HADAD's
  * cost model predicts) next to wall time.
  */
object Harness {

  final case class Row(table: String, pipeline: String,
                       rewrite: String,
                       origCells: Long, rwCells: Long,
                       origMs: Double, rwMs: Double, rwFindMs: Double) {
    def cellSpeedup: Double = if (rwCells == 0) Double.PositiveInfinity
                              else origCells.toDouble / rwCells
    def wallSpeedup: Double = if (rwMs == 0) Double.PositiveInfinity else origMs / rwMs
    def overheadPct: Double = 100.0 * rwFindMs / (origMs + rwFindMs)
  }

  val header: String =
    f"${"pipeline"}%-12s ${"orig cells"}%12s ${"rw cells"}%12s ${"cellx"}%8s " +
    f"${"orig ms"}%9s ${"rw ms"}%9s ${"wallx"}%7s ${"find ms"}%8s  rewrite"

  def fmt(r: Row): String =
    f"${r.pipeline}%-12s ${r.origCells}%12d ${r.rwCells}%12d ${r.cellSpeedup}%8.1f " +
    f"${r.origMs}%9.0f ${r.rwMs}%9.0f ${r.wallSpeedup}%7.1f ${r.rwFindMs}%8.0f  ${r.rewrite}"

  def printTable(title: String, rows: Seq[Row]): Unit = {
    println(s"\n== $title ==")
    println(header)
    rows.foreach(r => println(fmt(r)))
  }

  /** Build a COO environment matching `meta` profiles, each leaf drawn in
    * driver memory by [[Gen]] from a seed of its name. Square C and D are
    * generated symmetric positive definite (so that
    * inverse/determinant/Cholesky pipelines are well-posed); matrices with
    * sparsity < 0.5 are generated sparse with exactly that nnz. Scalars s1
    * and s2 are 1.7 and 2.3.
    */
  def envFromMeta(spark: SparkSession, meta: Map[String, Meta]): Exec.Env = {
    val mats: Exec.Env = meta.map { case (n, m) =>
      val seed = 1234L + n.hashCode
      val v =
        if (Set("C", "D")(n) && m.rows == m.cols && m.rows <= 2000)
          Gen.spd(spark, m.rows.toInt, seed)
        else if (m.sparsity < 0.5) Gen.sparse(spark, m.rows, m.cols, m.nnz.toLong, seed)
        else Gen.dense(spark, m.rows, m.cols, seed)
      n -> (Exec.MatV(v): Exec.EVal)
    }
    mats + ("s1" -> Exec.ScaV(1.7)) + ("s2" -> Exec.ScaV(2.3))
  }

  /** Materialize views into the environment (computed once, like the paper's
    * pre-computed CSV views) and return the extended env + view metadata.
    */
  def withViews(env: Exec.Env, views: Seq[View],
                meta: Map[String, Meta]): (Exec.Env, Map[String, Meta]) = {
    var e = env
    var m = meta
    for (v <- views) {
      val value = Exec.run(v.body, e).value
      val vm    = CostModel.gamma(v.body, m.get, NaiveEstimator).meta
      e += (v.name -> value)
      m += (v.name -> vm)
    }
    (e, m)
  }

  /** Rough agreement check between the two executions (sum of all cells). */
  private def sanity(id: String, a: Exec.Result, b: Exec.Result): Unit = {
    val (x, y) = (summary(a), summary(b))
    if (x.isNaN || x.isInfinite)
      require(y.isNaN || y.isInfinite || math.abs(y) > 1e100,
              s"$id: original overflowed but rewrite did not: $x vs $y")
    else {
      val scale = math.max(1.0, math.abs(x))
      require(math.abs(x - y) / scale < 1e-6,
              s"$id: original and rewrite disagree: $x vs $y")
    }
  }

  /** The sum of a result's cells, computed where `Exec` places a sum. */
  private def summary(r: Exec.Result): Double =
    Exec.run(Sum(Mat("x")), Map("x" -> r.value)).scalar

  /** Run one pipeline: HADAD rewrite, then the original over `origEnv` and
    * the rewrite over `rwEnv`. Each route's time covers building its
    * environment and running it.
    */
  def run(table: String, id: String, e: Expr, meta: Map[String, Meta], views: Seq[View])(
          origEnv: => Exec.Env, rwEnv: => Exec.Env): Row = {
    val r = Rewriter.rewrite(e, meta, views)
    val (orig, origMs) = timed(Exec.run(e, origEnv))
    val (rw, rwMs)     = timed(Exec.run(r.chosen, rwEnv))
    sanity(id, orig, rw)
    Row(table, id, r.chosen.render, orig.totalCells, rw.totalCells, origMs, rwMs, r.findMillis)
  }

  private def timed[A](a: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val v  = a
    (v, (System.nanoTime() - t0) / 1e6)
  }
}
