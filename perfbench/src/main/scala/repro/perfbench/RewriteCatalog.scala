package repro.perfbench

import breeze.linalg.DenseMatrix
import repro.bench.{Pipelines, Tables}
import repro.core._
import repro.core.Rewriter.{Config, View}
import repro.matrix.LocalExec
import repro.matrix.LocalExec.{LMat, LSca, LVal}

/** The paper's RW_find study: all 57 pipelines of Tables 2–3 × {naive, MNC}
  * × {no views, V_exp} at `Tables.b3MetaFor` dims, with no SparkSession.
  * Only the rewrite is timed. Every chosen plan is evaluated against the
  * original on the Breeze oracle at shrunken dims after the timed loop.
  */
final class RewriteCatalog extends Workload {
  import RewriteCatalog.Req
  val name      = "rewrite-catalog"
  val usesSpark = false

  private val estimators: Seq[(String, () => Estimator)] =
    Seq("naive" -> (() => NaiveEstimator), "mnc" -> (() => new MNCEstimator))

  private val reqs: Map[String, Req] = (for {
    (id, e)       <- Pipelines.all
    (en, est)     <- estimators
    (vn, views)   <- Seq("none" -> Nil, "vexp" -> Pipelines.vexp)
  } yield Req(s"$id/$en/$vn", e, Tables.b3MetaFor(id), views, Config(estimator = est)))
    .map(r => r.key -> r).toMap

  val keys: IndexedSeq[String] = reqs.keys.toVector.sorted

  def setup(tr: Tracer): Unit = ()

  def answer(key: String, seq: Int, tr: Tracer, check: Boolean): Sample = reqs(key).answer(seq, tr)

  override def postCheck(chosenPlans: Map[String, Expr], tr: Tracer): Map[String, Checked] =
    RewriteCatalog.oracle(keys.map(reqs), chosenPlans, tr)
}

object RewriteCatalog {

  /** A rewrite-only request: the rewrite is the whole answer. */
  final case class Req(key: String, expr: Expr, meta: Map[String, Meta], views: Seq[View],
                       cfg: Config) {
    val costMeta: Map[String, Meta] = Rewrite.withViewMeta(meta, views, cfg)

    def answer(seq: Int, tr: Tracer): Sample = {
      val t0  = System.nanoTime()
      val out = tr.request(seq)(Rewrite.run(tr, expr, meta, views, cfg))
      val ms  = (System.nanoTime() - t0) / 1e6
      Sample(key, seq, tr.enabled, ms, ms, Double.NaN, Double.NaN, out.result.chosen,
             RewriteRecord.of(out, costMeta, cfg), None, out.encodeFacts, out.mncDerivations, 0L, None)
    }
  }

  /** Oracle check: original vs chosen on small random inputs (every distinct
    * dimension d becomes max(2, d/50), as the repository's tests do).
    */
  def oracle(reqs: Seq[Req], chosenPlans: Map[String, Expr], tr: Tracer): Map[String, Checked] = {
    val envs = scala.collection.mutable.HashMap[Map[String, Meta], LocalExec.Env]()
    (for (q <- reqs; chosen <- chosenPlans.get(q.key)) yield {
      val env  = envs.getOrElseUpdate(q.meta, localEnv(q.meta))
      val venv = q.views.foldLeft(env)((e, v) => e + (v.name -> LocalExec.eval(v.body, e)))
      tr.span("check") {
        val t0 = System.nanoTime()
        val vo = tr.span("exec.orig")(LocalExec.eval(q.expr, venv))
        val t1 = System.nanoTime()
        val vc = tr.span("exec.chosen")(LocalExec.eval(chosen, venv))
        val t2 = System.nanoTime()
        val scale = vo match {
          case LSca(x) => math.max(1.0, math.abs(x))
          case LMat(m) => math.max(1.0, breeze.linalg.max(breeze.numerics.abs(m)))
        }
        val d = LocalExec.maxDiff(vo, vc)
        val failure =
          if (d / scale < 1e-6) None
          else Some(s"${q.key}: '${q.expr.render}' vs '${chosen.render}' differ by $d on the oracle")
        val cells = Cells(RewriteCatalog.cells(q.expr, venv), RewriteCatalog.cells(chosen, venv),
                          internal(chosen).size)
        q.key -> Checked(Some(cells), (t1 - t0) / 1e6, (t2 - t1) / 1e6, failure)
      }
    }).toMap
  }

  def smallDim(d: Long): Int = if (d <= 1) 1 else math.max(2, (d / 50).toInt)

  /** Deterministic local inputs for `meta` at shrunken dims; C and D are
    * symmetric positive definite so inverses and Cholesky are well posed.
    */
  def localEnv(meta: Map[String, Meta], seed: Long = 11): LocalExec.Env = {
    val mats = meta.map { case (n, m) =>
      val (r, c) = (smallDim(m.rows), smallDim(m.cols))
      val v =
        if (Set("C", "D")(n) && r == c) LocalExec.randSPD(r, seed + n.hashCode)
        else if (m.sparsity < 0.5) LocalExec.randSparse(r, c, 0.4, seed + n.hashCode)
        else LocalExec.rand(r, c, seed + n.hashCode)
      n -> (LMat(v): LVal)
    }
    mats ++ Map("s1" -> LSca(1.7), "s2" -> LSca(2.3))
  }

  /** Operator nodes of a plan (leaves excluded). */
  def internal(e: Expr): Seq[Expr] = e match {
    case Mat(_) | Sca(_) | Lit(_) => Nil
    case _                        => e +: e.children.flatMap(internal)
  }

  /** Σ over operator nodes of the non-zeros of their output (1 per scalar). */
  def cells(e: Expr, env: LocalExec.Env): Long =
    internal(e).map(x => LocalExec.eval(x, env) match {
      case LSca(_) => 1L
      case LMat(m) => nnz(m)
    }).sum

  private def nnz(m: DenseMatrix[Double]): Long = m.valuesIterator.count(_ != 0.0).toLong
}
