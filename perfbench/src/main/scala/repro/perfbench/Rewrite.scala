package repro.perfbench

import repro.core._
import repro.core.Rewriter.{Config, View}

/** The rewriter as the benchmark drives it. Untraced runs call
  * `Rewriter.rewrite` itself. Traced runs call the same public layer
  * functions in the same order, one span per layer, and keep the counters
  * the layers expose; `Main` checks every traced result against the
  * untraced answer to the same request, so the composition cannot drift
  * from `Rewriter`.
  */
object Rewrite {

  /** A rewrite plus the counters only the traced composition can see. */
  final case class Out(result: Rewriter.Result, encodeFacts: Int, mncDerivations: Long)

  def run(tr: Tracer, e: Expr, meta: Map[String, Meta], views: Seq[View], cfg: Config): Out =
    if (!tr.enabled) Out(Rewriter.rewrite(e, meta, views, cfg), 0, 0L)
    else traced(tr, e, meta, views, cfg)

  private def traced(tr: Tracer, e: Expr, meta: Map[String, Meta], views: Seq[View],
                     cfg: Config): Out = {
    val t0     = System.nanoTime()
    val est    = cfg.estimator()
    val metaOf: String => Option[Meta] = meta.get
    val originalCost = tr.span("gamma")(CostModel.gamma(e, metaOf, est).cost)
    val inst   = new Instance(est)
    val target = tr.span("encode") {
      views.foreach(v => Encoder.encodeView(inst, v.name, v.body, metaOf))
      val t = Encoder.encode(inst, e, metaOf)
      for ((n, ty) <- cfg.types; cls <- inst.classOfName(n))
        inst.addFact("type", Vector(cls, inst.const(ty)))
      for ((m, s, k, r) <- cfg.norms) {
        val ids = Seq(m, s, k, r).map(n => Encoder.leafMat(inst, n, metaOf))
        inst.addFact("norm", ids.toVector)
      }
      t
    }
    val encodeFacts = inst.factCount
    val stats = tr.span("chase") {
      Chase.run(inst, cfg.constraints, cfg.maxRounds, cfg.maxFacts,
                threshold = originalCost, deadlineMillis = cfg.deadlineMillis)
    }
    val best = tr.span("extract") {
      Extract.extract(inst, target).getOrElse(sys.error(s"extraction failed for ${e.render}"))
    }
    val ms = (System.nanoTime() - t0) / 1e6
    val derivations = est match {
      case m: MNCEstimator => m.derivations
      case _               => 0L
    }
    Out(Rewriter.Result(e, best.expr, originalCost, best.cost, ms, stats), encodeFacts, derivations)
  }

  /** γ of `e` with a fresh estimator of the configured kind. */
  def gamma(e: Expr, meta: Map[String, Meta], cfg: Config): Double =
    CostModel.gamma(e, meta.get, cfg.estimator()).cost

  /** Base metadata extended with each view's metadata under `cfg`'s
    * estimator, so plans that read views can be costed.
    */
  def withViewMeta(meta: Map[String, Meta], views: Seq[View], cfg: Config): Map[String, Meta] =
    views.foldLeft(meta)((m, v) => m + (v.name -> CostModel.gamma(v.body, m.get, cfg.estimator()).meta))
}
