package repro.core

/** HADAD end-to-end (paper Figure 1): encode the expression and views over
  * VREM, chase with `MMC ∪ C_V` under Prune_prov, extract the minimum-cost
  * relational rewriting, decode it back to an LA/hybrid expression.
  */
object Rewriter {

  /** A materialized view: stored name + defining expression. */
  final case class View(name: String, body: Expr)

  final case class Config(
      estimator: () => Estimator          = () => NaiveEstimator,
      constraints: Seq[Constraint]        = Catalog.all,
      /** Matrix name → type tag ("S" symmetric-PD, "L", "U", "O"). */
      types: Map[String, String]          = Map.empty,
      /** Morpheus declarations: (M, S, K, R) with M = cbind(S, K·R). */
      norms: Seq[(String, String, String, String)] = Nil,
  ) {
    /** The chase's budgets: rounds, facts, and wall clock. Past the deadline
      * the rewriter extracts from whatever has been derived so far (still
      * sound — only completeness degrades).
      */
    val maxRounds: Int       = 4
    val maxFacts: Int        = 5000
    val deadlineMillis: Long = 15000
  }

  final case class Result(
      original: Expr,
      best: Expr,
      originalCost: Double,
      bestCost: Double,
      findMillis: Double,
      stats: Chase.Stats,
  ) {
    /** What HADAD hands to the engine: the cheapest plan found, which is the
      * original when nothing cheaper was found.
      */
    def chosen: Expr = best
  }

  /** Rewrite `e` given base-matrix metadata and materialized views. */
  def rewrite(e: Expr, baseMeta: Map[String, Meta], views: Seq[View] = Nil,
              cfg: Config = Config()): Result = {
    val t0  = System.nanoTime()
    val est = cfg.estimator()
    val metaOf: String => Option[Meta] = baseMeta.get

    // Threshold for Prune_prov: γ of the expression as stated.
    val originalCost = CostModel.gamma(e, metaOf, est).cost

    val inst = new Instance(est)
    views.foreach(v => Encoder.encodeView(inst, v.name, v.body, metaOf))
    val target = Encoder.encode(inst, e, metaOf)

    // Declared matrix types (e.g. symmetric-positive-definite) and Morpheus
    // normalized-matrix declarations.
    for ((n, t) <- cfg.types; cls <- inst.classOfName(n))
      inst.addFact("type", Vector(cls, inst.const(t)))
    for ((m, s, k, r) <- cfg.norms) {
      val ids = Seq(m, s, k, r).map(n => Encoder.leafMat(inst, n, metaOf))
      inst.addFact("norm", ids.toVector)
    }

    val stats = Chase.run(inst, cfg.constraints, cfg.maxRounds, cfg.maxFacts,
                          threshold = originalCost, deadlineMillis = cfg.deadlineMillis)

    val best = Extract.extract(inst, target)
      .getOrElse(sys.error(s"extraction failed for ${e.render}"))
    val ms = (System.nanoTime() - t0) / 1e6
    Result(e, best.expr, originalCost, best.cost, ms, stats)
  }
}
