package repro.core

/** γ(E) over the AST (paper §7.1): the sum of estimated intermediate-result
  * sizes when E is evaluated *as stated*, in syntactic order. Monotonic by
  * construction (an expression's cost includes all sub-expression costs),
  * which is what the soundness/completeness theorems of §8 require.
  */
object CostModel {

  final case class Costed(cost: Double, meta: Meta)

  /** Cost an expression; `metaOf` supplies base-matrix metadata. Throws if a
    * leaf's metadata is unknown.
    */
  def gamma(e: Expr, metaOf: String => Option[Meta], est: Estimator): Costed = {
    def rec(x: Expr): Costed = x match {
      case Mat(n) =>
        Costed(0.0, est.prepare(metaOf(n).getOrElse(sys.error(s"no metadata for matrix '$n'"))))
      case Sca(_) | Lit(_) => Costed(0.0, Meta.scalar)
      case n: Node =>
        val kids = n.children.map(rec)
        val m = n.ctor.derive(est, kids.map(k => Some(k.meta)).toVector).get
        Costed(kids.map(_.cost).sum + m.nnz, m)
    }
    rec(e)
  }
}
