package repro.core

import scala.collection.mutable

/** Minimum-cost decoding of a saturated instance (paper §5 `dec`, §7.3).
  *
  * Constructor facts are candidate plan nodes for their result class;
  * leaf facts ([[VREM.leaves]]) are free leaves (base inputs and materialized
  * views — a view scan costs nothing, like a base-matrix scan). A
  * Bellman-Ford-style fixpoint computes, per class,
  * `cost = min over nodes (nnz(class) + Σ cost(child))` — γ(E) = sum of
  * intermediate-result sizes, exactly the paper's cost model. Ties break
  * toward smaller ASTs for deterministic, minimal output (the paper's
  * "minimal rewritings").
  */
object Extract {

  final case class Best(expr: Expr, cost: Double)

  private final case class ENode(rel: String, result: Int, children: Vector[Int])

  def extract(inst: Instance, target: Int): Option[Best] = {
    val leaves = mutable.HashMap[Int, Expr]()
    def noteLeaf(cls: Int, e: Expr): Unit =
      leaves.get(cls) match {
        // Prefer the lexicographically-smallest name for determinism.
        case Some(old) if old.render <= e.render =>
        case _                                   => leaves(cls) = e
      }
    for ((rel, build) <- VREM.leaves; f <- inst.facts(rel); n <- inst.constOf(f(1)))
      noteLeaf(inst.find(f(0)), build(n))

    val nodes = mutable.ArrayBuffer[ENode]()
    for ((rel, c) <- VREM.ctors; f <- inst.facts(rel))
      nodes += ENode(rel, inst.find(f(c.resultPos)), c.childPos.map(p => inst.find(f(p))))

    // (cost, astSize) per class, lexicographic order.
    val cost   = mutable.HashMap[Int, (Double, Int)]()
    val choice = mutable.HashMap[Int, ENode]()
    leaves.keys.foreach(cls => cost(cls) = (0.0, 0))

    def outNnz(cls: Int): Double = inst.meta(cls).map(_.nnz).getOrElse(Double.PositiveInfinity)

    var changed = true
    var guard   = 0
    while (changed && guard < 10000) {
      changed = false; guard += 1
      for (n <- nodes) {
        val childCosts = n.children.map(cost.get)
        if (childCosts.forall(_.isDefined)) {
          val cs   = childCosts.map(_.get)
          val cand = (outNnz(n.result) + cs.map(_._1).sum, 1 + cs.map(_._2).sum)
          val cur  = cost.get(n.result)
          val better = cur match {
            case None           => cand._1 < Double.PositiveInfinity
            case Some((cc, sz)) => cand._1 < cc - 1e-9 ||
                                   (math.abs(cand._1 - cc) <= 1e-9 && cand._2 < sz)
          }
          if (better) { cost(n.result) = cand; choice(n.result) = n; changed = true }
        }
      }
    }

    val t = inst.find(target)
    cost.get(t).map { case (c, _) =>
      Best(decode(inst, t, leaves, cost, choice, Set.empty), c)
    }
  }

  private def decode(inst: Instance, cls: Int,
                     leaves: mutable.HashMap[Int, Expr],
                     cost: mutable.HashMap[Int, (Double, Int)],
                     choice: mutable.HashMap[Int, ENode],
                     path: Set[Int]): Expr = {
    (leaves.get(cls), choice.get(cls)) match {
      case (Some(l), _) if cost(cls)._1 == 0.0 => l
      case (_, Some(n)) =>
        require(!path(cls), s"cyclic argmin decode at class $cls")
        val kids = n.children.map(decode(inst, _, leaves, cost, choice, path + cls))
        VREM.ctors(n.rel).build(kids)
      case (Some(l), None) => l
      case (None, None)    => sys.error(s"no decodable derivation for class $cls")
    }
  }
}
