package repro.core

import scala.collection.mutable

import breeze.linalg.DenseMatrix
import org.scalatest.funsuite.AnyFunSuite
import repro.matrix.LocalExec
import repro.matrix.LocalExec.{LMat, LSca, LVal}
import Constraints.tgd

/** Every TGD and EGD of the default catalog holds numerically. The
  * premise's input variables are bound to random values: a scalar where an
  * operator reads one, a 1×n, n×1 or 1×1 matrix where a `size` atom pins
  * "1", otherwise a 4×4 SPD matrix; `Identity(I)` binds the identity and
  * `norm(M,S,K,R)` binds `M := cbind(S, K·R)`. Each constructor atom of the
  * premise and then of the conclusion is evaluated through `LocalExec`, its
  * result binding the variable (an existential, when first seen) or
  * checked against the value it already has.
  */
class CatalogSoundSpec extends AnyFunSuite {

  private final class Violation(msg: String) extends Exception(msg)

  private val n = 4

  /** Does argument `p` of `rel` hold a scalar? */
  private def scalarArg(rel: String, p: Int): Boolean = rel match {
    case "multi_MS"                    => p == 0
    case "add_S" | "multi_S" | "inv_S" => true
    case _                             => false
  }

  /** Why `c` fails on the inputs drawn from `seed`, or None if it holds. */
  def violation(c: Constraint, seed: Long = 1): Option[String] = {
    val (premise, conclusion) = c match {
      case t: TGD => (t.premise, t.conclusion)
      case e: EGD => (e.premise, Vector.empty[PatAtom])
    }
    val rnd = new scala.util.Random(seed)
    val v   = mutable.Map[String, LVal]()
    def bad(msg: String): Nothing = throw new Violation(msg)
    def isCtor(a: PatAtom): Boolean = VREM.ctors.contains(a.rel)

    def scale(x: LVal): Double = x.fold(math.abs, m => breeze.linalg.max(breeze.numerics.abs(m)))
    def agree(x: LVal, y: LVal): Boolean = {
      val (a, b) = (LocalExec.asMat(x), LocalExec.asMat(y))
      a.rows == b.rows && a.cols == b.cols && LocalExec.maxDiff(x, y) <= 1e-6 * math.max(1.0, scale(x))
    }
    def bind(x: String, value: LVal, at: PatAtom): Unit = v.get(x) match {
      case None                            => v(x) = value
      case Some(old) if !agree(old, value) => bad(s"$x disagrees at $at: $old vs $value")
      case _                               =>
    }
    def eval(e: Expr): LVal = LocalExec.eval(e, v.toMap)

    // Inputs.
    def dim(a: String): Int = if (a == "\"1\"") 1 else n
    def randMat(x: String): LVal = {
      val (r, k) = premise.collectFirst {
        case PatAtom("size", Vector(`x`, r, k)) => (dim(r), dim(k))
      }.getOrElse((n, n))
      LMat(if (r == n && k == n) LocalExec.randSPD(n, rnd.nextLong())
           else LocalExec.rand(r, k, rnd.nextLong()))
    }
    def norm(a: PatAtom): Unit = {
      val Vector(m, s, k, r) = a.args
      bind(m, eval(CBind(Mat(s), Mul(Mat(k), Mat(r)))), a)
    }
    premise.foreach {
      case a @ PatAtom("Identity", Vector(i)) => bind(i, LMat(DenseMatrix.eye[Double](n)), a)
      case a @ PatAtom("norm", args) =>
        args.tail.foreach(x => v.getOrElseUpdate(x, randMat(x)))
        norm(a)
      case _ =>
    }
    val results = premise.filter(isCtor).map(_.args.last).toSet
    val dims    = premise.filter(_.rel == "size").flatMap(_.args.tail).toSet
    for (a <- premise; (x, p) <- a.args.zipWithIndex
         if !x.startsWith("\"") && !results(x) && !dims(x) && !v.contains(x))
      v(x) = if (scalarArg(a.rel, p)) LSca(0.5 + rnd.nextDouble()) else randMat(x)

    def check(a: PatAtom): Unit = a match {
      case _ if isCtor(a) =>
      case PatAtom("norm", _) => norm(a)
      case PatAtom("size", Vector(x, r, k)) =>
        val m = LocalExec.asMat(v(x))
        for ((d, len) <- Seq(r -> m.rows, k -> m.cols))
          if (d.startsWith("\"")) { if (d != s"\"$len\"") bad(s"$a: $x is ${m.rows}x${m.cols}") }
          else bind(d, LSca(len.toDouble), a)
      case PatAtom("Identity", Vector(x)) =>
        val m = LocalExec.asMat(v(x))
        if (m.rows != m.cols || !agree(LMat(DenseMatrix.eye[Double](m.rows)), LMat(m))) bad(s"$a: $m")
      case PatAtom("type", Vector(x, "\"S\"")) =>
        val m = LocalExec.asMat(v(x))
        if (!agree(LMat(m), LMat(m.t.copy))) bad(s"$a: $m")
      case PatAtom("type", Vector(x, "\"L\"")) =>
        val m = LocalExec.asMat(v(x))
        if ((0 until m.rows).exists(i => (i + 1 until m.cols).exists(j => math.abs(m(i, j)) > 1e-9)))
          bad(s"$a: $m")
      case _ => bad(s"no evaluator for $a")
    }

    /** Evaluate the constructor atoms once their inputs are bound, then
      * check the other atoms.
      */
    def run(atoms: Vector[PatAtom]): Unit = {
      var todo = atoms.filter(isCtor)
      while (todo.nonEmpty) {
        val (ready, rest) = todo.partition(_.args.init.forall(v.contains))
        if (ready.isEmpty) bad(s"cannot evaluate ${rest.mkString(", ")}")
        ready.foreach(a => bind(a.args.last, eval(VREM.ctors(a.rel).build(a.args.init.map(Mat(_)))), a))
        todo = rest
      }
      atoms.foreach(check)
    }

    try {
      run(premise)
      run(conclusion)
      c match {
        case e: EGD if !agree(v(e.left), v(e.right)) => bad(s"${e.left}=${e.right}: ${v(e.left)} vs ${v(e.right)}")
        case _                                       =>
      }
      None
    } catch { case x: Violation => Some(x.getMessage) }
  }

  for (c <- Catalog.all) test(s"${c.name} holds on random inputs") {
    for (seed <- 1L to 3L) {
      val why = violation(c, seed)
      assert(why.isEmpty, s"seed $seed: ${why.getOrElse("")}")
    }
  }

  test("a tr-mul whose conclusion keeps the operand order fails") {
    val wrong = tgd("tr-mul")("multi_M(M,N,R1)", "tr(R1,R2)")(
        "tr(M,R3)", "tr(N,R4)", "multi_M(R3,R4,R2)")
    assert(violation(wrong).exists(_.contains("R2")))
  }
}
