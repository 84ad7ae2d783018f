package repro.matrix

import repro.SparkSpec
import repro.core._
import repro.matrix.Exec.{EVal, MatV, ScaV}

/** The distributed as-stated executor agrees with the local dense executor
  * on whole pipelines, and its materialization stats reflect intermediate
  * sizes (the quantity HADAD optimizes).
  */
class ExecSpec extends SparkSpec {

  private lazy val envB: Map[String, breeze.linalg.DenseMatrix[Double]] = Map(
    "M" -> LocalExec.rand(24, 6, 1),
    "N" -> LocalExec.rand(6, 24, 2),
    "C" -> LocalExec.randSPD(8, 3),
    "D" -> LocalExec.randSPD(8, 4),
    "v" -> LocalExec.rand(6, 1, 5),
  )
  private lazy val envSpark: Exec.Env =
    envB.map { case (n, m) => n -> (MatV(COOMatrix.fromBreeze(spark, m)): EVal) } + ("s1" -> ScaV(1.7))
  private lazy val envLocal: LocalExec.Env =
    envB.map { case (n, m) => n -> (LocalExec.LMat(m): LocalExec.LVal) } + ("s1" -> LocalExec.LSca(1.7))

  /** Operator nodes of `e` in evaluation (post-)order. */
  private def nodes(e: Expr): Seq[Node] = e match {
    case n: Node => n.children.flatMap(nodes) :+ n
    case _       => Nil
  }

  private def check(e: Expr, tol: Double): Unit = {
    val run = Exec.run(e, envSpark)
    val exp = LocalExec.eval(e, envLocal)
    val d = (run.value, exp) match {
      case (ScaV(x), LocalExec.LSca(y)) => math.abs(x - y)
      case (MatV(m), lv)                =>
        breeze.linalg.max(breeze.numerics.abs(m.toBreeze() - LocalExec.asMat(lv)))
      case other                        => fail(s"value kind mismatch: $other")
    }
    assert(d < tol, s"${e.render}: diff $d")
    assert(run.steps.map(_.op) == nodes(e).map(_.rel), e.render)
  }

  private val (m, n, c, d, v) = (Mat("M"), Mat("N"), Mat("C"), Mat("D"), Mat("v"))
  private def tight(es: Expr*): Seq[(Expr, Double)] = es.map(_ -> 1e-8)

  /** Exec-vs-LocalExec agreement cases: name, then each pipeline with its tolerance. */
  private val agreement: Seq[(String, Seq[(Expr, Double)])] = Seq(
    "(MN)M as stated"               -> tight(Mul(Mul(m, n), m)),
    "M(NM) rewritten order"         -> tight(Mul(m, Mul(n, m))),
    "sum(MN)"                       -> tight(Sum(Mul(m, n))),
    "sum(t(colSums(M))*rowSums(N))" -> tight(Sum(Had(T(ColSums(m)), RowSums(n)))),
    "inv(C) inv(D) vs inv(DC)"      -> Seq(Mul(Inv(c), Inv(d)) -> 1e-6, Inv(Mul(d, c)) -> 1e-6),
    "trace and det pipelines"       ->
      Seq(SAdd(Trace(Inv(Mul(c, d))), Trace(d)) -> 1e-6, SMul(Det(c), Det(d)) -> 1e-3),
    "(A+B)v vs Av+Bv"               -> tight(Mul(Add(m, m), v), Add(Mul(m, v), Mul(m, v))),
    "element-wise sub, div and exp" -> tight(Sub(m, Had(m, m)), Div(m, Exp(m))),
    "scalar times matrix, scalar inverse" -> tight(ScaMul(SInv(Sum(m)), m)),
    "diag, cbind and cholesky"      -> tight(Diag(c), CBind(m, m), Cho(c)),
    // Both engines follow Eval's scalar rule. sum(v), not sum(M), keeps
    // exp's result small enough for an absolute tolerance.
    "scalar inputs to matrix operators" -> {
      val s = Sum(v)
      tight(T(s), Exp(s), Diag(s), RowSums(s), ColSums(s), Det(s), Trace(s), Cho(s),
            CBind(Sum(m), Sum(n)), ScaMul(Sca("s1"), Sum(m)))
    },
  )

  agreement.foreach { case (name, cases) => test(name)(cases.foreach((check _).tupled)) }

  test("agreement cases cover every VREM operator") {
    assert(agreement.flatMap(_._2).map(_._1).flatMap(nodes).map(_.rel).toSet == VREM.ctors.keySet)
  }

  test("Result.steps has one entry per operator node") {
    val r = Exec.run(SAdd(Sum(Mul(m, n)), Trace(c)), envSpark)
    assert(r.steps == Vector(Exec.Step("multi_M", 24 * 24), Exec.Step("sum", 1),
                             Exec.Step("trace", 1), Exec.Step("add_S", 1)))
  }

  test("materialization stats grow with intermediate size") {
    val asStated = Exec.run(Mul(Mul(m, n), m), envSpark)
    val rewritten = Exec.run(Mul(m, Mul(n, m)), envSpark)
    // (MN) is 24x24=576 cells; (NM) is 6x6=36 — the rewrite materializes less.
    assert(asStated.totalCells > rewritten.totalCells,
           s"${asStated.totalCells} vs ${rewritten.totalCells}")
  }

  test("scalar results surface through Result.scalar") {
    val r = Exec.run(Sum(m), envSpark)
    assert(math.abs(r.scalar - breeze.linalg.sum(envB("M"))) < 1e-8)
  }
}
