package repro.morpheus

import repro.SparkSpec
import repro.core._
import repro.matrix.{COOMatrix, Exec, Gen, Ops}
import repro.morpheus.NormalizedMatrix.{colSums, leftMul, materialized, rightMul, rowSums, sum}

/** Factorized Morpheus plans agree, run through `Exec`, with their
  * materialized equivalents, and the HADAD-enabled factorized forms
  * (colSums/rowSums/sum pushdown) agree with the multiplication-pushdown
  * forms they replace (§2, §9.2.1).
  */
class MorpheusSpec extends SparkSpec {

  private lazy val nm = NormalizedMatrix.synthetic(spark, nR = 40, dS = 5,
                                                   tupleRatio = 4, featureRatio = 2)
  private lazy val m  = mat(Exec.run(materialized, nm.env).value)

  /** `e` run by `Exec` over S, K, R, the materialized M, and `extra`. */
  private def run(e: Expr, extra: Exec.Env = Map.empty): Exec.EVal =
    Exec.run(e, nm.env ++ extra + ("M" -> Exec.MatV(m))).value
  private def bind(name: String, x: COOMatrix): Exec.Env = Map(name -> Exec.MatV(x))
  private def mat(v: Exec.EVal): COOMatrix = v.fold(x => fail(s"scalar $x"), identity)
  private def num(v: Exec.EVal): Double    = v.fold(identity, x => fail(s"matrix ${x.rows}x${x.cols}"))

  private def diff(a: Exec.EVal, b: Exec.EVal): Double = {
    val (x, y) = (mat(a), mat(b))
    assert(x.rows == y.rows && x.cols == y.cols, s"${x.rows}x${x.cols} vs ${y.rows}x${y.cols}")
    breeze.linalg.max(breeze.numerics.abs(x.local.values - y.local.values))
  }

  private val (mM, nN, xX) = (Mat("M"), Mat("N"), Mat("X"))

  test("synthetic PK-FK shapes: M = [S, K·R]") {
    assert(nm.rows == 160 && nm.cols == 15)
    assert(m.rows == 160 && m.cols == 15)
    // K is an indicator: exactly one 1 per row.
    assert(nm.k.nnz == nm.rows)
    assert(Ops.rowSums(nm.k).df.filter("v <> 1.0").count() == 0)
  }

  test("rightMul factorized == materialized M·N") {
    val n = Gen.dense(spark, nm.cols, 7, seed = 31)
    assert(diff(run(rightMul, nm.split(n)), run(Mul(mM, nN), bind("N", n))) < 1e-9)
  }

  test("leftMul factorized == materialized X·M") {
    val x = Gen.dense(spark, 6, nm.rows, seed = 32)
    assert(diff(run(leftMul(xX), bind("X", x)), run(Mul(xX, mM), bind("X", x))) < 1e-9)
  }

  test("colSums pushdown == colSums(materialized)") {
    assert(diff(run(colSums), run(ColSums(mM))) < 1e-9)
  }

  test("rowSums pushdown == rowSums(materialized)") {
    assert(diff(run(rowSums), run(RowSums(mM))) < 1e-9)
  }

  test("sum pushdown == sum(materialized)") {
    assert(math.abs(num(run(sum)) - num(run(Sum(mM)))) < 1e-8)
  }

  test("P1.12 both evaluation routes agree: colSums(MN) == colSums(M)N") {
    val n = Gen.dense(spark, nm.cols, 7, seed = 33)
    val viaMorpheus = run(ColSums(rightMul), nm.split(n)) // Morpheus alone
    val viaHadad    = run(Mul(colSums, nN), bind("N", n)) // HADAD + Morpheus
    assert(diff(viaMorpheus, viaHadad) < 1e-9)
  }

  test("P2.10 both routes agree: rowSums(XM) == X rowSums(M)") {
    val x = Gen.dense(spark, 6, nm.rows, seed = 34)
    assert(diff(run(RowSums(leftMul(xX)), bind("X", x)), run(Mul(xX, rowSums), bind("X", x))) < 1e-9)
  }

  test("P2.11 both routes agree: sum(N+M) == sum(N)+sum(M)") {
    val n = Gen.dense(spark, nm.rows, nm.cols, seed = 35)
    val asIs  = num(run(Sum(Add(nN, materialized)), bind("N", n))) // Morpheus: no factorization
    val hadad = num(run(SAdd(Sum(nN), sum), bind("N", n)))          // HADAD: distribute, push sum
    assert(math.abs(asIs - hadad) < 1e-7 * math.abs(asIs))
  }

  test("P2.15 both routes agree: sum(rowSums(M)) == sum(M)") {
    assert(math.abs(num(run(Sum(rowSums))) - num(run(sum))) < 1e-8)
  }

  test("HADAD reaches base-table views only via LA + Morpheus rules jointly") {
    // The paper's hybrid views (§9.2.2): V4 stores the colSums pushdown over
    // the *base tables* cbind(colSums(TF), colSums(K)·UF). Rewriting
    // colSums(M·N) to V4·N requires colSums(MN)=colSums(M)N (SystemML rule),
    // the norm declaration M = cbind(TF, K·UF), the cbind distribution rules
    // (Morpheus), and colSums(K·UF)=colSums(K)·UF — all together.
    val meta = Map(
      "M"  -> Meta.dense(160, 15),
      "TF" -> Meta.dense(160, 5),
      "K"  -> Meta.sparse(160, 40, 160),
      "UF" -> Meta.dense(40, 10),
      "N"  -> Meta.dense(15, 7),
    )
    val v4 = Rewriter.View("V4",
      CBind(ColSums(Mat("TF")), Mul(ColSums(Mat("K")), Mat("UF"))))
    val r = Rewriter.rewrite(
      ColSums(Mul(Mat("M"), Mat("N"))), meta, views = Seq(v4),
      cfg = Rewriter.Config(norms = Seq(("M", "TF", "K", "UF"))))
    assert(r.best.render == "(V4 N)", r.best.render)
    assert(r.bestCost < r.originalCost)
    // Without the norm declaration the view is unreachable.
    val r2 = Rewriter.rewrite(ColSums(Mul(Mat("M"), Mat("N"))), meta, views = Seq(v4))
    assert(!r2.best.render.contains("V4"), r2.best.render)
  }

  test("B6's P1.12 HADAD route is the plan the catalog finds from S, K, R and N") {
    // B6's dims at tuple ratio 2: nR = 1000, dS = 10, dR = 40, nS = 2000,
    // K with one non-zero per S-row, and N with 40 columns.
    val meta = Map(
      "S" -> Meta.dense(2000, 10),
      "K" -> Meta.sparse(2000, 1000, 2000),
      "R" -> Meta.dense(1000, 40),
      "N" -> Meta.dense(50, 40),
    )
    val p112 = ColSums(Mul(materialized, nN))
    for (est <- Seq[() => Estimator](() => NaiveEstimator, () => new MNCEstimator)) {
      val r = Rewriter.rewrite(p112, meta, cfg = Rewriter.Config(estimator = est))
      assert(r.chosen == Mul(colSums, nN), r.chosen.render)
    }
  }
}
