package repro.morpheus

import repro.SparkSpec
import repro.matrix.{COOMatrix, Gen, Ops}

/** Factorized Morpheus operators agree with their materialized equivalents,
  * and the HADAD-enabled factorized forms (colSums/rowSums/sum pushdown)
  * agree with the multiplication-pushdown forms they replace (§2, §9.2.1).
  */
class MorpheusSpec extends SparkSpec {

  private lazy val nm = NormalizedMatrix.synthetic(spark, nR = 40, dS = 5,
                                                   tupleRatio = 4, featureRatio = 2)
  private lazy val m  = nm.materialize

  private def diff(a: COOMatrix, b: COOMatrix): Double = {
    assert(a.rows == b.rows && a.cols == b.cols, s"${a.rows}x${a.cols} vs ${b.rows}x${b.cols}")
    breeze.linalg.max(breeze.numerics.abs(a.local.values - b.local.values))
  }

  test("synthetic PK-FK shapes: M = [S, K·R]") {
    assert(nm.rows == 160 && nm.cols == 15)
    assert(m.rows == 160 && m.cols == 15)
    // K is an indicator: exactly one 1 per row.
    assert(nm.k.nnz == nm.rows)
    assert(Ops.rowSums(nm.k).df.filter("v <> 1.0").count() == 0)
  }

  test("rightMul factorized == materialized M·N") {
    val n = Gen.dense(spark, nm.cols, 7, seed = 31)
    assert(diff(nm.rightMul(n), Ops.multiply(m, n)) < 1e-9)
  }

  test("leftMul factorized == materialized X·M") {
    val x = Gen.dense(spark, 6, nm.rows, seed = 32)
    assert(diff(nm.leftMul(x), Ops.multiply(x, m)) < 1e-9)
  }

  test("colSums pushdown == colSums(materialized)") {
    assert(diff(nm.colSumsF, Ops.colSums(m)) < 1e-9)
  }

  test("rowSums pushdown == rowSums(materialized)") {
    assert(diff(nm.rowSumsF, Ops.rowSums(m)) < 1e-9)
  }

  test("sum pushdown == sum(materialized)") {
    assert(math.abs(nm.sumF - Ops.sumAll(m)) < 1e-8)
  }

  test("P1.12 both evaluation routes agree: colSums(MN) == colSums(M)N") {
    val n = Gen.dense(spark, nm.cols, 7, seed = 33)
    val viaMorpheus = Ops.colSums(nm.rightMul(n))        // Morpheus alone
    val viaHadad    = Ops.multiply(nm.colSumsF, n)       // HADAD + Morpheus
    assert(diff(viaMorpheus, viaHadad) < 1e-9)
  }

  test("P2.10 both routes agree: rowSums(XM) == X rowSums(M)") {
    val x = Gen.dense(spark, 6, nm.rows, seed = 34)
    val viaMorpheus = Ops.rowSums(nm.leftMul(x))
    val viaHadad    = Ops.multiply(x, nm.rowSumsF)
    assert(diff(viaMorpheus, viaHadad) < 1e-9)
  }

  test("P2.11 both routes agree: sum(N+M) == sum(N)+sum(M)") {
    val n = Gen.dense(spark, nm.rows, nm.cols, seed = 35)
    val asIs  = Ops.sumAll(Ops.add(n, m))               // Morpheus: no factorization
    val hadad = Ops.sumAll(n) + nm.sumF                 // HADAD: distribute, push sum
    assert(math.abs(asIs - hadad) < 1e-7 * math.abs(asIs))
  }

  test("P2.15 both routes agree: sum(rowSums(M)) == sum(M)") {
    assert(math.abs(Ops.sumAll(nm.rowSumsF) - nm.sumF) < 1e-8)
  }

  test("HADAD reaches base-table views only via LA + Morpheus rules jointly") {
    import repro.core._
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
    import repro.core._
    // B6's dims at tuple ratio 2: nR = 1000, dS = 10, dR = 40, nS = 2000,
    // K with one non-zero per S-row, and N with 40 columns.
    val meta = Map(
      "S" -> Meta.dense(2000, 10),
      "K" -> Meta.sparse(2000, 1000, 2000),
      "R" -> Meta.dense(1000, 40),
      "N" -> Meta.dense(50, 40),
    )
    val p112 = ColSums(Mul(CBind(Mat("S"), Mul(Mat("K"), Mat("R"))), Mat("N")))
    for (est <- Seq[() => Estimator](() => NaiveEstimator, () => new MNCEstimator)) {
      val r = Rewriter.rewrite(p112, meta, cfg = Rewriter.Config(estimator = est))
      // `nm.colSumsF · N`, as `Tables.b6` writes it.
      assert(r.chosen.render == "(cbind(colSums(S),(colSums(K) R)) N)", r.chosen.render)
    }
  }
}
