package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The two sparsity estimators (§7.2): worst-case naive formulas and the
  * structure-exploiting MNC histograms, including a case where MNC's
  * estimate is strictly tighter (the paper: the naive model misses 4
  * efficient rewritings; MNC pays an online-derivation overhead).
  */
class SparsitySpec extends AnyFunSuite {

  test("naive product: worst-case bound min(cells, nnzA·m, nnzB·n)") {
    val a = Meta.sparse(100, 50, 10)
    val b = Meta.sparse(50, 80, 10)
    val c = NaiveEstimator.mul(a, b)
    assert(c.rows == 100 && c.cols == 80)
    assert(c.nnz == math.min(100.0 * 80, math.min(10.0 * 80, 10.0 * 100)))
  }

  test("naive add/hadamard bounds") {
    val a = Meta.sparse(10, 10, 30); val b = Meta.sparse(10, 10, 90)
    assert(NaiveEstimator.add(a, b).nnz == 100)       // capped at cells
    assert(NaiveEstimator.had(a, b).nnz == 30)        // min of the two
  }

  test("transpose/rowSums/colSums/cbind metadata") {
    val a = Meta.sparse(20, 5, 12)
    assert(NaiveEstimator.tr(a).rows == 5 && NaiveEstimator.tr(a).cols == 20)
    assert(NaiveEstimator.rowSums(a) == Meta(20, 1, 12, None))
    assert(NaiveEstimator.colSums(a) == Meta(1, 5, 5, None))
    val c = NaiveEstimator.cbind(a, Meta.dense(20, 3))
    assert(c.cols == 8 && c.nnz == 12 + 60)
  }

  test("inverse and exp are dense; cholesky is triangular") {
    val a = Meta.sparse(10, 10, 5)
    assert(NaiveEstimator.inv(a).nnz == 100)
    assert(NaiveEstimator.exp(a).nnz == 100)
    assert(NaiveEstimator.cho(a).nnz == 55)
  }

  test("MNC exploits single-nnz-per-column structure where naive cannot") {
    // A: 100x100 permutation-like (one nnz per row and column).
    // B: 100x100 with only the first row populated.
    val est = new MNCEstimator
    val a = Meta(100, 100, 100, Some(Hist(Array.fill(100)(1.0), Array.fill(100)(1.0))))
    val hrB = Array.fill(100)(0.0); hrB(0) = 100
    val b = Meta(100, 100, 100, Some(Hist(hrB, Array.fill(100)(1.0))))
    val mnc   = est.mul(a, b)
    val naive = NaiveEstimator.mul(a.copy(hist = None), b.copy(hist = None))
    // Only A's column-0 entries hit B's populated row: true nnz ≈ 100.
    assert(mnc.nnz < naive.nnz / 10,
           s"MNC (${mnc.nnz}) should be much tighter than naive (${naive.nnz})")
  }

  test("MNC derives histograms online and counts the overhead") {
    val est = new MNCEstimator
    val a = Meta.dense(10, 10) // no histogram: derived on demand
    val before = est.derivations
    est.mul(est.prepare(a), est.prepare(a))
    assert(est.derivations > before)
  }

  test("MNC add derives per-row histograms with cell caps") {
    val est = new MNCEstimator
    val h = Some(Hist(Array.fill(4)(3.0), Array.fill(5)(2.4)))
    val a = Meta(4, 5, 12, h)
    val c = est.add(a, a)
    assert(c.nnz <= 20.0 + 1e-9)
    assert(c.hist.get.hr.forall(_ <= 5.0))
  }

  // Fixed non-uniform histograms. The expected values were recorded from the
  // collection-based implementation (`zip`/`map`/`sum`) that the estimator's
  // while loops replaced, and are compared with ==: the loops keep every
  // floating-point operation in its order.
  private val a = Meta(3, 4, 0.6, Some(Hist(Array(0.1, 0.2, 0.3), Array(0.3, 0.1, 0.0, 0.2))))
  private val b = Meta(3, 4, 5.5, Some(Hist(Array(3.7, 0.0, 1.8), Array(1.1, 2.9, 0.7, 0.8))))
  private val c = Meta(4, 2, 3.3, Some(Hist(Array(0.7, 1.1, 0.0, 1.5), Array(2.2, 1.1))))
  private val d = Meta(3, 5, 4.3, Some(Hist(Array(0.1, 1.3, 2.9), Array(0.3, 1.1, 0.0, 2.2, 0.9))))
  private val e = Meta(3, 5, 4.5, Some(Hist(Array(1.5, 0.4, 2.6), Array(2.1, 0.6, 1.4, 0.0, 1.7))))
  private val u = Meta(3, 4, 7.0, None) // no histogram: the uniform spread

  private def h(hr: Double*)(hc: Double*): Option[Hist] = Some(Hist(hr.toArray, hc.toArray))

  private def assertSame(what: String, got: Meta, want: Meta): Unit = {
    assert((got.rows, got.cols, got.nnz) == ((want.rows, want.cols, want.nnz)), what)
    assert(got.hist.get.hr.toSeq == want.hist.get.hr.toSeq, s"$what: row histogram")
    assert(got.hist.get.hc.toSeq == want.hist.get.hc.toSeq, s"$what: column histogram")
  }

  test("MNC mul, add, had, rowSums, colSums and cbind equal their recorded values exactly") {
    val est     = new MNCEstimator
    val mulUC   = Meta(3, 2, 3.708378904176307,
      h(1.2361263013921024, 1.2361263013921024, 1.2361263013921024)(2.4722526027842044, 1.2361263013921022))
    val cbindUA = Meta(3, 8, 7.6,
      h(2.4333333333333336, 2.5333333333333337, 2.6333333333333333)(1.75, 1.75, 1.75, 1.75, 0.3, 0.1, 0.0, 0.2))
    val cases = Seq(
      "mul(a, c)" -> (est.mul(a, c), Meta(3, 2, 0.5890421123822824,
        h(0.09817368539704706, 0.19634737079409412, 0.29452105619114116)(0.3926947415881883, 0.19634737079409414))),
      "mul(b, c)" -> (est.mul(b, c), Meta(3, 2, 3.4610275060935067,
        h(2.0, 0.0, 1.1326999110851477)(2.3073516707290045, 1.1536758353645022))),
      "mul(u, c)" -> (est.mul(u, c), mulUC),
      "add(a, b)" -> (est.add(a, b), Meta(3, 4, 6.1,
        h(3.8000000000000003, 0.2, 2.1)(1.4000000000000001, 3.0, 0.7, 1.0))),
      "add(b, b)" -> (est.add(b, b), Meta(3, 4, 7.6, h(4.0, 0.0, 3.6)(2.2, 3.0, 1.4, 1.6))),
      "add(u, a)" -> (est.add(u, a), Meta(3, 4, 7.6,
        h(2.4333333333333336, 2.5333333333333337, 2.6333333333333333)(2.05, 1.85, 1.75, 1.95))),
      "had(a, b)" -> (est.had(a, b), Meta(3, 4, 0.22750000000000004,
        h(0.09250000000000001, 0.0, 0.135)(0.11, 0.09666666666666666, 0.0, 0.053333333333333344))),
      "had(d, e)" -> (est.had(d, e), Meta(3, 5, 1.642,
        h(0.030000000000000006, 0.10400000000000001, 1.508)(0.21, 0.22, 0.0, 0.0, 0.51))),
      "had(u, b)" -> (est.had(u, b), Meta(3, 4, 3.208333333333334,
        h(2.1583333333333337, 0.0, 1.05)(0.6416666666666667, 1.6916666666666667, 0.40833333333333327, 0.46666666666666673))),
      "rowSums(a)" -> (est.rowSums(a), Meta(3, 1, 3.0, h(1.0, 1.0, 1.0)(3.0))),
      "rowSums(b)" -> (est.rowSums(b), Meta(3, 1, 2.0, h(1.0, 0.0, 1.0)(2.0))),
      "rowSums(u)" -> (est.rowSums(u), Meta(3, 1, 3.0, h(1.0, 1.0, 1.0)(3.0))),
      "colSums(a)" -> (est.colSums(a), Meta(1, 4, 3.0, h(3.0)(1.0, 1.0, 0.0, 1.0))),
      "colSums(c)" -> (est.colSums(c), Meta(1, 2, 2.0, h(2.0)(1.0, 1.0))),
      "colSums(u)" -> (est.colSums(u), Meta(1, 4, 4.0, h(4.0)(1.0, 1.0, 1.0, 1.0))),
      "cbind(a, b)" -> (est.cbind(a, b), Meta(3, 8, 6.1,
        h(3.8000000000000003, 0.2, 2.1)(0.3, 0.1, 0.0, 0.2, 1.1, 2.9, 0.7, 0.8))),
      "cbind(u, a)" -> (est.cbind(u, a), cbindUA))
    for ((what, (got, want)) <- cases) assertSame(what, got, want)
    // A prepared leaf gives the same estimates as the hist-less one.
    val p = est.prepare(u)
    assertSame("mul(prepare(u), c)", est.mul(p, c), mulUC)
    assertSame("cbind(prepare(u), a)", est.cbind(p, a), cbindUA)
  }

  test("MNC prepare attaches the uniform spread to a hist-less leaf once, and keeps a leaf's own") {
    val est  = new MNCEstimator
    val leaf = Meta(3, 7, 10, None)
    val p    = est.prepare(leaf)
    assert((p.rows, p.cols, p.nnz) == ((3L, 7L, 10.0)))
    assert(p.hist.get.hr.toSeq == Seq.fill(3)(3.3333333333333335))
    assert(p.hist.get.hc.toSeq == Seq.fill(7)(1.4285714285714286))
    assert(est.derivations == 1)
    // Reading the prepared leaf twice derives only the product's spread.
    est.mul(p, est.tr(p))
    assert(est.derivations == 2)
    assert(est.prepare(a) eq a)
    val big = Meta.sparse(Meta.MaxHistDim + 1, 10, 50)
    assert(est.prepare(big) eq big)
    assert(NaiveEstimator.prepare(a).hist.isEmpty)
  }

  test("MNC falls back to naive formulas above the histogram dimension cap") {
    val est = new MNCEstimator
    val a = Meta.sparse(Meta.MaxHistDim + 1, 10, 50)
    val c = est.mul(a, Meta.dense(10, 3))
    assert(c.nnz == NaiveEstimator.mul(a, Meta.dense(10, 3)).nnz)
  }

  test("scalar and dense helpers") {
    assert(Meta.scalar.isScalar)
    assert(Meta.dense(3, 4).sparsity == 1.0)
    assert(Meta.sparse(3, 4, 100).nnz == 12.0) // capped at cells
  }
}
