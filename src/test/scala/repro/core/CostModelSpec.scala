package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** γ (§7.1): intermediate-size accounting and the monotonicity property the
  * §8 guarantees require — checked over randomly generated expressions.
  */
class CostModelSpec extends AnyFunSuite {

  /** Deterministic sampling loop (the scalatest-scalacheck bridge is not in
    * the offline dependency set).
    */
  private def forAll[T](g: Gen[T], n: Int = 100)(check: T => Unit): Unit =
    (0 until n).foreach { k =>
      g.apply(Gen.Parameters.default, Seed(k.toLong)).foreach(check)
    }

  private val meta = Map(
    "A" -> Meta.dense(40, 40), "B" -> Meta.dense(40, 40),
    "C" -> Meta.sparse(40, 40, 80),
  )
  private def metaOf(n: String) = meta.get(n)

  test("γ sums intermediate sizes in syntactic order") {
    // (AB)A: AB = 1600 cells, (AB)A = 1600 cells.
    val c = CostModel.gamma(Mul(Mul(Mat("A"), Mat("B")), Mat("A")), metaOf, NaiveEstimator)
    assert(c.cost == 3200.0)
    // Leaves are free.
    assert(CostModel.gamma(Mat("A"), metaOf, NaiveEstimator).cost == 0.0)
  }

  test("γ of a scalar-valued expression counts scalar intermediates as 1") {
    val c = CostModel.gamma(SAdd(Trace(Mat("A")), Trace(Mat("B"))), metaOf, NaiveEstimator)
    assert(c.cost == 3.0)
  }

  test("dims helper reports result shape") {
    val m = CostModel.gamma(T(Mul(Mat("A"), Mat("B"))), metaOf, NaiveEstimator).meta
    assert((m.rows, m.cols) == (40L, 40L))
  }

  test("unknown leaf metadata raises") {
    intercept[RuntimeException] {
      CostModel.gamma(Mat("nope"), metaOf, NaiveEstimator)
    }
  }

  // Random square-shaped expression generator (all 40x40, so every operator
  // combination is well-typed).
  private def exprGen(depth: Int): Gen[Expr] =
    if (depth == 0) Gen.oneOf(Mat("A"), Mat("B"), Mat("C"))
    else {
      val sub = exprGen(depth - 1)
      Gen.oneOf(
        for (a <- sub; b <- sub) yield Mul(a, b),
        for (a <- sub; b <- sub) yield Add(a, b),
        for (a <- sub; b <- sub) yield Had(a, b),
        sub.map(T(_)),
        sub.map(Exp(_)),
        sub.map(x => ScaMul(Lit(2.0), x)),
      )
    }

  test("property: γ is monotonic — no expression is cheaper than a sub-expression") {
    forAll(exprGen(3)) { e =>
      val est  = NaiveEstimator
      val cost = CostModel.gamma(e, metaOf, est).cost
      e.children.filterNot(_.isInstanceOf[Lit]).foreach { c =>
        assert(CostModel.gamma(c, metaOf, est).cost <= cost + 1e-9,
               s"${c.render} costlier than parent ${e.render}")
      }
    }
  }

  test("property: γ under MNC is monotonic too") {
    forAll(exprGen(3)) { e =>
      val est  = new MNCEstimator
      val cost = CostModel.gamma(e, metaOf, est).cost
      e.children.filterNot(_.isInstanceOf[Lit]).foreach { c =>
        assert(CostModel.gamma(c, metaOf, new MNCEstimator).cost <= cost + 1e-9)
      }
    }
  }

  test("property: estimated nnz never exceeds the cell count") {
    forAll(exprGen(3)) { e =>
      val m = CostModel.gamma(e, metaOf, NaiveEstimator).meta
      assert(m.nnz <= m.cells + 1e-9)
    }
  }
}
