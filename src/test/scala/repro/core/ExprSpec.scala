package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** AST basics: rendering and children. */
class ExprSpec extends AnyFunSuite {

  private val e = Sum(Mul(T(Mat("M")), Add(Mat("N"), ScaMul(Sca("s"), Mat("M")))))

  test("render is compact and parenthesized") {
    assert(e.render == "sum((t(M) (N+(s.M))))")
    assert(Sub(Mat("A"), Mat("B")).render == "(A-B)")
    assert(Div(Mat("A"), Mat("B")).render == "(A/B)")
    assert(Lit(3.0).render == "3")
    assert(Lit(2.5).render == "2.5")
  }

  test("children are in syntactic order") {
    assert(Mul(Mat("A"), Mat("B")).children == Seq(Mat("A"), Mat("B")))
    assert(ScaMul(Sca("s"), Mat("A")).children == Seq(Sca("s"), Mat("A")))
    assert(CBind(Mat("A"), Mat("B")).children == Seq(Mat("A"), Mat("B")))
    assert(Cho(Mat("A")).children == Seq(Mat("A")))
  }
}
