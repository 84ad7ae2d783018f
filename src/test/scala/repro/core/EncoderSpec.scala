package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** enc_LA: the relational encoding of paper §6.2.2 (Example 6.1) plus
  * sharing, sizes, and view encoding.
  */
class EncoderSpec extends AnyFunSuite {

  private val meta = Map("M" -> Meta.dense(100, 1), "N" -> Meta.dense(1, 10))

  test("Example 6.1: ((MN)^T) encodes to tr ∘ multi_M ∘ name atoms") {
    val i = new Instance(NaiveEstimator)
    val r2 = Encoder.encode(i, T(Mul(Mat("M"), Mat("N"))), meta.get)
    val names = i.facts("name")
    assert(names.size == 2)
    val Seq(mul) = i.facts("multi_M").toSeq
    val Seq(tr)  = i.facts("tr").toSeq
    // tr's input is the product's result; tr's output is the query class.
    assert(i.find(tr(0)) == i.find(mul(2)))
    assert(i.find(tr(1)) == i.find(r2))
    // The product's inputs are the named classes.
    assert(names.map(f => i.find(f(0))).toSet == Set(i.find(mul(0)), i.find(mul(1))))
  }

  test("identical sub-expressions share one class (hash-consing)") {
    val i = new Instance(NaiveEstimator)
    Encoder.encode(i, Add(Mul(Mat("M"), Mat("N")), Mul(Mat("M"), Mat("N"))), meta.get)
    assert(i.facts("multi_M").size == 1)
    assert(i.facts("name").size == 2)
  }

  test("base matrices carry size facts from their metadata") {
    val i = new Instance(NaiveEstimator)
    val m = Encoder.leafMat(i, "M", meta.get)
    val sizes = i.facts("size").filter(f => i.find(f(0)) == i.find(m))
    assert(sizes.size == 1)
    assert(i.constOf(sizes.head(1)).contains("100"))
    assert(i.constOf(sizes.head(2)).contains("1"))
  }

  test("derived results get metadata from the estimator") {
    val i = new Instance(NaiveEstimator)
    val r = Encoder.encode(i, Mul(Mat("M"), Mat("N")), meta.get)
    val m = i.meta(r).get
    assert(m.rows == 100 && m.cols == 10)
  }

  test("scalar leaves: named scalars and literals intern by value") {
    val i = new Instance(NaiveEstimator)
    val a = Encoder.encode(i, Sca("s1"), meta.get); val b = Encoder.encode(i, Sca("s1"), meta.get)
    assert(a == b)
    val l1 = Encoder.encode(i, Lit(2.5), meta.get); val l2 = Encoder.encode(i, Lit(2.5), meta.get)
    assert(l1 == l2)
    assert(i.meta(a).get.isScalar)
  }

  test("views bind their body's result class to the view name") {
    val i = new Instance(NaiveEstimator)
    val rv = Encoder.encodeView(i, "V", Mul(Mat("M"), Mat("N")), meta.get)
    assert(i.classOfName("V").map(i.find).contains(i.find(rv)))
    // Re-encoding the same body in a query reuses the class.
    val rq = Encoder.encode(i, Mul(Mat("M"), Mat("N")), meta.get)
    assert(i.find(rq) == i.find(rv))
  }

  test("every AST operator round-trips through encode and extract") {
    val m2 = meta + ("A" -> Meta.dense(8, 8)) + ("B" -> Meta.dense(8, 8)) +
             ("v" -> Meta.dense(8, 1))
    val exprs: Seq[Expr] = Seq(
      Mul(Mat("A"), Mat("B")), Add(Mat("A"), Mat("B")), Sub(Mat("A"), Mat("B")),
      Had(Mat("A"), Mat("B")), Div(Mat("A"), Mat("B")), ScaMul(Sca("s"), Mat("A")),
      T(Mat("A")), Inv(Mat("A")), Exp(Mat("A")), Diag(Mat("A")),
      RowSums(Mat("A")), ColSums(Mat("A")), CBind(Mat("A"), Mat("B")),
      Cho(Mat("A")), Det(Mat("A")), Trace(Mat("A")), Sum(Mat("A")),
      SAdd(Det(Mat("A")), Det(Mat("B"))), SMul(Det(Mat("A")), Det(Mat("B"))),
      SInv(Det(Mat("A"))), Mul(Mat("A"), Mat("v")),
    )
    // The list covers every row of the operator table.
    def rels(e: Expr): Set[String] = e match {
      case n: Node => n.children.flatMap(rels).toSet + n.rel
      case _       => Set.empty
    }
    assert(exprs.flatMap(rels).toSet == VREM.ctors.keySet)
    // γ and the encoded classes' metadata come from the same derivation.
    for (est <- Seq[() => Estimator](() => NaiveEstimator, () => new MNCEstimator); e <- exprs) {
      val i = new Instance(est())
      val r = Encoder.encode(i, e, m2.get)
      val best = Extract.extract(i, r).get
      assert(best.expr.render == e.render, s"round-trip broke for ${e.render}")
      val g = CostModel.gamma(e, m2.get, est())
      val m = i.meta(r).get
      assert(best.cost == g.cost, s"${e.render}: extracted cost vs γ")
      assert((m.rows, m.cols, m.nnz) == (g.meta.rows, g.meta.cols, g.meta.nnz),
             s"${e.render}: encoded Meta vs γ's")
    }
  }
}
