package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Min-cost extraction/decoding: leaf preference, per-class minimization,
  * tie-breaking toward smaller ASTs, cycle safety.
  */
class ExtractSpec extends AnyFunSuite {

  private val meta = Map("A" -> Meta.dense(30, 30), "B" -> Meta.dense(30, 30))

  test("a class with a name fact decodes to the leaf (views are free)") {
    val i = new Instance(NaiveEstimator)
    val r = Encoder.encode(i, Mul(Mat("A"), Mat("B")), meta.get)
    i.addFact("name", Vector(r, i.const("V")))
    val best = Extract.extract(i, r).get
    assert(best.expr == Mat("V"))
    assert(best.cost == 0.0)
  }

  test("minimum over alternative derivations is chosen") {
    val i = new Instance(NaiveEstimator)
    // Two derivations of the same class: a 900-cell product vs a free leaf
    // plus a transpose (900 cells) — the product of smaller inputs wins.
    val q = Encoder.encode(i, Mul(Mat("A"), Mat("B")), meta.get)
    val v = Encoder.leafMat(i, "small", n => Some(Meta.dense(30, 30)))
    i.addFact("tr", Vector(v, q)) // q is also t(small)
    i.functionalClosure(); i.compact()
    val best = Extract.extract(i, q).get
    assert(best.expr.render == "t(small)", best.expr.render)
    assert(best.cost == 900.0)
  }

  test("tie-break prefers the smaller AST") {
    val i = new Instance(NaiveEstimator)
    val q = Encoder.encode(i, T(T(Mat("A"))), meta.get)
    // Chase with the involution: t(t(A)) merges with A's class.
    Chase.run(i, Seq(Catalog.byName("tr-invol")), maxRounds = 4, maxFacts = 30000,
              deadlineMillis = 15000)
    val best = Extract.extract(i, q).get
    assert(best.expr == Mat("A"))
  }

  test("transpose cycles (tr-invol) do not break decoding") {
    val i = new Instance(NaiveEstimator)
    val q = Encoder.encode(i, T(Mat("A")), meta.get)
    Chase.run(i, Seq(Catalog.byName("tr-invol")), maxRounds = 4, maxFacts = 30000,
              deadlineMillis = 15000)
    val best = Extract.extract(i, q).get
    assert(best.expr.render == "t(A)")
    assert(best.cost == 900.0)
  }

  test("classes without any decodable derivation are rejected") {
    val i = new Instance(NaiveEstimator)
    val orphan = i.fresh()
    assert(Extract.extract(i, orphan).isEmpty)
  }

  test("scalar classes decode through sname/slit leaves") {
    val i = new Instance(NaiveEstimator)
    val q = Encoder.encode(i, SMul(Sca("s1"), Lit(3.0)), meta.get)
    val best = Extract.extract(i, q).get
    assert(best.expr.render == "(s1*3)")
  }
}
