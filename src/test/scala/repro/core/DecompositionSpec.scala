package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.matrix.LocalExec

/** Matrix-decomposition constraints (paper §6.2.5, Table 10): Cholesky
  * reasoning, QR/LU fixed points, and numeric validity of cho().
  */
class DecompositionSpec extends AnyFunSuite {

  test("cho(M)·t(cho(M)) merges with M under the Cholesky constraint") {
    val i = new Instance(NaiveEstimator)
    val meta = Map("M" -> Meta.dense(20, 20))
    val m = Encoder.leafMat(i, "M", meta.get)
    i.addFact("type", Vector(m, i.const("S")))
    val e = Encoder.encode(i, Mul(Cho(Mat("M")), T(Cho(Mat("M")))), meta.get)
    Chase.run(i, Catalog.all, maxRounds = 4, maxFacts = 30000, deadlineMillis = 15000)
    assert(i.find(e) == i.find(m))
  }

  test("QR fixed point: chase with the QR rules terminates, QR(I)=[I,I]") {
    val i = new Instance(NaiveEstimator)
    val meta = Map("M" -> Meta.dense(12, 12))
    Encoder.leafMat(i, "M", meta.get)
    val st = Chase.run(i, Catalog.laProperties ++ Catalog.qrlu, maxRounds = 8,
                       maxFacts = 30000, deadlineMillis = 15000)
    assert(!st.hitFactBudget && !st.hitDeadline)
    // An identity class exists and is a QR fixed point.
    val ids = i.facts("Identity").map(f => i.find(f(0))).toSet
    assert(ids.nonEmpty)
    val fixed = i.facts("QR").exists { f =>
      ids(i.find(f(0))) && i.find(f(0)) == i.find(f(1)) && i.find(f(0)) == i.find(f(2))
    }
    assert(fixed, "QR(I, I, I) not derived")
  }

  test("LU fixed point: LU of a lower-triangular L is [L, I]") {
    val i = new Instance(NaiveEstimator)
    val l = i.fresh()
    i.setMeta(l, Meta.dense(10, 10))
    i.addFact("type", Vector(l, i.const("L")))
    Chase.run(i, Catalog.qrlu, maxRounds = 6, maxFacts = 30000, deadlineMillis = 15000)
    val ok = i.facts("LU").exists(f => i.find(f(0)) == i.find(l) && i.find(f(1)) == i.find(l))
    assert(ok, "LU(L, L, I) not derived")
  }

  test("QR/LU outputs are functional (merged per input class)") {
    val i = new Instance(NaiveEstimator)
    val (m, q1, r1, q2, r2) = (i.fresh(), i.fresh(), i.fresh(), i.fresh(), i.fresh())
    i.addFact("QR", Vector(m, q1, r1))
    i.addFact("QR", Vector(m, q2, r2))
    i.functionalClosure()
    assert(i.find(q1) == i.find(q2) && i.find(r1) == i.find(r2))
  }

  test("numeric: cho of an SPD matrix satisfies M = L·Lᵀ") {
    val m = LocalExec.randSPD(12, 5)
    val env: LocalExec.Env = Map("M" -> LocalExec.LMat(m))
    val rebuilt = LocalExec.eval(Mul(Cho(Mat("M")), T(Cho(Mat("M")))), env)
    assert(LocalExec.maxDiff(rebuilt, LocalExec.LMat(m)) < 1e-9)
  }

  test("Example 6.2 at a distance: E = M+N answered by V without syntactic overlap") {
    val meta = Map("M" -> Meta.dense(40, 40), "N" -> Meta.dense(40, 40))
    val v = Rewriter.View("V", Add(Mat("N"), Mul(Cho(Mat("M")), T(Cho(Mat("M"))))))
    val r = Rewriter.rewrite(Add(Mat("M"), Mat("N")), meta, Seq(v),
                             Rewriter.Config(types = Map("M" -> "S")))
    assert(r.best == Mat("V"))
    assert(r.bestCost == 0.0)
  }
}
