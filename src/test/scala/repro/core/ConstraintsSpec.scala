package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Constraints.{atom, egd, eqv, tgd}

/** The constraint DSL: parsing, arity checks, variable classification. */
class ConstraintsSpec extends AnyFunSuite {

  test("atom parses variables and constants") {
    val a = atom("""name(M, "M.csv")""")
    assert(a.rel == "name")
    assert(a.args == Vector("M", "\"M.csv\""))
    assert(a.vars == Set("M"))
  }

  test("atom rejects unknown relations") {
    val e = intercept[RuntimeException](atom("frobnicate(M,N)"))
    assert(e.getMessage.contains("unknown VREM relation"))
  }

  test("atom rejects wrong arity") {
    val e = intercept[IllegalArgumentException](atom("multi_M(M,N)"))
    assert(e.getMessage.contains("expects 3 args"))
  }

  test("constants may contain commas inside quotes") {
    val a = atom("""type(M, "a,b")""")
    assert(a.args(1) == "\"a,b\"")
  }

  test("TGD existentials are conclusion-only variables") {
    val t = tgd("t")("multi_M(M,N,R1)", "tr(R1,R2)")("tr(M,R3)", "tr(N,R4)",
                                                     "multi_M(R4,R3,R2)")
    assert(t.existentials == Set("R3", "R4"))
    assert(t.premiseVars == Set("M", "N", "R1", "R2"))
  }

  test("TGD rejects a constructor atom before the producer of its existential input") {
    val e = intercept[IllegalArgumentException] {
      tgd("bad-order")("multi_M(M,N,R)")("multi_M(R3,N,R)", "tr(M,R3)")
    }
    assert(e.getMessage.contains("bad-order"))
    assert(e.getMessage.contains("R3"))
    // The producer first is accepted, and so is an existential that no
    // constructor atom produces.
    tgd("good-order")("multi_M(M,N,R)")("tr(M,R3)", "multi_M(R3,N,R)")
    tgd("no-producer")("type(M,\"S\")")("QR(M,Q,R)", "multi_M(Q,R,M)")
  }

  test("EGD requires both equated variables in the premise") {
    intercept[IllegalArgumentException] {
      egd("bad")("name(M,n)")("M=Z")
    }
    val ok = egd("ok")("name(M,n)", "name(N,n)")("M=N")
    assert(ok.left == "M" && ok.right == "N")
  }

  test("Prune_prov exempts a TGD with no constructor premise") {
    // M (4x4) carries a name, a size, a type, a norm and a transpose fact;
    // each rule's step adds a 4x4 intermediate, above the threshold 0.5.
    def stats(t: TGD): Chase.Stats = {
      val i    = new Instance(NaiveEstimator)
      val meta = Map("M" -> Meta.dense(4, 4))
      val m    = Encoder.leafMat(i, "M", meta.get)
      i.addFact("type", Vector(m, i.const("S")))
      i.addFact("norm", Vector(m, i.fresh(), i.fresh(), i.fresh()))
      Encoder.encode(i, T(Mat("M")), meta.get)
      Chase.run(i, Seq(t), maxRounds = 1, maxFacts = 1000, threshold = 0.5, deadlineMillis = 15000)
    }
    for (p <- Seq("type(M,\"S\")", "name(M,n)", "size(M,k,z)", "norm(M,S,K,R)")) {
      val st = stats(tgd("t")(p)("cho(M,L)"))
      assert(st.prunedSteps == 0 && st.facts > 6, p)
    }
    assert(stats(tgd("t")("tr(M,R)")("cho(M,L)")).prunedSteps == 1)
    // In the catalog, these are the definitional rules.
    val definitional = (Catalog.all ++ Catalog.qrlu).collect {
      case t: TGD if !t.premise.exists(a => VREM.ctors.contains(a.rel)) => t.name
    }
    assert(definitional == Seq("cho-def", "norm-def", "qr-def", "qr-orth", "qr-upper",
                               "qr-identity", "lu-def", "lu-lower", "lu-upper", "lu-identity"))
  }

  test("eqv states an equivalence as its TGD and the exact swap, in that order") {
    val lhs = Seq("add_M(N,D,R1)", "multi_M(M,R1,R2)")
    val rhs = Seq("multi_M(M,N,R3)", "multi_M(M,D,R4)", "add_M(R3,R4,R2)")
    val Seq(fwd, rev) = eqv("dist", "factor")(lhs: _*)(rhs: _*)
    assert(fwd == tgd("dist")(lhs: _*)(rhs: _*))
    assert(rev == TGD("factor", fwd.conclusion, fwd.premise))
    assert(fwd.existentials == Set("R3", "R4") && rev.existentials == Set("R1"))
  }

  test("the full catalog parses and is well-formed") {
    val all = Catalog.all ++ Catalog.qrlu
    assert(all.size > 70)
    all.foreach {
      case t: TGD => assert(t.premise.nonEmpty && t.conclusion.nonEmpty, t.name)
      case e: EGD => assert(e.premise.nonEmpty, e.name)
    }
    // Names are unique (byName lookups stay unambiguous).
    val names = all.map(_.name)
    assert(names.distinct.size == names.size)
  }

  test("byName finds catalog constraints") {
    assert(Catalog.byName("mul-assoc-1").isInstanceOf[TGD])
    intercept[RuntimeException](Catalog.byName("nope"))
  }
}
