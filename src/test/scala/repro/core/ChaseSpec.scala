package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.{Pipelines, Tables}
import Constraints.{atom, egd, tgd}

/** Chase mechanics: union-find semantics, functional closure, restricted
  * TGD application, EGD merging, Prune_prov, budgets.
  */
class ChaseSpec extends AnyFunSuite {

  private def inst() = new Instance(NaiveEstimator)

  test("constants intern to stable ids and never merge with other constants") {
    val i = inst()
    val a = i.const("x"); val b = i.const("x"); val c = i.const("y")
    assert(a == b && a != c)
    assert(!i.union(a, c)) // refused
    assert(i.find(a) != i.find(c))
  }

  test("union-find grows past its initial array; constants stay roots and never merge") {
    val i   = inst()
    val n   = 3 * Instance.InitialIds + 1
    val ids = Vector.fill(n)(i.fresh())
    assert(ids == (0 until n) && ids.map(i.find) == ids)
    val (below, above) = (Instance.InitialIds - 1, 2 * Instance.InitialIds + 3)
    assert(i.union(below, above))
    assert(i.find(above) == i.find(below))
    ids.sliding(2).foreach(p => i.union(p(0), p(1)))
    assert(ids.map(i.find).distinct.size == 1)
    // Constants minted after the growth, merged in both argument orders.
    val (k1, k2, k3) = (i.const("k1"), i.const("k2"), i.const("k3"))
    assert(k1 >= n)
    assert(i.union(ids(0), k1))
    assert(ids.forall(i.find(_) == k1) && i.constOf(ids(7)) == Some("k1"))
    val x = i.fresh()
    assert(i.union(k3, x) && i.find(x) == k3)
    assert(!i.union(k2, ids(3)) && !i.union(ids(3), k2) && !i.union(x, k1))
    assert(i.find(k1) == k1 && i.find(k2) == k2 && i.find(k3) == k3)
  }

  test("union merges metadata keeping the tighter nnz") {
    val i = inst()
    val a = i.fresh(); val b = i.fresh()
    i.setMeta(a, Meta(10, 10, 80, None))
    i.setMeta(b, Meta(10, 10, 20, None))
    i.union(a, b)
    assert(i.meta(a).get.nnz == 20)
    assert(i.find(a) == i.find(b))
  }

  test("functionalClosure merges same-input constructor results (I_multi_M)") {
    val i = inst()
    val (m, n, r1, r2) = (i.fresh(), i.fresh(), i.fresh(), i.fresh())
    i.addFact("multi_M", Vector(m, n, r1))
    i.addFact("multi_M", Vector(m, n, r2))
    assert(i.functionalClosure())
    assert(i.find(r1) == i.find(r2))
  }

  test("functionalClosure merges classes sharing a name (I_name)") {
    val i = inst()
    val (a, b) = (i.fresh(), i.fresh())
    val n = i.const("M.csv")
    i.addFact("name", Vector(a, n)); i.addFact("name", Vector(b, n))
    i.functionalClosure()
    assert(i.find(a) == i.find(b))
  }

  test("restricted chase does not refire satisfied TGDs (termination)") {
    val i = inst()
    val (m, r) = (i.fresh(), i.fresh())
    i.setMeta(m, Meta.dense(5, 5)); i.setMeta(r, Meta.dense(5, 5))
    i.addFact("tr", Vector(m, r))
    val st = Chase.run(i, Seq(tgd("tr-invol")("tr(M,R)")("tr(R,M)")), maxRounds = 10,
                       maxFacts = 30000, deadlineMillis = 15000)
    assert(i.facts("tr").size == 2) // tr(m,r) and tr(r,m), nothing else
    assert(st.rounds <= 3)
  }

  test("EGDs merge through generic premise matching") {
    val i = inst()
    val (i1, i2, m, r) = (i.fresh(), i.fresh(), i.fresh(), i.fresh())
    i.addFact("Identity", Vector(i1))
    i.addFact("multi_M", Vector(i1, m, r))
    Chase.run(i, Seq(egd("id-l")("Identity(I)", "multi_M(I,M,R)")("R=M")), maxRounds = 4,
              maxFacts = 30000, deadlineMillis = 15000)
    assert(i.find(r) == i.find(m))
    assert(i2 >= 0) // silence unused warning
  }

  test("Prune_prov skips steps whose intermediate exceeds the threshold") {
    // (MN)M with associativity: the alternative M(NM) would introduce a huge
    // NM intermediate when N is wide; with a tight threshold it is pruned.
    val i = inst()
    val meta = Map("M" -> Meta.dense(10, 10000), "N" -> Meta.dense(10000, 10))
    val q = Encoder.encode(i, Mul(Mul(Mat("M"), Mat("N")), Mat("M")), meta.get)
    // Original cost: MN = 100 cells + product 100*10000. Threshold below the
    // would-be (N M) intermediate of 10000x10000.
    val st = Chase.run(i, Catalog.all, maxRounds = 4, maxFacts = 30000, threshold = 2_000_000,
                       deadlineMillis = 15000)
    assert(st.prunedSteps > 0)
    val best = Extract.extract(i, q).get
    assert(best.expr.render == "((M N) M)") // original stays optimal
  }

  test("fact budget halts growth and reports it") {
    val i = inst()
    val meta = (1 to 6).map(k => s"M$k" -> Meta.dense(50, 50)).toMap
    val chain = meta.keys.toSeq.sorted.map(Mat(_): Expr).reduceLeft(Add(_, _))
    Encoder.encode(i, chain, meta.get)
    val st = Chase.run(i, Catalog.all, maxRounds = 10, maxFacts = 60, deadlineMillis = 15000)
    assert(st.hitFactBudget)
    assert(i.factCount <= 200) // stopped shortly after the budget
  }

  test("deadline halts a long chase and reports it") {
    val i = inst()
    val meta = (1 to 8).map(k => s"M$k" -> Meta.dense(50, 50)).toMap
    val chain = meta.keys.toSeq.sorted.map(Mat(_): Expr).reduceLeft(Mul(_, _))
    Encoder.encode(i, chain, meta.get)
    val st = Chase.run(i, Catalog.all, maxRounds = 50, maxFacts = 5_000_000,
                       deadlineMillis = 50)
    assert(st.hitDeadline || st.rounds < 50)
  }

  test("matches enumerates all homomorphisms including self-joins") {
    val i = inst()
    val (a, b, c) = (i.fresh(), i.fresh(), i.fresh())
    i.addFact("add_M", Vector(a, b, c))
    i.addFact("add_M", Vector(b, a, c))
    val ms = Chase.matches(i, Vector(Constraints.atom("add_M(X,Y,Z)")), Map.empty).toList
    assert(ms.size == 2)
    val joined = Chase.matches(i,
      Vector(Constraints.atom("add_M(X,Y,Z)"), Constraints.atom("add_M(Y,X,Z)")),
      Map.empty).toList
    assert(joined.size == 2)
  }

  /** Reference homomorphism search: one nested loop per atom, in the given
    * order, over every fact of the atom's relation. Bindings are class
    * representatives, extending `bound` as given, like `Chase.matches`.
    */
  private def bruteForce(i: Instance, atoms: Vector[PatAtom],
                         bound: Map[String, Int]): Vector[Map[String, Int]] =
    atoms.foldLeft(Vector(bound)) { (bs, a) =>
      for {
        b  <- bs
        f  <- i.facts(a.rel).toVector
        nb <- a.args.indices.foldLeft(Option(b)) { (ob, k) =>
                ob.flatMap { b =>
                  val v = i.find(f(k)); val p = a.args(k)
                  if (p.startsWith("\"")) Option.when(i.find(i.const(p.drop(1).dropRight(1))) == v)(b)
                  else b.get(p) match {
                    case Some(x) => Option.when(i.find(x) == v)(b)
                    case None    => Some(b + (p -> v))
                  }
                }
              }
      } yield nb
    }

  private def multiset(ms: Seq[Map[String, Int]]): Map[Map[String, Int], Int] =
    ms.groupMapReduce(identity)(_ => 1)(_ + _)

  test("matches agrees with a nested-loop reference on a chased P2.17 instance") {
    // P2.17 (naive, no views) at the RW_find dims, with C declared
    // symmetric positive definite so the Cholesky rules add type/cho facts.
    val i    = inst()
    val meta = Tables.b3MetaFor("P2.17")
    val e    = Pipelines.byId("P2.17")
    Encoder.encode(i, e, meta.get)
    i.addFact("type", Vector(i.classOfName("C").get, i.const("S")))
    Chase.run(i, Catalog.all, maxRounds = 4, maxFacts = 5000, deadlineMillis = 15000,
              threshold = CostModel.gamma(e, meta.get, NaiveEstimator).cost)

    val d = i.classOfName("D").get
    val extra: Seq[(Vector[PatAtom], Map[String, Int])] = Seq(
      Vector(atom("size(M,k,k)")) -> Map.empty,                       // repeated variable
      Vector(atom("size(M,\"150\",\"150\")")) -> Map.empty,          // size literals
      Vector(atom("size(M,\"150\",k)"), atom("size(N,k,\"150\")")) -> Map.empty,
      Vector(atom("type(M,\"S\")"), atom("cho(M,L)")) -> Map.empty,     // type tag
      Vector(atom("tr(X,Y)"), atom("tr(Y,X)")) -> Map.empty,            // self-join
      Vector(atom("multi_M(X,Y,R)"), atom("size(R,a,b)")) -> Map("Y" -> d),
      Vector(atom("multi_M(X,Y,R)")) -> Map("Y" -> d, "Unused" -> d),
    )
    val premises = Catalog.all.map {
      case t: TGD => t.premise
      case g: EGD => g.premise
    }.map(_ -> Map.empty[String, Int])
    // Conclusions extend premise matches: a non-empty `bound`, with the
    // existentials left free.
    val conclusions = for {
      t <- Catalog.all.collect { case t: TGD => t }
      h <- bruteForce(i, t.premise, Map.empty).take(25)
    } yield t.conclusion -> h

    var selfJoin, repeated, constant, withBound = 0
    for ((atoms, bound) <- extra ++ premises ++ conclusions) {
      val got  = Chase.matches(i, atoms, bound).toVector
      val want = bruteForce(i, atoms, bound)
      assert(multiset(got) == multiset(want), s"${atoms.mkString(", ")} with $bound")
      if (want.nonEmpty) {
        if (atoms.map(_.rel).distinct.size < atoms.size) selfJoin += 1
        if (atoms.exists(a => a.vars.size < a.args.count(!_.startsWith("\"")))) repeated += 1
        if (atoms.exists(_.args.exists(_.startsWith("\"")))) constant += 1
        if (bound.nonEmpty) withBound += 1
      }
    }
    assert(selfJoin > 0 && repeated > 0 && constant > 0 && withBound > 0,
           s"coverage: selfJoin=$selfJoin repeated=$repeated constant=$constant bound=$withBound")
  }

  test("lookup and classOfName agree with a linear-scan reference on a chased P2.17 instance") {
    // P2.17 with V_exp at the RW_find dims, chased as Rewriter.rewrite does.
    val meta = Tables.b3MetaFor("P2.17")
    val e    = Pipelines.byId("P2.17")
    for (est <- Seq[() => Estimator](() => NaiveEstimator, () => new MNCEstimator)) {
      val i = new Instance(est())
      Pipelines.vexp.foreach(v => Encoder.encodeView(i, v.name, v.body, meta.get))
      Encoder.encode(i, e, meta.get)
      Chase.run(i, Catalog.all, maxRounds = 4, maxFacts = 5000, deadlineMillis = 15000,
                threshold = CostModel.gamma(e, meta.get, est()).cost)

      // Reference: the first fact in insertion order with the same key classes.
      def first(rel: String, keyPos: Vector[Int], key: Vector[Int]): Option[Vector[Int]] =
        i.facts(rel).find(g => keyPos.indices.forall(k => i.find(g(keyPos(k))) == i.find(key(k))))
      val checked = for (fd <- VREM.functional; f <- i.facts(fd.rel)) yield {
        val key = fd.key.map(p => i.find(f(p)))
        assert(i.lookup(fd.rel, fd.key, key) == first(fd.rel, fd.key, key), s"${fd.rel}$f")
        fd.rel
      }
      val rels = checked.toSet
      assert(rels("name") && rels("multi_M") && rels("tr"), s"coverage: $rels")

      val names = i.facts("name").flatMap(f => i.constOf(f(1)))
      assert(names.contains("V1") && names.contains("D"))
      for (n <- names)
        assert(i.classOfName(n) == first("name", Vector(1), Vector(i.const(n))).map(f => i.find(f(0))), n)
    }
  }
}
