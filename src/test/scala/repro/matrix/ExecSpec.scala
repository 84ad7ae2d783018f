package repro.matrix

import breeze.linalg.DenseMatrix
import repro.SparkSpec
import repro.core._
import repro.core.Rewriter.View
import repro.hybrid.HybridQueries
import repro.matrix.Exec.{EVal, MatV, ScaV}

/** The distributed as-stated executor agrees with the local dense executor
  * on whole pipelines, and its materialization stats reflect intermediate
  * sizes (the quantity HADAD optimizes). Operator placement changes neither
  * the steps nor the values: each plan runs all on Spark, all in driver
  * memory, and split between the two.
  */
class ExecSpec extends SparkSpec {

  private lazy val envB: Map[String, DenseMatrix[Double]] = Map(
    "M" -> LocalExec.rand(24, 6, 1),
    "N" -> LocalExec.rand(6, 24, 2),
    "C" -> LocalExec.randSPD(8, 3),
    "D" -> LocalExec.randSPD(8, 4),
    "v" -> LocalExec.rand(6, 1, 5),
    "P" -> LocalExec.randSparse(24, 6, 0.3, 6),
  )
  private lazy val envSpark: Exec.Env =
    envB.map { case (n, m) => n -> (MatV(COOMatrix.fromBreeze(spark, m)): EVal) } + ("s1" -> ScaV(1.7))
  private lazy val envLocal: LocalExec.Env =
    envB.map { case (n, m) => n -> (LocalExec.LMat(m): LocalExec.LVal) } + ("s1" -> LocalExec.LSca(1.7))

  /** Operator nodes of `e` in evaluation (post-)order. */
  private def nodes(e: Expr): Seq[Node] = e match {
    case n: Node => n.children.flatMap(nodes) :+ n
    case _       => Nil
  }

  /** The Spark kernels against the oracle: every data-parallel node placed on Spark. */
  private def check(e: Expr, tol: Double): Unit = {
    val run = Exec.run(e, envSpark, _ => false)
    val exp = LocalExec.eval(e, envLocal)
    val d = (run.value, exp) match {
      case (ScaV(x), LocalExec.LSca(y)) => math.abs(x - y)
      case (MatV(m), lv)                =>
        breeze.linalg.max(breeze.numerics.abs(m.local.values - LocalExec.asMat(lv)))
      case other                        => fail(s"value kind mismatch: $other")
    }
    assert(d < tol, s"${e.render}: diff $d")
    assert(run.steps.map(_.op) == nodes(e).map(_.rel), e.render)
  }

  private val (m, n, c, d, v, p) = (Mat("M"), Mat("N"), Mat("C"), Mat("D"), Mat("v"), Mat("P"))
  private def tight(es: Expr*): Seq[(Expr, Double)] = es.map(_ -> 1e-8)

  /** Exec-vs-LocalExec agreement cases: name, then each pipeline with its tolerance. */
  private val agreement: Seq[(String, Seq[(Expr, Double)])] = Seq(
    "(MN)M as stated"               -> tight(Mul(Mul(m, n), m)),
    "M(NM) rewritten order"         -> tight(Mul(m, Mul(n, m))),
    "sum(MN)"                       -> tight(Sum(Mul(m, n))),
    "sum(t(colSums(M))*rowSums(N))" -> tight(Sum(Had(T(ColSums(m)), RowSums(n)))),
    "inv(C) inv(D) vs inv(DC)"      -> Seq(Mul(Inv(c), Inv(d)) -> 1e-6, Inv(Mul(d, c)) -> 1e-6),
    "trace and det pipelines"       ->
      Seq(SAdd(Trace(Inv(Mul(c, d))), Trace(d)) -> 1e-6, SMul(Det(c), Det(d)) -> 1e-3),
    "(A+B)v vs Av+Bv"               -> tight(Mul(Add(m, m), v), Add(Mul(m, v), Mul(m, v))),
    "element-wise sub, div and exp" -> tight(Sub(m, Had(m, m)), Div(m, Exp(m))),
    "scalar times matrix, scalar inverse" -> tight(ScaMul(SInv(Sum(m)), m)),
    "diag, cbind and cholesky"      -> tight(Diag(c), CBind(m, m), Cho(c)),
    // Both engines follow Eval's scalar rule. sum(v), not sum(M), keeps
    // exp's result small enough for an absolute tolerance.
    "scalar inputs to matrix operators" -> {
      val s = Sum(v)
      tight(T(s), Exp(s), Diag(s), RowSums(s), ColSums(s), Det(s), Trace(s), Cho(s),
            CBind(Sum(m), Sum(n)), ScaMul(Sca("s1"), Sum(m)))
    },
  )

  agreement.foreach { case (name, cases) => test(name)(cases.foreach((check _).tupled)) }

  test("agreement cases cover every VREM operator") {
    assert(agreement.flatMap(_._2).map(_._1).flatMap(nodes).map(_.rel).toSet == VREM.ctors.keySet)
  }

  test("Result.steps has one entry per operator node") {
    val r = Exec.run(SAdd(Sum(Mul(m, n)), Trace(c)), envSpark)
    assert(r.steps == Vector(Exec.Step("multi_M", 24 * 24, 24 * 6 * 24), Exec.Step("sum", 1),
                             Exec.Step("trace", 1), Exec.Step("add_S", 1)))
  }

  test("materialization stats grow with intermediate size") {
    val asStated = Exec.run(Mul(Mul(m, n), m), envSpark)
    val rewritten = Exec.run(Mul(m, Mul(n, m)), envSpark)
    // (MN) is 24x24=576 cells; (NM) is 6x6=36 — the rewrite materializes less.
    assert(asStated.totalCells > rewritten.totalCells,
           s"${asStated.totalCells} vs ${rewritten.totalCells}")
  }

  test("scalar results surface through Result.scalar") {
    val r = Exec.run(Sum(m), envSpark)
    assert(math.abs(r.scalar - breeze.linalg.sum(envB("M"))) < 1e-8)
  }

  // Placement: each kernel call runs in driver memory or on Spark by its work.

  private type Place = Double => Boolean

  test("Result.scalar reads a 1x1 matrix, 0 with no stored cell, under any placement") {
    val vv = breeze.linalg.sum(envB("v") *:* envB("v"))
    for (place <- Seq[Place](_ <= Exec.LocalWork, _ => false)) {
      // E is 1x1 over an empty frame: fromBreeze stores no cell for the 0.
      val env = cold(envB + ("E" -> DenseMatrix.zeros[Double](1, 1)))
      val r   = Exec.run(Mul(T(v), v), env, place)
      assert(r.value.fold(_ => false, x => x.rows == 1 && x.cols == 1))
      assert(math.abs(r.scalar - vv) < 1e-8)
      // SInv reads its 1x1 matrix operand through the kernels' `scalar`.
      assert(math.abs(Exec.run(SInv(Mul(T(v), v)), env, place).scalar - 1.0 / vv) < 1e-12)
      val e = Exec.run(T(Mat("E")), env, place)
      assert(e.steps == Vector(Exec.Step("tr", 0)) && e.scalar == 0.0)
    }
    // A wrong shape fails before its cells are collected.
    val env  = cold(envB)
    val leaf = env("M").fold(_ => fail("M is a matrix"), identity)
    intercept[IllegalArgumentException](Exec.run(m, env).scalar)
    assert(!leaf.isLocal)
  }

  test("Step.pairs of a product equals Ops.multiplyPairs, placed locally or on Spark") {
    // N is dense, so P·N pairs each stored cell of P with N's 24 columns.
    val want = 24L * envB("P").activeValuesIterator.count(_ != 0.0)
    for (place <- Seq[Place](_ => true, _ => false)) {
      val env = cold(envB)
      def leaf(name: String) = env(name).fold(_ => fail(s"$name is a matrix"), identity)
      val r = Exec.run(Mul(p, n), env, place)
      assert(r.steps.map(_.pairs) == Vector(want))
      assert(Ops.multiplyPairs(leaf("P"), leaf("N")) == want)
      // A scalar operand makes a scalar multiply: no pairs.
      assert(Exec.run(Mul(Sum(v), m), env, place).steps.map(_.pairs) == Vector(0L, 0L))
    }
  }

  /** Spark values with no local copy, so that a local node must collect them. */
  private def cold(ms: Map[String, DenseMatrix[Double]]): Exec.Env = ms.map { case (name, x) =>
    name -> (MatV(COOMatrix(COOMatrix.fromBreeze(spark, x).df, x.rows.toLong, x.cols.toLong)): EVal)
  }

  /** The views, then `e`, each run under `place`: every run's steps and `e`'s value. */
  private def runWith(e: Expr, views: Seq[View], env: Exec.Env, place: Place): (Vector[Exec.Step], EVal) = {
    val (full, viewSteps) = views.foldLeft((env, Vector.empty[Exec.Step])) { case ((en, st), view) =>
      val r = Exec.run(view.body, en, place)
      (en + (view.name -> r.value), st ++ r.steps)
    }
    val r = Exec.run(e, full, place)
    (viewSteps ++ r.steps, r.value)
  }

  private def asBreeze(x: EVal): DenseMatrix[Double] = x.fold(DenseMatrix.fill(1, 1)(_), _.local.values)

  /** Runs `e` (after `views`) all on Spark, all local, split at the lower
    * median of its kernels' works, and alternating call by call; asserts the
    * same steps (op and cells), the same non-finite cells, and finite values
    * within `tol`, relative to the largest finite magnitude. Returns whether
    * the split put work on both sides.
    */
  private def crossCheck(label: String, e: Expr, views: Seq[View], env: () => Exec.Env,
                         tol: Double): Boolean = {
    val works = scala.collection.mutable.ArrayBuffer[Double]()
    val (steps0, v0) = runWith(e, views, env(), { w => works += w; false })
    val ws    = works.distinct.sorted
    // A plan of Breeze-only kernels (det(C)·det(D)) places nothing, so any bound does.
    val bound = if (ws.isEmpty) 0.0 else ws((ws.size - 1) / 2)
    var calls = 0
    val others: Seq[(String, Place)] = Seq(
      "all local"     -> (_ => true),
      s"work <= $bound" -> (_ <= bound),
      "alternating"   -> { _ => calls += 1; calls % 2 == 0 },
    )
    val expected = asBreeze(v0)
    val finite   = expected.toArray.filter(x => !x.isNaN && !x.isInfinite)
    val scale    = (1.0 +: finite.map(math.abs)).max
    for ((name, place) <- others) {
      val (steps, v1) = runWith(e, views, env(), place)
      assert(steps == steps0, s"$label [$name]: steps differ from all-Spark's")
      assert(v0.fold(_ => "scalar", _ => "matrix") == v1.fold(_ => "scalar", _ => "matrix"), label)
      val got = asBreeze(v1)
      assert(got.rows == expected.rows && got.cols == expected.cols, s"$label [$name]: shape")
      for (i <- 0 until got.rows; j <- 0 until got.cols) {
        val (x, y) = (got(i, j), expected(i, j))
        if (y.isNaN || y.isInfinite) assert(x.equals(y), s"$label [$name]: ($i,$j) is $x, not $y")
        else assert(math.abs(x - y) <= tol * scale, s"$label [$name]: ($i,$j) is $x, not $y (scale $scale)")
      }
    }
    ws.size > 1
  }

  /** Stored cells whose values are 0: the local side must keep them as COO does. */
  private val storedZeros: Seq[Expr] = Seq(
    Sub(m, m), ScaMul(Lit(0.0), m), Div(m, p), Mul(Sub(m, m), n), RowSums(Sub(m, m)),
    Add(p, ScaMul(Lit(-1.0), p)), Had(m, p), T(Diag(Mul(n, Sub(m, m)))), CBind(p, ScaMul(Lit(0.0), p)),
  )

  test("every agreement case gives the same steps and values under any placement") {
    for ((name, cases) <- agreement; (e, tol) <- cases)
      crossCheck(s"$name: ${e.render}", e, Nil, () => cold(envB) + ("s1" -> ScaV(1.7)), tol)
  }

  test("a stored ±Inf pairs only with stored cells under any placement") {
    // exp(1000·M) overflows to +Inf in some cells; t(P) leaves rows of a
    // product's k unstored, which the COO join never pairs.
    val big = Mul(Exp(ScaMul(Lit(1000.0), m)), T(p))
    assert(crossCheck(big.render, big, Nil, () => cold(envB), 1e-12))
    val inf = Map("A" -> DenseMatrix((Double.PositiveInfinity, 1.0)),
                  "B" -> DenseMatrix((0.0, 5.0), (2.0, 3.0)))
    for (place <- Seq[Place](_ => false, _ => true)) {
      val got = asBreeze(Exec.run(Mul(Mat("A"), Mat("B")), cold(inf), place).value)
      assert(got(0, 0) == 2.0 && got(0, 1) == Double.PositiveInfinity, got.toString)
    }
  }

  test("a NaN from a Breeze-only kernel is stored and matches the oracle under any placement") {
    // exp(1000·M) is +Inf in M's first column, so the stored cells of the
    // difference hold Inf − Inf = NaN, which exp keeps.
    val big = ScaMul(Lit(1000.0), Mat("A"))
    val e   = Exp(Sub(Exp(big), Exp(big)))
    val a   = Map("A" -> DenseMatrix((1.0, 0.001), (2.0, 0.002)))
    val want = LocalExec.asMat(LocalExec.eval(e, a.map { case (k, x) => k -> LocalExec.LMat(x) }))
    assert(want(0, 0).isNaN && want(1, 0).isNaN && want(0, 1) == 1.0 && want(1, 1) == 1.0, want.toString)
    crossCheck(e.render, e, Nil, () => cold(a), 0.0)
    for (place <- Seq[Place](_ => false, _ => true, _ <= Exec.LocalWork)) {
      val r   = Exec.run(e, cold(a), place)
      val got = asBreeze(r.value)
      for (i <- 0 until 2; j <- 0 until 2)
        assert(got(i, j).isNaN == want(i, j).isNaN && (want(i, j).isNaN || got(i, j) == want(i, j)),
               got.toString)
      assert(r.steps.last == Exec.Step("exp", 4))
    }
  }

  test("stored zeros count as cells under any placement") {
    for (e <- storedZeros) crossCheck(e.render, e, Nil, () => cold(envB), 1e-12)
    val r = Exec.run(Sub(m, m), cold(envB))
    assert(r.steps == Vector(Exec.Step("minus_M", 24 * 6)) && r.value.fold(_ => false, _.isLocal))
  }

  test("Q1-Q10, original and paper rewriting with their views, under any placement") {
    val shape = HybridQueries.Shape(nT = 40, h = 10, k = 16)
    val split = for {
      (q, original, paper) <- HybridQueries.queries
      (form, e)            <- Seq("original" -> original, "paper" -> paper)
    } yield {
      val views = HybridQueries.views(q)
      val leaves = shape.meta(q).filter { case (name, _) => !views.exists(_.name == name) }
      val env = leaves.map { case (name, mm) =>
        val seed = 31L + name.hashCode
        name -> (if (mm.sparsity < 0.5) LocalExec.randSparse(mm.rows.toInt, mm.cols.toInt, 0.3, seed)
                 else LocalExec.rand(mm.rows.toInt, mm.cols.toInt, seed))
      }
      crossCheck(s"$q $form: ${e.render}", e, views, () => cold(env), 1e-9)
    }
    assert(split.forall(identity), "a split bound left some query's nodes all on one side")
  }

  test("default placement keeps small results local; a cold leaf is collected once") {
    val env = cold(envB)
    val leaf = env("M").fold(_ => fail("M is a matrix"), identity)
    assert(!leaf.isLocal)
    val out = Exec.run(Mul(m, n), env).value.fold(_ => fail("M·N is a matrix"), identity)
    assert(out.isLocal && leaf.isLocal)
    val copy = leaf.local
    Exec.run(Add(m, m), env)
    assert(leaf.local eq copy)
    assert(out.df.count() == out.nnz && out.nnz == 24 * 24)
    assert(Exec.run(Mul(m, n), env, _ => false).value.fold(_ => true, _.isLocal) == false)
  }
}
