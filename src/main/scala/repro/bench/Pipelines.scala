package repro.bench

import repro.core._
import repro.core.Rewriter.View

/** The paper's workload catalogs.
  *
  *  - [[p1]] / [[p2]]: the 57-pipeline LA benchmark (Tables 2–3),
  *  - [[noViewsExpected]]: the rewrites HADAD is reported to find without
  *    views (Tables 12–13),
  *  - [[vexp]] / [[viewsExpected]]: the view set V_exp (Table 14) and the
  *    view-based rewrites (Table 15).
  *
  * The hybrid micro-benchmark's LA parts (Table 7) live with their RA
  * stages in `repro.hybrid.HybridQueries.queries`.
  *
  * Where a paper table cell is garbled (unbalanced parentheses, obvious
  * typos — see EXPERIMENTS.md notes), the intended expression is used.
  */
object Pipelines {

  private val M = Mat("M"); private val N = Mat("N")
  private val A = Mat("A"); private val B = Mat("B")
  private val C = Mat("C"); private val D = Mat("D")
  private val R = Mat("R"); private val X = Mat("X")
  private val u1 = Mat("u1"); private val v1 = Mat("v1"); private val v2 = Mat("v2")
  private val s1 = Sca("s1"); private val s2 = Sca("s2")

  // ---------------------------------------------------------- Table 2 (P1.*)
  val p1: Vector[(String, Expr)] = Vector(
    "P1.1"  -> T(Mul(M, N)),
    "P1.2"  -> Add(T(A), T(B)),
    "P1.3"  -> Mul(Inv(C), Inv(D)),
    "P1.4"  -> Mul(Add(A, B), v1),
    "P1.5"  -> Inv(Inv(D)),
    "P1.6"  -> Trace(ScaMul(s1, D)),
    "P1.7"  -> T(T(A)),
    "P1.8"  -> Add(ScaMul(s1, A), ScaMul(s2, A)),
    "P1.9"  -> Det(T(D)),
    "P1.10" -> RowSums(T(A)),
    "P1.11" -> RowSums(Add(T(A), T(B))),
    "P1.12" -> ColSums(Mul(M, N)),
    "P1.13" -> Sum(Mul(M, N)),
    "P1.14" -> Sum(ColSums(Mul(T(N), T(M)))),
    "P1.15" -> Mul(Mul(M, N), M),
    "P1.16" -> Sum(T(A)),
    "P1.17" -> Det(Mul(Mul(C, D), C)),
    "P1.18" -> Sum(ColSums(A)),
    "P1.19" -> Inv(T(C)),
    "P1.20" -> Trace(Inv(C)),
    "P1.21" -> T(Add(C, Inv(D))),
    "P1.22" -> Trace(Inv(Add(C, D))),
    "P1.23" -> Det(Add(Inv(Mul(C, D)), D)),
    "P1.24" -> SAdd(Trace(Inv(Mul(C, D))), Trace(D)),
    "P1.25" -> Had(M, Div(T(N), Mul(Mul(M, N), T(N)))),
    "P1.26" -> Had(N, Div(T(M), Mul(Mul(T(M), M), N))),
    "P1.27" -> Trace(Mul(D, T(Mul(C, D)))),
    "P1.28" -> Had(A, Add(Had(A, B), A)),
    "P1.29" -> Mul(Mul(Mul(D, C), C), C),
    "P1.30" -> Had(Mul(N, M), Mul(Mul(N, M), T(R))),
  )

  // ---------------------------------------------------------- Table 3 (P2.*)
  val p2: Vector[(String, Expr)] = Vector(
    "P2.1"  -> Trace(Add(C, D)),
    "P2.2"  -> Det(Inv(D)),
    "P2.3"  -> Trace(T(D)),
    "P2.4"  -> Add(ScaMul(s1, A), ScaMul(s1, B)),
    "P2.5"  -> Det(Inv(Add(C, D))),
    "P2.6"  -> Mul(T(C), Inv(T(D))),
    "P2.7"  -> Mul(Mul(D, Inv(D)), C),
    "P2.8"  -> Det(Mul(T(C), D)),
    "P2.9"  -> Trace(Add(Mul(T(C), T(D)), D)),
    "P2.10" -> RowSums(Mul(M, N)),
    "P2.11" -> Sum(Add(A, B)),
    "P2.12" -> Sum(RowSums(Mul(T(N), T(M)))),
    "P2.13" -> T(Mul(Mul(M, N), M)),
    "P2.14" -> Mul(Mul(Mul(M, N), M), N),
    "P2.15" -> Sum(RowSums(A)),
    "P2.16" -> SAdd(Trace(Mul(Inv(C), Inv(D))), Trace(D)),
    "P2.17" -> Mul(Mul(Mul(T(Inv(Add(C, D))), Inv(Inv(D))), Inv(C)), C),
    "P2.18" -> ColSums(Add(T(A), T(B))),
    "P2.19" -> Inv(Mul(T(C), D)),
    "P2.20" -> T(Mul(M, Mul(N, M))),
    "P2.21" -> Mul(Inv(Mul(T(D), D)), Mul(T(D), v1)),
    "P2.22" -> Exp(T(Add(C, D))),
    "P2.23" -> SMul(SMul(Det(C), Det(D)), Det(C)),
    "P2.24" -> T(Mul(Inv(D), C)),
    "P2.25" -> Mul(Sub(Mul(u1, T(v2)), X), v2),
    "P2.26" -> Exp(Inv(Add(C, D))),
    "P2.27" -> Mul(Mul(Inv(T(Add(C, D))), D), C),
  )

  val all: Vector[(String, Expr)] = p1 ++ p2

  def byId(id: String): Expr =
    all.collectFirst { case (i, e) if i == id => e }
      .getOrElse(sys.error(s"unknown pipeline $id"))

  // ------------------------------------- Tables 12–13: rewrites without views
  /** The paper's reported no-views rewrites for P^¬Opt (38 pipelines).
    * HADAD must find a rewriting that is numerically equivalent and at most
    * this expensive under the cost model.
    */
  val noViewsExpected: Map[String, Expr] = Map(
    "P1.1"  -> Mul(T(N), T(M)),
    "P1.2"  -> T(Add(A, B)),
    "P1.3"  -> Inv(Mul(D, C)),
    "P1.4"  -> Add(Mul(A, v1), Mul(B, v1)),
    "P1.5"  -> D,
    "P1.6"  -> SMul(s1, Trace(D)),
    "P1.7"  -> A,
    "P1.8"  -> ScaMul(SAdd(s1, s2), A),
    "P1.9"  -> Det(D),
    "P1.10" -> T(ColSums(A)),
    "P1.11" -> T(ColSums(Add(A, B))),
    "P1.12" -> Mul(ColSums(M), N),
    "P1.13" -> Sum(Had(T(ColSums(M)), RowSums(N))),
    "P1.14" -> Sum(Had(T(ColSums(M)), RowSums(N))),
    "P1.15" -> Mul(M, Mul(N, M)),
    "P1.16" -> Sum(A),
    "P1.17" -> SMul(SMul(Det(C), Det(D)), Det(C)),
    "P1.18" -> Sum(A),
    "P1.25" -> Had(M, Div(T(N), Mul(M, Mul(N, T(N))))),
    "P2.1"  -> SAdd(Trace(C), Trace(D)),
    "P2.2"  -> SInv(Det(D)),
    "P2.3"  -> Trace(D),
    "P2.4"  -> ScaMul(s1, Add(A, B)),
    "P2.5"  -> SInv(Det(Add(C, D))),
    "P2.6"  -> T(Mul(Inv(D), C)),
    "P2.7"  -> C,
    "P2.8"  -> SMul(Det(C), Det(D)),
    "P2.9"  -> SAdd(Trace(Mul(D, C)), Trace(D)),
    "P2.10" -> Mul(M, RowSums(N)),
    "P2.11" -> SAdd(Sum(A), Sum(B)),
    "P2.12" -> Sum(Had(T(ColSums(M)), RowSums(N))),
    "P2.13" -> T(Mul(M, Mul(N, M))),
    "P2.14" -> Mul(Mul(M, Mul(N, M)), N),
    "P2.15" -> Sum(A),
    "P2.16" -> SAdd(Trace(Inv(Mul(D, C))), Trace(D)),
    "P2.17" -> Mul(T(Inv(Add(C, D))), D),
    "P2.18" -> T(RowSums(Add(A, B))),
    "P2.25" -> Sub(Mul(u1, Mul(T(v2), v2)), Mul(X, v2)),
  )

  /** P^¬Opt — pipelines improvable by LA properties alone (§9.1.1). */
  val notOptIds: Vector[String] = (p1 ++ p2).map(_._1).filter(noViewsExpected.contains)

  /** P^Opt — already-optimal pipelines, used for the overhead study (§9.1.3). */
  val optIds: Vector[String] = (p1 ++ p2).map(_._1).filterNot(noViewsExpected.contains)

  // ----------------------------------------------- Table 14: the view set V_exp
  val vexp: Vector[View] = Vector(
    View("V1",  Inv(D)),
    View("V2",  Inv(T(C))),
    View("V3",  Mul(N, M)),
    View("V4",  Mul(u1, T(v2))),
    View("V5",  Mul(D, C)),
    View("V6",  Add(A, B)),
    View("V7",  Inv(C)),
    View("V8",  Mul(T(C), D)),
    View("V9",  Inv(Add(D, C))),
    View("V10", Det(Mul(C, D))),
    View("V11", Det(Mul(D, C))),
    View("V12", T(Mul(D, C))),
  )

  // ------------------------------------------ Table 15: view-based rewrites
  /** Paper-reported rewrites of P^Views using V_exp. (P1.23's cell reads
    * det((V7·V1)+D); (CD)⁻¹ = D⁻¹C⁻¹ = V1·V7, so the corrected form is used.)
    */
  val viewsExpected: Map[String, Expr] = Map(
    "P1.2"  -> T(Mat("V6")),
    "P1.3"  -> Mul(Mat("V7"), Mat("V1")),
    "P1.4"  -> Mul(Mat("V6"), v1),
    "P1.11" -> T(ColSums(Mat("V6"))),
    "P1.15" -> Mul(M, Mat("V3")),
    "P1.17" -> SMul(Mat("V10"), Det(C)),
    "P1.19" -> Mat("V2"),
    "P1.20" -> Trace(Mat("V7")),
    "P1.21" -> T(Add(C, Mat("V1"))),
    "P1.22" -> Trace(Mat("V9")),
    "P1.23" -> Det(Add(Mul(Mat("V1"), Mat("V7")), D)),
    "P1.24" -> SAdd(Trace(Mul(Mat("V1"), Mat("V7"))), Trace(D)),
    // Table 15's cell reads "V5CCC"; with V5 = DC the correct form of DCCC
    // is (V5·C)·C.
    "P1.29" -> Mul(Mul(Mat("V5"), C), C),
    "P1.30" -> Had(Mat("V3"), Mul(Mat("V3"), T(R))),
    "P2.2"  -> Det(Mat("V1")),
    "P2.4"  -> ScaMul(s1, Mat("V6")),
    "P2.5"  -> Det(Mat("V9")),
    "P2.6"  -> T(Mul(Mat("V1"), C)),
    "P2.9"  -> SAdd(Trace(Mat("V12")), Trace(D)),
    "P2.11" -> Sum(Mat("V6")),
    "P2.13" -> T(Mul(M, Mat("V3"))),
    "P2.14" -> Mul(Mul(M, Mat("V3")), N),
    "P2.16" -> SAdd(Trace(Mul(Mat("V7"), Mat("V1"))), Trace(D)),
    "P2.17" -> Mul(T(Mat("V9")), D),
    "P2.18" -> T(RowSums(Mat("V6"))),
    "P2.20" -> T(Mul(M, Mat("V3"))),
    "P2.21" -> Mul(Mat("V1"), Mul(T(Mat("V1")), Mul(T(D), v1))),
    "P2.25" -> Sub(Mul(Mat("V4"), v2), Mul(X, v2)),
    "P2.26" -> Exp(Mat("V9")),
    "P2.27" -> Mul(T(Mat("V9")), Mat("V5")),
  )

  /** P^Views — the 30 pipelines the paper answers with V_exp (§9.1.2). */
  val viewsIds: Vector[String] = (p1 ++ p2).map(_._1).filter(viewsExpected.contains)
}
