package repro.core

import scala.language.implicitConversions

import Constraints.{egd, eqv, tgd}

/** The `MMC` constraint catalog: relational encodings of LA properties
  * (paper Tables 8–9), matrix decompositions (Table 10), SystemML's
  * statistical/aggregate rewrite rules (`MMC_StatAgg`, Table 11), and
  * Morpheus's factorized-learning rules (§9.2.2). Each fact is stated once:
  * an equivalence the search traverses both ways is one `eqv` row, which
  * yields the TGD and its exact swap (the restricted chase keeps the pair
  * terminating), and no row is derivable from the others within the
  * rewriter's budget (`CatalogMinimalSpec`; `CatalogSoundSpec` checks each
  * row numerically). A TGD whose premise has no constructor atom (Cholesky,
  * QR/LU, Morpheus `norm`) is definitional, so Prune_prov never cuts it.
  *
  * Functionality EGDs (the paper's I_{multi_M}, I_name, …) are not listed
  * here: they are schema knowledge, declared once in `VREM.functional`.
  */
object Catalog {

  // A group lists single rows and `eqv` pairs; a single row is a group of one.
  private implicit def row(c: Constraint): Seq[Constraint] = Seq(c)
  private def rows(rs: Seq[Constraint]*): Seq[Constraint] = rs.flatten

  // ---------------------------------------------------------------- addition
  val addition: Seq[Constraint] = rows(
    tgd("add-comm")("add_M(M,N,R)")("add_M(N,M,R)"),
    // (M+N)+D = M+(N+D); with add-comm it also regroups the other way.
    tgd("add-assoc-1")("add_M(M,N,R1)", "add_M(R1,D,R2)")(
        "add_M(N,D,R3)", "add_M(M,R3,R2)"),
    // c(M+N) = cM + cN
    eqv("smul-dist-add", "smul-factor-add")("add_M(M,N,R1)", "multi_MS(c,R1,R2)")(
        "multi_MS(c,M,R3)", "multi_MS(c,N,R4)", "add_M(R3,R4,R2)"),
    // (c+d)M = cM + dM
    eqv("sadd-dist", "sadd-factor")("add_S(c,d,s)", "multi_MS(s,M,R1)")(
        "multi_MS(c,M,R2)", "multi_MS(d,M,R3)", "add_M(R2,R3,R1)"),
  )

  // ----------------------------------------------------------------- product
  val product: Seq[Constraint] = rows(
    // (MN)D = M(ND)
    eqv("mul-assoc-1", "mul-assoc-2")("multi_M(M,N,R1)", "multi_M(R1,D,R2)")(
        "multi_M(N,D,R3)", "multi_M(M,R3,R2)"),
    // M(N+D) = MN + MD
    eqv("mul-dist-left", "mul-factor-left")("add_M(N,D,R1)", "multi_M(M,R1,R2)")(
        "multi_M(M,N,R3)", "multi_M(M,D,R4)", "add_M(R3,R4,R2)"),
    // (M+N)D = MD + ND
    eqv("mul-dist-right", "mul-factor-right")("add_M(M,N,R1)", "multi_M(R1,D,R2)")(
        "multi_M(M,D,R3)", "multi_M(N,D,R4)", "add_M(R3,R4,R2)"),
    // (M-N)D = MD - ND (subtraction mirrors addition distributivity)
    eqv("minus-dist-right", "minus-factor-right")("minus_M(M,N,R1)", "multi_M(R1,D,R2)")(
        "multi_M(M,D,R3)", "multi_M(N,D,R4)", "minus_M(R3,R4,R2)"),
    tgd("minus-dist-left")("minus_M(N,D,R1)", "multi_M(M,R1,R2)")(
        "multi_M(M,N,R3)", "multi_M(M,D,R4)", "minus_M(R3,R4,R2)"),
    // d(MN) = (dM)N
    eqv("smul-assoc-mul", "smul-assoc-mul-rev")("multi_M(M,N,R1)", "multi_MS(d,R1,R2)")(
        "multi_MS(d,M,R3)", "multi_M(R3,N,R2)"),
    // c(dM) = (cd)M
    tgd("smul-smul")("multi_MS(d,M,R1)", "multi_MS(c,R1,R2)")(
        "multi_S(c,d,s)", "multi_MS(s,M,R2)"),
    // M⁻¹M = I (MM⁻¹ = I follows with inv-invol) and IM = M = MI
    tgd("inv-left-identity")("inv_M(M,R1)", "multi_M(R1,M,R2)")("Identity(R2)"),
    egd("identity-mul-left")("Identity(I)", "multi_M(I,M,R)")("R=M"),
    egd("identity-mul-right")("Identity(I)", "multi_M(M,I,R)")("R=M"),
  )

  // ------------------------------------------------------------ transposition
  val transposition: Seq[Constraint] = rows(
    // (Mᵀ)ᵀ = M, stated as an involution (valid for all matrices).
    tgd("tr-invol")("tr(M,R)")("tr(R,M)"),
    // (MN)ᵀ = NᵀMᵀ
    eqv("tr-mul", "tr-mul-rev")("multi_M(M,N,R1)", "tr(R1,R2)")(
        "tr(M,R3)", "tr(N,R4)", "multi_M(R4,R3,R2)"),
    // (M+N)ᵀ = Mᵀ + Nᵀ
    eqv("tr-add", "tr-add-rev")("add_M(M,N,R1)", "tr(R1,R2)")(
        "tr(M,R3)", "tr(N,R4)", "add_M(R3,R4,R2)"),
    tgd("tr-minus")("minus_M(M,N,R1)", "tr(R1,R2)")(
        "tr(M,R3)", "tr(N,R4)", "minus_M(R3,R4,R2)"),
    // (cM)ᵀ = cMᵀ
    eqv("tr-smul", "tr-smul-rev")("multi_MS(c,M,R1)", "tr(R1,R2)")(
        "tr(M,R3)", "multi_MS(c,R3,R2)"),
    // (M⊙N)ᵀ = Mᵀ⊙Nᵀ
    tgd("tr-had")("multi_E(M,N,R1)", "tr(R1,R2)")(
        "tr(M,R3)", "tr(N,R4)", "multi_E(R3,R4,R2)"),
    tgd("had-comm")("multi_E(M,N,R)")("multi_E(N,M,R)"),
  )

  // ----------------------------------------------------------------- inverses
  val inverses: Seq[Constraint] = rows(
    // (M⁻¹)⁻¹ = M (involution over the invertible domain the paper assumes).
    tgd("inv-invol")("inv_M(M,R)")("inv_M(R,M)"),
    // (MN)⁻¹ = N⁻¹M⁻¹
    eqv("inv-mul", "inv-mul-rev")("multi_M(M,N,R1)", "inv_M(R1,R2)")(
        "inv_M(M,R3)", "inv_M(N,R4)", "multi_M(R4,R3,R2)"),
    // (M⁻¹)ᵀ = (Mᵀ)⁻¹; the other direction follows with the involutions.
    tgd("inv-tr-rev")("inv_M(M,R3)", "tr(R3,R2)")("tr(M,R1)", "inv_M(R1,R2)"),
    // (kM)⁻¹ = k⁻¹M⁻¹
    tgd("inv-smul")("multi_MS(k,M,R1)", "inv_M(R1,R2)")(
        "inv_S(k,s)", "inv_M(M,R3)", "multi_MS(s,R3,R2)"),
  )

  // -------------------------------------------------------------- determinant
  val determinant: Seq[Constraint] = Seq(
    tgd("det-mul")("multi_M(M,N,R1)", "det(R1,d)")(
        "det(M,d1)", "det(N,d2)", "multi_S(d1,d2,d)"),
    tgd("det-tr")("tr(M,R1)", "det(R1,d)")("det(M,d)"),
    tgd("det-inv")("inv_M(M,R1)", "det(R1,d)")("det(M,d1)", "inv_S(d1,d)"),
  )

  // -------------------------------------------------------------------- trace
  val trace: Seq[Constraint] = Seq(
    tgd("trace-add")("add_M(M,N,R1)", "trace(R1,s)")(
        "trace(M,s1)", "trace(N,s2)", "add_S(s1,s2,s)"),
    // Reverse direction is valid only for same-shape operands — guard on size
    // (trace alone also matches 1x1 classes from scalar-valued expressions).
    tgd("trace-add-rev")("trace(M,s1)", "trace(N,s2)", "add_S(s1,s2,s)",
                         "size(M,k,z)", "size(N,k,z)")(
        "add_M(M,N,R1)", "trace(R1,s)"),
    tgd("trace-mul-comm")("multi_M(M,N,R1)", "trace(R1,s)")(
        "multi_M(N,M,R2)", "trace(R2,s)"),
    tgd("trace-tr")("tr(M,R1)", "trace(R1,s)")("trace(M,s)"),
    tgd("trace-smul")("multi_MS(c,M,R1)", "trace(R1,s)")(
        "trace(M,s2)", "multi_S(c,s2,s)"),
  )

  // -------------------------------------------------------- exponential & misc
  val misc: Seq[Constraint] = rows(
    eqv("exp-tr", "exp-tr-rev")("tr(M,R1)", "exp(R1,R2)")("exp(M,R3)", "tr(R3,R2)"),
    tgd("smul-comm")("multi_S(a,b,c)")("multi_S(b,a,c)"),
    tgd("sadd-comm")("add_S(a,b,c)")("add_S(b,a,c)"),
  )

  /** `MMC_LAprop` — paper Tables 8–9. */
  val laProperties: Seq[Constraint] =
    addition ++ product ++ transposition ++ inverses ++ determinant ++ trace ++ misc

  // --------------------------------------------- SystemML rules (Table 11)
  val statAgg: Seq[Constraint] = rows(
    // Unnecessary aggregates.
    tgd("sum-tr")("tr(M,R1)", "sum(R1,s)")("sum(M,s)"),
    tgd("sum-rowSums")("rowSums(M,R1)", "sum(R1,s)")("sum(M,s)"),
    tgd("sum-colSums")("colSums(M,R1)", "sum(R1,s)")("sum(M,s)"),
    // pushdownUnaryAggTransposeOp.
    eqv("rowSums-tr", "rowSums-tr-rev")("tr(M,R1)", "rowSums(R1,R2)")("colSums(M,R3)", "tr(R3,R2)"),
    eqv("colSums-tr", "colSums-tr-rev")("tr(M,R1)", "colSums(R1,R2)")("rowSums(M,R3)", "tr(R3,R2)"),
    // simplifyTraceMatrixMult: trace(MN) = sum(M ⊙ Nᵀ).
    tgd("trace-mul-had")("multi_M(M,N,R1)", "trace(R1,s)")(
        "tr(N,R2)", "multi_E(M,R2,R3)", "sum(R3,s)"),
    // simplifySumMatrixMult: sum(MN) = sum(colSums(M)ᵀ ⊙ rowSums(N)).
    eqv("sum-mul", "sum-mul-rev")("multi_M(M,N,R1)", "sum(R1,s)")(
        "colSums(M,R2)", "tr(R2,R3)", "rowSums(N,R4)", "multi_E(R3,R4,R5)", "sum(R5,s)"),
    // colSums(MN) = colSums(M)N ; rowSums(MN) = M rowSums(N).
    eqv("colSums-mul", "colSums-mul-rev")("multi_M(M,N,R1)", "colSums(R1,R2)")(
        "colSums(M,R3)", "multi_M(R3,N,R2)"),
    eqv("rowSums-mul", "rowSums-mul-rev")("multi_M(M,N,R1)", "rowSums(R1,R2)")(
        "rowSums(N,R3)", "multi_M(M,R3,R2)"),
    // pushdownSumOnAdd: sum(M+N) = sum(M)+sum(N).
    tgd("sum-add")("add_M(M,N,R1)", "sum(R1,s)")(
        "sum(M,s1)", "sum(N,s2)", "add_S(s1,s2,s)"),
    tgd("sum-add-rev")("sum(M,s1)", "sum(N,s2)", "add_S(s1,s2,s)",
                       "size(M,k,z)", "size(N,k,z)")(
        "add_M(M,N,R1)", "sum(R1,s)"),
    // Vector special cases (size-guarded).
    egd("colSums-rowvec")("size(M,\"1\",j)", "colSums(M,R)")("R=M"),
    egd("rowSums-colvec")("size(M,i,\"1\")", "rowSums(M,R)")("R=M"),
    egd("sum-scalar")("size(M,\"1\",\"1\")", "sum(M,s)")("s=M"),
  )

  // ------------------------------------------------ decompositions (Table 10)
  // Cholesky is guarded by explicit `type(M,"S")` declarations, so it is safe
  // in the default set.
  val cholesky: Seq[Constraint] = Seq(
    tgd("cho-def")("type(M,\"S\")")(
        "cho(M,L1)", "type(L1,\"L\")", "tr(L1,L2)", "multi_M(L1,L2,M)"),
  )

  // QR/LU fire on *every* named square matrix (their premise is just
  // name+square size), so they are opt-in — pass them explicitly when a
  // workload reasons about decompositions.
  val qrlu: Seq[Constraint] = Seq(
    // QR over square matrices, with the fixed-point rules (6)–(9).
    tgd("qr-def")("name(M,n)", "size(M,k,k)")(
        "QR(M,Q,R)", "type(Q,\"O\")", "type(R,\"U\")", "multi_M(Q,R,M)"),
    tgd("qr-orth")("type(Q,\"O\")")("QR(Q,Q,I)", "Identity(I)", "multi_M(Q,I,Q)"),
    tgd("qr-upper")("type(R,\"U\")")("QR(R,I,R)", "Identity(I)", "multi_M(I,R,R)"),
    tgd("qr-identity")("Identity(I)")("QR(I,I,I)"),
    // LU over square matrices, with its fixed-point rules.
    tgd("lu-def")("name(M,n)", "size(M,k,k)")(
        "LU(M,L,U)", "type(L,\"L\")", "type(U,\"U\")", "multi_M(L,U,M)"),
    tgd("lu-lower")("type(L,\"L\")")("LU(L,L,I)", "Identity(I)", "multi_M(L,I,L)"),
    tgd("lu-upper")("type(U,\"U\")")("LU(U,I,U)", "Identity(I)", "multi_M(I,U,U)"),
    tgd("lu-identity")("Identity(I)")("LU(I,I,I)"),
    // Identity uniqueness per size (I_iden).
    egd("iden-unique")("Identity(I1)", "size(I1,k,k)", "Identity(I2)", "size(I2,k,k)")("I1=I2"),
    egd("zero-unique")("Zero(O1)", "size(O1,k,z)", "Zero(O2)", "size(O2,k,z)")("O1=O2"),
  )

  // --------------------------------------- Morpheus factorized rules (§9.2)
  // A PK-FK-joined matrix M = cbind(S, K·R) is declared by a `norm` fact;
  // pushdown rules are cbind distribution laws.
  val morpheus: Seq[Constraint] = Seq(
    tgd("norm-def")("norm(M,S,K,R)")("multi_M(K,R,P)", "cbind(S,P,M)"),
    tgd("cbind-rowSums")("cbind(A,B,R1)", "rowSums(R1,R2)")(
        "rowSums(A,Ra)", "rowSums(B,Rb)", "add_M(Ra,Rb,R2)"),
    tgd("cbind-colSums")("cbind(A,B,R1)", "colSums(R1,R2)")(
        "colSums(A,Ra)", "colSums(B,Rb)", "cbind(Ra,Rb,R2)"),
    tgd("cbind-sum")("cbind(A,B,R1)", "sum(R1,s)")(
        "sum(A,s1)", "sum(B,s2)", "add_S(s1,s2,s)"),
    // C · cbind(A,B) = cbind(CA, CB).
    tgd("cbind-lmul")("cbind(A,B,R1)", "multi_M(C,R1,R2)")(
        "multi_M(C,A,Ra)", "multi_M(C,B,Rb)", "cbind(Ra,Rb,R2)"),
  )

  /** The default knowledge base (QR/LU are opt-in, see [[qrlu]]). */
  val all: Seq[Constraint] = laProperties ++ statAgg ++ cholesky ++ morpheus

  /** Constraint by name, for targeted tests. */
  def byName(n: String): Constraint =
    all.find(_.name == n).getOrElse(sys.error(s"no constraint named $n"))
}
