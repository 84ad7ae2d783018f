package repro.core

/** The VREM schema (Virtual Relational Encoding of Matrices, paper Table 1).
  *
  * Every relation's last-listed "result" argument denotes the equivalence
  * class of the operation's output; all other arguments are input classes or
  * constants. `name`/`sname`/`slit` bind classes to named inputs, `size` and
  * `type` carry metadata used by constraint premises, and `QR`/`LU`/
  * `norm`/`Zero`/`Identity` are reasoning-only relations (they appear in
  * constraints but are never decoded into plan nodes).
  */
object VREM {

  /** Relation name → arity. Unknown relations are rejected at parse time. */
  val arity: Map[String, Int] = Map(
    "name"     -> 2, // name(M, n): matrix/view M is stored under name n
    "sname"    -> 2, // sname(s, n): named scalar constant
    "slit"     -> 2, // slit(s, v): literal scalar with value v (a constant)
    "size"     -> 3, // size(M, k, z)
    "type"     -> 2, // type(M, "S"|"L"|"U"|"O"|"P")
    "multi_M"  -> 3, // matrix product
    "add_M"    -> 3, // matrix addition
    "minus_M"  -> 3, // matrix subtraction
    "div_M"    -> 3, // element-wise division
    "multi_E"  -> 3, // element-wise (Hadamard) product
    "multi_MS" -> 3, // multi_MS(s, M, R): scalar-matrix product
    "tr"       -> 2, // transposition
    "inv_M"    -> 2, // inversion
    "exp"      -> 2, // element exponential
    "diag"     -> 2, // diagonal (as a column vector)
    "det"      -> 2, // determinant (scalar result)
    "trace"    -> 2, // trace (scalar result)
    "sum"      -> 2, // sum of all cells (scalar result)
    "rowSums"  -> 2,
    "colSums"  -> 2,
    "cbind"    -> 3, // column concatenation (Morpheus factorized form)
    "add_S"    -> 3, // scalar addition
    "multi_S"  -> 3, // scalar multiplication
    "inv_S"    -> 2, // scalar reciprocal
    "cho"      -> 2, // Cholesky factor L of M = L Lᵀ
    "QR"       -> 3, // QR(M, Q, R) — reasoning-only
    "LU"       -> 3, // LU(M, L, U) — reasoning-only
    "norm"     -> 4, // norm(M, S, K, R): M = cbind(S, K·R) (Morpheus PK-FK join)
    "Zero"     -> 1,
    "Identity" -> 1,
  )

  /** A decodable plan-node relation: where the result class sits, where the
    * child classes sit, and how to rebuild the AST node from decoded children.
    */
  final case class Ctor(rel: String, resultPos: Int, childPos: Vector[Int],
                        build: Vector[Expr] => Expr)

  val ctors: Map[String, Ctor] = Seq(
    Ctor("multi_M",  2, Vector(0, 1), c => Mul(c(0), c(1))),
    Ctor("add_M",    2, Vector(0, 1), c => Add(c(0), c(1))),
    Ctor("minus_M",  2, Vector(0, 1), c => Sub(c(0), c(1))),
    Ctor("div_M",    2, Vector(0, 1), c => Div(c(0), c(1))),
    Ctor("multi_E",  2, Vector(0, 1), c => Had(c(0), c(1))),
    Ctor("multi_MS", 2, Vector(0, 1), c => ScaMul(c(0), c(1))),
    Ctor("tr",       1, Vector(0),    c => T(c(0))),
    Ctor("inv_M",    1, Vector(0),    c => Inv(c(0))),
    Ctor("exp",      1, Vector(0),    c => Exp(c(0))),
    Ctor("diag",     1, Vector(0),    c => Diag(c(0))),
    Ctor("det",      1, Vector(0),    c => Det(c(0))),
    Ctor("trace",    1, Vector(0),    c => Trace(c(0))),
    Ctor("sum",      1, Vector(0),    c => Sum(c(0))),
    Ctor("rowSums",  1, Vector(0),    c => RowSums(c(0))),
    Ctor("colSums",  1, Vector(0),    c => ColSums(c(0))),
    Ctor("cbind",    2, Vector(0, 1), c => CBind(c(0), c(1))),
    Ctor("add_S",    2, Vector(0, 1), c => SAdd(c(0), c(1))),
    Ctor("multi_S",  2, Vector(0, 1), c => SMul(c(0), c(1))),
    Ctor("inv_S",    1, Vector(0),    c => SInv(c(0))),
    Ctor("cho",      1, Vector(0),    c => Cho(c(0))),
  ).map(c => c.rel -> c).toMap

  /** Derive the result class's Meta from the input classes' Meta for one
    * constructor relation. Returns None when an input Meta is unknown or the
    * relation carries no result metadata.
    */
  def derive(rel: String, args: Vector[Option[Meta]], est: Estimator): Option[Meta] = {
    def a2(f: (Meta, Meta) => Meta): Option[Meta] =
      for (x <- args(0); y <- args(1)) yield f(x, y)
    def a1(f: Meta => Meta): Option[Meta] = args(0).map(f)
    rel match {
      case "multi_M"  => a2(est.mul)
      case "add_M"    => a2(est.add)
      case "minus_M"  => a2(est.add)
      case "div_M"    => a2(est.div)
      case "multi_E"  => a2(est.had)
      case "multi_MS" => args(1) // scalar times matrix keeps the matrix's support
      case "tr"       => a1(est.tr)
      case "inv_M"    => a1(est.inv)
      case "exp"      => a1(est.exp)
      case "diag"     => a1(est.diag)
      case "rowSums"  => a1(est.rowSums)
      case "colSums"  => a1(est.colSums)
      case "cbind"    => a2(est.cbind)
      case "cho"      => a1(est.cho)
      case "det" | "trace" | "sum" | "add_S" | "multi_S" | "inv_S" => Some(Meta.scalar)
      case _          => None
    }
  }
}
