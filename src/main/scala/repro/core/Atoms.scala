package repro.core

import scala.collection.immutable.ListMap

/** The VREM schema (Virtual Relational Encoding of Matrices, paper Table 1).
  *
  * Every constructor relation's last-listed "result" argument denotes the
  * equivalence class of the operation's output; all other arguments are input
  * classes or constants. `name`/`sname`/`slit` bind classes to named inputs
  * ([[leaves]]), [[functional]] declares the functionality EGDs, `size` and
  * `type` carry metadata used by constraint premises, and `QR`/`LU`/
  * `norm`/`Zero`/`Identity` are reasoning-only relations (they appear in
  * constraints but are never decoded into plan nodes).
  */
object VREM {

  /** Result Meta from the estimator and the input classes' Meta. */
  type Derive = (Estimator, Vector[Option[Meta]]) => Option[Meta]

  /** One operator row: its relation `rel(in_1, …, in_inputs, result)`, how
    * to rebuild the AST node from decoded children, how to render it from
    * rendered children, and how to derive the result class's Meta from the
    * input classes' Meta (None when an input Meta it needs is unknown).
    */
  final case class Ctor(rel: String, inputs: Int,
                        build: Vector[Expr] => Expr,
                        render: Seq[String] => String,
                        derive: Derive) {
    val resultPos: Int        = inputs
    val childPos: Vector[Int] = Vector.range(0, inputs)
  }

  private def un(f: Estimator => Meta => Meta): Derive = (est, in) => in(0).map(f(est))
  private def bin(f: Estimator => (Meta, Meta) => Meta): Derive =
    (est, in) => for (x <- in(0); y <- in(1)) yield f(est)(x, y)
  private val scalar: Derive = (_, _) => Some(Meta.scalar)

  private def infix(op: String)(r: Seq[String]): String = s"(${r(0)}$op${r(1)})"
  private def call(f: String)(r: Seq[String]): String  = r.mkString(s"$f(", ",", ")")

  val ctors: Map[String, Ctor] = Seq(
    Ctor("multi_M",  2, c => Mul(c(0), c(1)),      infix(" "),            bin(_.mul)),
    Ctor("add_M",    2, c => Add(c(0), c(1)),      infix("+"),            bin(_.add)),
    Ctor("minus_M",  2, c => Sub(c(0), c(1)),      infix("-"),            bin(_.add)),
    Ctor("div_M",    2, c => Div(c(0), c(1)),      infix("/"),            bin(_.div)),
    Ctor("multi_E",  2, c => Had(c(0), c(1)),      infix("*"),            bin(_.had)),
    // Scalar times matrix keeps the matrix's support.
    Ctor("multi_MS", 2, c => ScaMul(c(0), c(1)),   infix("."),            (_, in) => in(1)),
    Ctor("tr",       1, c => T(c(0)),              call("t"),             un(_.tr)),
    Ctor("inv_M",    1, c => Inv(c(0)),            call("inv"),           un(_.inv)),
    Ctor("exp",      1, c => Exp(c(0)),            call("exp"),           un(_.exp)),
    Ctor("diag",     1, c => Diag(c(0)),           call("diag"),          un(_.diag)),
    Ctor("det",      1, c => Det(c(0)),            call("det"),           scalar),
    Ctor("trace",    1, c => Trace(c(0)),          call("trace"),         scalar),
    Ctor("sum",      1, c => Sum(c(0)),            call("sum"),           scalar),
    Ctor("rowSums",  1, c => RowSums(c(0)),        call("rowSums"),       un(_.rowSums)),
    Ctor("colSums",  1, c => ColSums(c(0)),        call("colSums"),       un(_.colSums)),
    Ctor("cbind",    2, c => CBind(c(0), c(1)),    call("cbind"),         bin(_.cbind)),
    Ctor("add_S",    2, c => SAdd(c(0), c(1)),     infix("+"),            scalar),
    Ctor("multi_S",  2, c => SMul(c(0), c(1)),     infix("*"),            scalar),
    Ctor("inv_S",    1, c => SInv(c(0)),           r => s"(1/${r(0)})",   scalar),
    Ctor("cho",      1, c => Cho(c(0)),            call("cho"),           un(_.cho)),
  ).map(c => c.rel -> c).toMap

  /** Leaf relations `rel(class, c)` in decoding order, each rebuilding its
    * [[Leaf]] from the constant `c`.
    */
  val leaves: ListMap[String, String => Leaf] =
    ListMap("name" -> (Mat(_)), "sname" -> (Sca(_)), "slit" -> (v => Lit(v.toDouble)))

  /** The arguments of `rel` at `key` determine each argument at `determined`. */
  final case class FD(rel: String, key: Vector[Int], determined: Vector[Int])

  /** The functionality EGDs (paper §6.2.3), in the order the chase enforces
    * them: each constructor's inputs determine its result, each leaf's
    * constant its class, and a decomposition's input both factors (§6.2.5).
    */
  val functional: Seq[FD] =
    ctors.values.map(c => FD(c.rel, c.childPos, Vector(c.resultPos))).toSeq ++
    leaves.keys.map(FD(_, Vector(1), Vector(0))) ++
    Seq("QR", "LU").map(FD(_, Vector(0), Vector(1, 2)))

  /** Relation name → arity. Unknown relations are rejected at parse time. */
  val arity: Map[String, Int] = Map(
    "size"     -> 3, // size(M, k, z)
    "type"     -> 2, // type(M, "S"|"L"|"U"|"O"|"P")
    "QR"       -> 3, // QR(M, Q, R) — reasoning-only
    "LU"       -> 3, // LU(M, L, U) — reasoning-only
    "norm"     -> 4, // norm(M, S, K, R): M = cbind(S, K·R) (Morpheus PK-FK join)
    "Zero"     -> 1,
    "Identity" -> 1,
  ) ++ leaves.keys.map(_ -> 2) ++ ctors.map { case (rel, c) => rel -> (c.inputs + 1) }
}
