package repro.core

/** Abstract syntax of the hybrid language `L` (paper §3).
  *
  * An expression is either matrix-valued or scalar-valued (a scalar is the
  * degenerate 1x1 matrix, as in the paper). Leaves are *named* inputs: a
  * base matrix, a materialized view, or a named scalar constant — names tie
  * the AST to the relational encoding's `name`/`sname` facts and, at
  * execution time, to concrete data in an environment.
  *
  * The operator set mirrors `L_ops` (§6.1): element-wise multiply/divide,
  * matrix multiply, add/subtract, scalar-matrix multiply, transpose, inverse,
  * determinant, trace, diagonal, element exponential, sum, rowSums, colSums,
  * column concatenation (for Morpheus-factorized matrices), Cholesky, and
  * scalar arithmetic. Decompositions QR/LU exist only at the constraint
  * level (they are reasoning devices, not plan nodes we decode).
  *
  * Each operator is a [[Node]] naming its VREM relation; the relation's row
  * in [[VREM.ctors]] supplies its rendering, encoding, metadata derivation
  * and decoding. Each named input is a [[Leaf]], decoded by [[VREM.leaves]].
  */
sealed trait Expr extends Product with Serializable {

  /** Compact, R-flavored rendering used in test assertions and bench rows. */
  def render: String = this match {
    case Mat(n)  => n
    case Sca(n)  => n
    case Lit(v)  => if (v == v.floor && math.abs(v) < 1e15) v.toLong.toString else v.toString
    case n: Node => n.ctor.render(n.children.map(_.render))
  }

  /** Direct sub-expressions, in syntactic order. */
  def children: Seq[Expr] = productIterator.collect { case e: Expr => e }.toVector
}

/** A named input, encoded as the fact `rel(class, key)`. */
sealed abstract class Leaf(val rel: String, val key: String) extends Expr

/** Base matrix or materialized view, identified by name. */
final case class Mat(name: String) extends Leaf("name", name)

/** Named scalar constant (e.g. "s1"); bound to a value at execution time. */
final case class Sca(name: String) extends Leaf("sname", name)

/** Literal scalar. */
final case class Lit(value: Double) extends Leaf("slit", value.toString)

/** An operator node: its fields are its inputs, `rel` its VREM relation. */
sealed abstract class Node(val rel: String) extends Expr {
  def ctor: VREM.Ctor = VREM.ctors(rel)
}

final case class Mul(a: Expr, b: Expr)    extends Node("multi_M")
final case class Add(a: Expr, b: Expr)    extends Node("add_M")
final case class Sub(a: Expr, b: Expr)    extends Node("minus_M")
final case class Had(a: Expr, b: Expr)    extends Node("multi_E")
final case class Div(a: Expr, b: Expr)    extends Node("div_M")
final case class ScaMul(s: Expr, m: Expr) extends Node("multi_MS")
final case class T(m: Expr)               extends Node("tr")
final case class Inv(m: Expr)             extends Node("inv_M")
final case class Exp(m: Expr)             extends Node("exp")
final case class Diag(m: Expr)            extends Node("diag")
final case class RowSums(m: Expr)         extends Node("rowSums")
final case class ColSums(m: Expr)         extends Node("colSums")
final case class CBind(a: Expr, b: Expr)  extends Node("cbind")
final case class Cho(m: Expr)             extends Node("cho")

final case class Det(m: Expr)   extends Node("det")
final case class Trace(m: Expr) extends Node("trace")
final case class Sum(m: Expr)   extends Node("sum")

final case class SAdd(a: Expr, b: Expr) extends Node("add_S")
final case class SMul(a: Expr, b: Expr) extends Node("multi_S")
final case class SInv(a: Expr)          extends Node("inv_S")
