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
  */
sealed trait Expr extends Product with Serializable {

  /** True iff this expression is scalar-valued (1x1). */
  def isScalar: Boolean = this match {
    case _: Sca | _: Lit | _: Det | _: Trace | _: Sum => true
    case SAdd(_, _) | SMul(_, _) | SInv(_)            => true
    case _                                            => false
  }

  /** Compact, R-flavored rendering used in test assertions and bench rows. */
  def render: String = this match {
    case Mat(n)       => n
    case Sca(n)       => n
    case Lit(v)       => if (v == v.floor && math.abs(v) < 1e15) v.toLong.toString else v.toString
    case Mul(a, b)    => s"(${a.render} ${b.render})"
    case Add(a, b)    => s"(${a.render}+${b.render})"
    case Sub(a, b)    => s"(${a.render}-${b.render})"
    case Had(a, b)    => s"(${a.render}*${b.render})"
    case Div(a, b)    => s"(${a.render}/${b.render})"
    case ScaMul(s, m) => s"(${s.render}.${m.render})"
    case T(m)         => s"t(${m.render})"
    case Inv(m)       => s"inv(${m.render})"
    case Exp(m)       => s"exp(${m.render})"
    case Diag(m)      => s"diag(${m.render})"
    case RowSums(m)   => s"rowSums(${m.render})"
    case ColSums(m)   => s"colSums(${m.render})"
    case CBind(a, b)  => s"cbind(${a.render},${b.render})"
    case Cho(m)       => s"cho(${m.render})"
    case Det(m)       => s"det(${m.render})"
    case Trace(m)     => s"trace(${m.render})"
    case Sum(m)       => s"sum(${m.render})"
    case SAdd(a, b)   => s"(${a.render}+${b.render})"
    case SMul(a, b)   => s"(${a.render}*${b.render})"
    case SInv(a)      => s"(1/${a.render})"
  }

  /** All leaf names referenced by this expression. */
  def leaves: Set[String] = this match {
    case Mat(n) => Set(n)
    case Sca(n) => Set(n)
    case _: Lit => Set.empty
    case _      => children.flatMap(_.leaves).toSet
  }

  /** Direct sub-expressions, in syntactic order. */
  def children: Seq[Expr] = this match {
    case _: Mat | _: Sca | _: Lit => Nil
    case Mul(a, b)                => Seq(a, b)
    case Add(a, b)                => Seq(a, b)
    case Sub(a, b)                => Seq(a, b)
    case Had(a, b)                => Seq(a, b)
    case Div(a, b)                => Seq(a, b)
    case ScaMul(s, m)             => Seq(s, m)
    case T(m)                     => Seq(m)
    case Inv(m)                   => Seq(m)
    case Exp(m)                   => Seq(m)
    case Diag(m)                  => Seq(m)
    case RowSums(m)               => Seq(m)
    case ColSums(m)               => Seq(m)
    case CBind(a, b)              => Seq(a, b)
    case Cho(m)                   => Seq(m)
    case Det(m)                   => Seq(m)
    case Trace(m)                 => Seq(m)
    case Sum(m)                   => Seq(m)
    case SAdd(a, b)               => Seq(a, b)
    case SMul(a, b)               => Seq(a, b)
    case SInv(a)                  => Seq(a)
  }

  /** Number of operator nodes (leaves excluded). */
  def size: Int = this match {
    case _: Mat | _: Sca | _: Lit => 0
    case _                        => 1 + children.map(_.size).sum
  }
}

/** Base matrix or materialized view, identified by name. */
final case class Mat(name: String) extends Expr

/** Named scalar constant (e.g. "s1"); bound to a value at execution time. */
final case class Sca(name: String) extends Expr

/** Literal scalar. */
final case class Lit(value: Double) extends Expr

final case class Mul(a: Expr, b: Expr)    extends Expr
final case class Add(a: Expr, b: Expr)    extends Expr
final case class Sub(a: Expr, b: Expr)    extends Expr
final case class Had(a: Expr, b: Expr)    extends Expr
final case class Div(a: Expr, b: Expr)    extends Expr
final case class ScaMul(s: Expr, m: Expr) extends Expr
final case class T(m: Expr)               extends Expr
final case class Inv(m: Expr)             extends Expr
final case class Exp(m: Expr)             extends Expr
final case class Diag(m: Expr)            extends Expr
final case class RowSums(m: Expr)         extends Expr
final case class ColSums(m: Expr)         extends Expr
final case class CBind(a: Expr, b: Expr)  extends Expr
final case class Cho(m: Expr)             extends Expr

final case class Det(m: Expr)   extends Expr
final case class Trace(m: Expr) extends Expr
final case class Sum(m: Expr)   extends Expr

final case class SAdd(a: Expr, b: Expr) extends Expr
final case class SMul(a: Expr, b: Expr) extends Expr
final case class SInv(a: Expr)          extends Expr
