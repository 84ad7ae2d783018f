package repro.matrix

import repro.core._

/** A pipeline value on one engine: a matrix of the engine's type `M`, or a scalar. */
sealed trait Val[+M] {
  /** `sca` of a scalar, `mat` of a matrix. */
  def fold[R](sca: Double => R, mat: M => R): R = this match {
    case Val.Sca(v) => sca(v)
    case Val.Mat(m) => mat(m)
  }
}
object Val {
  final case class Mat[+M](m: M)  extends Val[M]
  final case class Sca(v: Double) extends Val[Nothing]
}

/** One engine's kernels over its matrix type `M`: one per operator, plus
  * `lift` (a scalar as a 1×1 matrix) and `scalar` (the value of a 1×1 matrix).
  */
trait Kernels[M] {
  def lift(s: Double): M
  def scalar(m: M): Double
  def multiply(a: M, b: M): M
  def add(a: M, b: M): M
  def subtract(a: M, b: M): M
  def hadamard(a: M, b: M): M
  def divide(a: M, b: M): M
  def scalarMul(c: Double, a: M): M
  def transpose(a: M): M
  def inverse(a: M): M
  def expElem(a: M): M
  def diag(a: M): M
  def rowSums(a: M): M
  def colSums(a: M): M
  def cbind(a: M, b: M): M
  def choleskyL(a: M): M
  def determinant(a: M): Double
  def trace(a: M): Double
  def sumAll(a: M): Double
}

/** "As stated" evaluation of a pipeline on any engine: the only
  * per-operator match below the optimizer. It evaluates children in
  * syntactic order and hands every operator node, with its input values and
  * its value, to `after`, where an engine materializes or records it. One
  * scalar/matrix rule holds for every engine:
  *  - an operator whose inputs are all scalars yields a scalar (`t(s) = s`,
  *    `cho(s) = √s`, …), except `cbind`, whose result is 1×2;
  *  - otherwise a matrix operator lifts each scalar input to 1×1;
  *  - `Mul` with exactly one scalar operand, and `ScaMul`, are scalar
  *    multiplies; the scalar operators read a 1×1 matrix input as a scalar.
  */
object Eval {

  def apply[M](e: Expr, env: Map[String, Val[M]], k: Kernels[M],
               after: (Node, Seq[Val[M]], Val[M]) => Val[M] =
                 (_: Node, _: Seq[Val[M]], v: Val[M]) => v): Val[M] = {
    def num(v: Val[M]): Double = v.fold(identity, k.scalar)
    def mat(v: Val[M]): M      = v.fold(k.lift, identity)
    def map(v: Val[M])(s: Double => Double, f: M => M): Val[M] =
      v.fold(x => Val.Sca(s(x)), x => Val.Mat(f(x)))
    def scaMul(c: Double, v: Val[M]): Val[M] = map(v)(c * _, k.scalarMul(c, _))

    def node(n: Node, in: Seq[Val[M]]): Val[M] = {
      def un(s: Double => Double, f: M => M): Val[M] = map(in(0))(s, f)
      def toSca(f: M => Double): Val[M]            = Val.Sca(in(0).fold(identity, f))
      def bin(s: (Double, Double) => Double, f: (M, M) => M): Val[M] = (in(0), in(1)) match {
        case (Val.Sca(x), Val.Sca(y)) => Val.Sca(s(x, y))
        case (x, y)                   => Val.Mat(f(mat(x), mat(y)))
      }
      n match {
        case _: Mul => (in(0), in(1)) match {
          case (Val.Mat(a), Val.Mat(b)) => Val.Mat(k.multiply(a, b))
          case (Val.Sca(c), x)          => scaMul(c, x)
          case (x, Val.Sca(c))          => scaMul(c, x)
        }
        case _: ScaMul  => scaMul(num(in(0)), in(1))
        case _: Add     => bin(_ + _, k.add)
        case _: Sub     => bin(_ - _, k.subtract)
        case _: Had     => bin(_ * _, k.hadamard)
        case _: Div     => bin(_ / _, k.divide)
        case _: CBind   => Val.Mat(k.cbind(mat(in(0)), mat(in(1))))
        case _: T       => un(identity, k.transpose)
        case _: Inv     => un(1.0 / _, k.inverse)
        case _: Exp     => un(math.exp, k.expElem)
        case _: Diag    => un(identity, k.diag)
        case _: RowSums => un(identity, k.rowSums)
        case _: ColSums => un(identity, k.colSums)
        case _: Cho     => un(math.sqrt, k.choleskyL)
        case _: Det     => toSca(k.determinant)
        case _: Trace   => toSca(k.trace)
        case _: Sum     => toSca(k.sumAll)
        case _: SAdd    => Val.Sca(num(in(0)) + num(in(1)))
        case _: SMul    => Val.Sca(num(in(0)) * num(in(1)))
        case _: SInv    => Val.Sca(1.0 / num(in(0)))
      }
    }

    def rec(x: Expr): Val[M] = x match {
      case Mat(n)  => env.getOrElse(n, sys.error(s"unbound matrix '$n'"))
      case Sca(n)  => Val.Sca(num(env.getOrElse(n, sys.error(s"unbound scalar '$n'"))))
      case Lit(v)  => Val.Sca(v)
      case n: Node => val in = n.children.map(rec); after(n, in, node(n, in))
    }
    rec(e)
  }
}
