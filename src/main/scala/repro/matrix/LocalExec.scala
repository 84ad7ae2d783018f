package repro.matrix

import breeze.linalg.{DenseMatrix, cholesky, det => bdet, inv => binv}
import repro.core._

/** In-memory dense evaluator over Breeze (which ships with Spark).
  *
  * This is the *numeric oracle* for the rewriter: for every pipeline we
  * evaluate the original and the HADAD rewriting on the same random inputs
  * and require element-wise agreement — the executable form of the paper's
  * soundness theorem (§8). It is also the stand-in for the single-node
  * LA libraries (R / NumPy) the paper benchmarks.
  */
object LocalExec {

  type LVal = Val[DenseMatrix[Double]]
  val LMat = Val.Mat
  val LSca = Val.Sca

  type Env = Map[String, LVal]

  def asMat(v: LVal): DenseMatrix[Double] = v.fold(Dense.lift, identity)

  def eval(e: Expr, env: Env): LVal = Eval(e, env, Dense)

  /** Breeze kernels, written apart from [[Ops]] so the two engines check each other. */
  object Dense extends Kernels[DenseMatrix[Double]] {
    type D = DenseMatrix[Double]
    def lift(s: Double): D            = DenseMatrix.fill(1, 1)(s)
    def scalar(m: D): Double = {
      require(m.rows == 1 && m.cols == 1, s"not a scalar: ${m.rows}x${m.cols}")
      m(0, 0)
    }
    def multiply(a: D, b: D): D       = a * b
    def add(a: D, b: D): D            = a + b
    def subtract(a: D, b: D): D       = a - b
    def hadamard(a: D, b: D): D       = a *:* b
    def divide(a: D, b: D): D         = a /:/ b
    def scalarMul(c: Double, a: D): D = a * c
    def transpose(a: D): D            = a.t.copy
    def inverse(a: D): D              = binv(a)
    def expElem(a: D): D              = breeze.numerics.exp(a)
    def diag(x: D): D = DenseMatrix.tabulate(math.min(x.rows, x.cols), 1)((i, _) => x(i, i))
    def rowSums(x: D): D =
      DenseMatrix.tabulate(x.rows, 1)((i, _) => (0 until x.cols).map(x(i, _)).sum)
    def colSums(x: D): D =
      DenseMatrix.tabulate(1, x.cols)((_, j) => (0 until x.rows).map(x(_, j)).sum)
    def cbind(a: D, b: D): D          = DenseMatrix.horzcat(a, b)
    def choleskyL(a: D): D            = cholesky(a)
    def determinant(a: D): Double     = bdet(a)
    def trace(x: D): Double           = (0 until math.min(x.rows, x.cols)).map(i => x(i, i)).sum
    def sumAll(a: D): Double          = breeze.linalg.sum(a)
  }

  /** Max |x-y| over all cells / the scalar pair, for equivalence asserts. */
  def maxDiff(x: LVal, y: LVal): Double = (x, y) match {
    case (LSca(a), LSca(b)) => math.abs(a - b)
    case _ =>
      val (a, b) = (asMat(x), asMat(y))
      require(a.rows == b.rows && a.cols == b.cols,
              s"shape mismatch ${a.rows}x${a.cols} vs ${b.rows}x${b.cols}")
      breeze.linalg.max(breeze.numerics.abs(a - b))
  }

  /** Deterministic random dense matrix. */
  def rand(rows: Int, cols: Int, seed: Long): DenseMatrix[Double] = {
    val r = new scala.util.Random(seed)
    DenseMatrix.fill(rows, cols)(r.nextDouble() + 0.1)
  }

  /** Deterministic random sparse matrix with approx `sparsity` density. */
  def randSparse(rows: Int, cols: Int, sparsity: Double, seed: Long): DenseMatrix[Double] = {
    val r = new scala.util.Random(seed)
    DenseMatrix.fill(rows, cols)(if (r.nextDouble() < sparsity) r.nextDouble() + 0.1 else 0.0)
  }

  /** Symmetric positive-definite random matrix (safe to invert / cholesky).
    * Normalized so eigenvalues stay O(1)-ish and determinants of the sizes
    * used in benches remain finite in double precision.
    */
  def randSPD(n: Int, seed: Long): DenseMatrix[Double] = {
    val b = rand(n, n, seed)
    b * b.t / n.toDouble + DenseMatrix.eye[Double](n)
  }
}
