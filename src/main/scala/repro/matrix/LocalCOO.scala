package repro.matrix

import breeze.linalg.DenseMatrix

/** A [[COOMatrix]] held in driver memory: dense values plus the 0/1 pattern
  * of its stored cells. Values are 0 outside the pattern; a stored cell may
  * hold 0.
  */
final class LocalCOO private (val values: DenseMatrix[Double], val stored: DenseMatrix[Double]) {
  def rows: Int = values.rows
  def cols: Int = values.cols

  /** Whether every value is finite (cells outside the pattern hold 0). */
  lazy val finite: Boolean = values.activeValuesIterator.forall(x => !x.isNaN && !x.isInfinite)

  /** Stored cells: what `COOMatrix.nnz` counts. */
  lazy val nnz: Long = stored.activeValuesIterator.count(_ != 0.0).toLong

  /** The stored cells as (i, j, v), row by row. */
  def entries: Seq[(Int, Int, Double)] =
    for (i <- 0 until rows; j <- 0 until cols if stored(i, j) != 0.0) yield (i, j, values(i, j))
}

/** Every kernel of [[Exec]] in driver memory. The data-parallel ones match
  * [[Ops]] cell for cell; the Breeze-only ones and `lift`/`scalar` exist
  * only here. Values come from `LocalExec.Dense`'s kernels, so no
  * arithmetic is written a third time; the stored cells follow the COO
  * kernels' joins and aggregations, which the same kernels compute over the
  * 0/1 patterns:
  *  - `multiply`: cells with some k where both operands are stored (when
  *    an operand holds ±Inf or NaN, the values too are summed over those
  *    k only, as the join does);
  *  - `add`/`subtract`: the union of the operands' cells, even where the
  *    values cancel;
  *  - `hadamard`/`divide`: the intersection (`divide` is 0 outside it);
  *  - `scalarMul`: the operand's cells, even for c = 0;
  *  - `rowSums`/`colSums`: the rows or columns with a stored cell;
  *  - `transpose`, `diag`, `cbind`: the operand's cells, moved;
  *  - `lift`, `inverse`, `choleskyL`, `expElem`: the values that are not 0
  *    (NaN included), as `fromBreeze` stores them.
  */
object LocalCOO extends Kernels[LocalCOO] {
  private type D = DenseMatrix[Double]
  private val Dense = LocalExec.Dense

  /** The cells where `pattern` is non-zero, holding `values` there. */
  def apply(values: D, pattern: D): LocalCOO = {
    require(values.rows == pattern.rows && values.cols == pattern.cols,
            s"pattern ${pattern.rows}x${pattern.cols} for ${values.rows}x${values.cols} values")
    val on = pattern.map(p => if (p != 0.0) 1.0 else 0.0)
    new LocalCOO(DenseMatrix.tabulate(values.rows, values.cols)((i, j) =>
                   if (on(i, j) != 0.0) values(i, j) else 0.0), on)
  }

  /** The cells of `m` that are not 0 (NaN is stored). */
  def fromBreeze(m: D): LocalCOO = apply(m, m.map(x => if (x != 0.0) 1.0 else 0.0))

  /** The given stored cells of a `rows`×`cols` matrix. */
  def of(rows: Int, cols: Int, cells: Iterable[(Int, Int, Double)]): LocalCOO = {
    val (v, p) = (DenseMatrix.zeros[Double](rows, cols), DenseMatrix.zeros[Double](rows, cols))
    cells.foreach { case (i, j, x) => v(i, j) = x; p(i, j) = 1.0 }
    new LocalCOO(v, p)
  }

  def lift(s: Double): LocalCOO         = fromBreeze(Dense.lift(s))
  def scalar(m: LocalCOO): Double       = Dense.scalar(m.values)
  def multiply(a: LocalCOO, b: LocalCOO): LocalCOO = {
    val pattern = Dense.multiply(a.stored, b.stored)
    if (a.finite && b.finite) LocalCOO(Dense.multiply(a.values, b.values), pattern)
    else LocalCOO(storedPairs(a, b), pattern)
  }

  /** Σ_k a(i,k)·b(k,j) over the k where both cells are stored, as the COO
    * join forms it. The dense product would also pair a stored ±Inf or NaN
    * with an unstored 0 of the other operand and give NaN.
    */
  private def storedPairs(a: LocalCOO, b: LocalCOO): D = {
    val out = DenseMatrix.zeros[Double](a.rows, b.cols)
    for (i <- 0 until a.rows; k <- 0 until a.cols if a.stored(i, k) != 0.0; j <- 0 until b.cols
         if b.stored(k, j) != 0.0)
      out(i, j) += a.values(i, k) * b.values(k, j)
    out
  }
  def add(a: LocalCOO, b: LocalCOO): LocalCOO =
    LocalCOO(Dense.add(a.values, b.values), Dense.add(a.stored, b.stored))
  def subtract(a: LocalCOO, b: LocalCOO): LocalCOO =
    LocalCOO(Dense.subtract(a.values, b.values), Dense.add(a.stored, b.stored))
  def hadamard(a: LocalCOO, b: LocalCOO): LocalCOO =
    LocalCOO(Dense.hadamard(a.values, b.values), Dense.hadamard(a.stored, b.stored))
  def divide(a: LocalCOO, b: LocalCOO): LocalCOO =
    LocalCOO(Dense.divide(a.values, b.values), Dense.hadamard(a.stored, b.stored))
  def scalarMul(c: Double, a: LocalCOO): LocalCOO = LocalCOO(Dense.scalarMul(c, a.values), a.stored)
  def transpose(a: LocalCOO): LocalCOO  = LocalCOO(Dense.transpose(a.values), Dense.transpose(a.stored))
  def inverse(a: LocalCOO): LocalCOO    = fromBreeze(Dense.inverse(a.values))
  def expElem(a: LocalCOO): LocalCOO    = fromBreeze(Dense.expElem(a.values))
  def diag(a: LocalCOO): LocalCOO       = LocalCOO(Dense.diag(a.values), Dense.diag(a.stored))
  def rowSums(a: LocalCOO): LocalCOO    = LocalCOO(Dense.rowSums(a.values), Dense.rowSums(a.stored))
  def colSums(a: LocalCOO): LocalCOO    = LocalCOO(Dense.colSums(a.values), Dense.colSums(a.stored))
  def cbind(a: LocalCOO, b: LocalCOO): LocalCOO =
    LocalCOO(Dense.cbind(a.values, b.values), Dense.cbind(a.stored, b.stored))
  def choleskyL(a: LocalCOO): LocalCOO  = fromBreeze(Dense.choleskyL(a.values))
  def determinant(a: LocalCOO): Double  = Dense.determinant(a.values)
  def trace(a: LocalCOO): Double        = Dense.trace(a.values)
  def sumAll(a: LocalCOO): Double       = Dense.sumAll(a.values)
}
