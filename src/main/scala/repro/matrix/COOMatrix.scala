package repro.matrix

import breeze.linalg.DenseMatrix
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import repro.core.{Hist, Meta}

/** A matrix distributed as a coordinate-format DataFrame with schema
  * `(i: Long, j: Long, v: Double)` (0-based), plus logical dimensions.
  * Duplicate (i,j) pairs are not allowed.
  *
  * A stored cell may hold 0: the kernels decide which cells they store, not
  * the values. `Ops.add`/`subtract` store the union of their operands'
  * cells and `multiply` every (i,j) with some k where both operands are
  * stored, even where the values cancel; `hadamard`/`divide` store the
  * intersection; `scalarMul` keeps its operand's cells, even for c = 0;
  * `rowSums`/`colSums` store the rows or columns that have a stored cell;
  * `transpose`, `diag` and `cbind` move their operand's cells.
  * `fromBreeze` is the one place that drops zeros, so `LocalCOO`'s `lift`,
  * `inverse`, `choleskyL` and `expElem` store every value that is not 0,
  * NaN included. `nnz`, which `Exec.Step.cells` records, counts the stored
  * cells.
  *
  * This is the execution substrate standing in for the paper's LA backends:
  * the data-parallel `L_ops` operations run over it as DataFrame joins and
  * aggregations (Catalyst plans, [[Ops]]), except inverse/determinant/
  * Cholesky/element-exp, which run in Breeze on the local copy (they are not
  * data-parallel-friendly and the paper's backends also run them locally).
  * A matrix also has a driver-memory copy, [[LocalCOO]], with the same
  * stored cells: the copy it was built from, or the one `local` collects
  * once and keeps.
  */
final class COOMatrix private (val spark: SparkSession, val rows: Long, val cols: Long,
                               build: () => DataFrame, @volatile private var memo: LocalCOO) {

  /** The stored cells; a matrix built from a local copy makes them a
    * DataFrame on first use, with no Spark job.
    */
  lazy val df: DataFrame = build()

  /** Stored cells: the local copy's count when there is one, else a Spark job. */
  def nnz: Long = { val l = memo; if (l != null) l.nnz else df.count() }

  /** Whether the local copy is at hand, so reading it runs no Spark job. */
  def isLocal: Boolean = memo != null

  /** This matrix in driver memory: the copy it was built from, or else its
    * cells collected once and kept on this instance.
    */
  def local: LocalCOO = {
    if (memo == null) synchronized {
      if (memo == null) {
        require(cells <= COOMatrix.MaxLocalCells, s"refusing to densify ${rows}x$cols locally")
        memo = LocalCOO.of(rows.toInt, cols.toInt,
          df.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getDouble(2))))
      }
    }
    memo
  }

  def cells: Long = rows * cols

  /** Exact metadata for the rewriter; histograms only when `mnc` is set. */
  def computeMeta(mnc: Boolean = false): Meta = {
    val n = nnz
    val hist = if (!mnc || rows > Meta.MaxHistDim || cols > Meta.MaxHistDim) None
    else {
      val hr = Array.fill(rows.toInt)(0.0)
      df.groupBy("i").count().collect().foreach(r => hr(r.getLong(0).toInt) = r.getLong(1).toDouble)
      val hc = Array.fill(cols.toInt)(0.0)
      df.groupBy("j").count().collect().foreach(r => hc(r.getLong(0).toInt) = r.getLong(1).toDouble)
      Some(Hist(hr, hc))
    }
    Meta(rows, cols, n.toDouble, hist)
  }
}

object COOMatrix {

  /** Largest matrix, in cells, that is densified in driver memory. */
  val MaxLocalCells: Long = 8_000_000L

  val schema: StructType = StructType(Seq(
    StructField("i", LongType, nullable = false),
    StructField("j", LongType, nullable = false),
    StructField("v", DoubleType, nullable = false),
  ))

  /** Distribute a local dense matrix, dropping zero cells. */
  def fromBreeze(spark: SparkSession, m: DenseMatrix[Double]): COOMatrix =
    fromLocal(spark, LocalCOO.fromBreeze(m))

  /** The stored cells of `l` as a matrix that keeps `l`; its DataFrame is
    * made on first use, with no Spark job.
    */
  def fromLocal(spark: SparkSession, l: LocalCOO): COOMatrix = {
    def distribute(): DataFrame = {
      val entries = l.entries.map { case (i, j, v) => Row(i.toLong, j.toLong, v) }
      spark.createDataFrame(
        spark.sparkContext.parallelize(entries, math.max(1, entries.size / 250000 + 1)), schema)
    }
    new COOMatrix(spark, l.rows.toLong, l.cols.toLong, () => distribute(), l)
  }

  /** Wrap a DataFrame (columns are selected/cast to the COO schema). */
  def apply(df: DataFrame, rows: Long, cols: Long): COOMatrix = {
    val coo = df.select(col("i").cast(LongType) as "i",
                        col("j").cast(LongType) as "j",
                        col("v").cast(DoubleType) as "v")
    new COOMatrix(df.sparkSession, rows, cols, () => coo, null)
  }
}

/** Synthetic matrix generators at the scaled-down profiles of the paper's
  * Tables 4–5 (real sparse datasets are substituted by synthetic matrices
  * with the same shape/sparsity character — see DESIGN.md). Each draws its
  * cells in driver memory from its seed alone, so the same seed gives the
  * same cells under any core count, and the matrix keeps that local copy.
  */
object Gen {

  /** Dense uniform(0.1, 1.1) matrix: `LocalExec.rand`'s draw. */
  def dense(spark: SparkSession, rows: Long, cols: Long, seed: Long): COOMatrix = {
    fits(rows, cols)
    COOMatrix.fromBreeze(spark, LocalExec.rand(rows.toInt, cols.toInt, seed))
  }

  /** Sparse matrix with exactly `nnz` distinct cells, drawn uniformly, then
    * their uniform(0.1, 1.1) values in the order the cells were drawn.
    */
  def sparse(spark: SparkSession, rows: Long, cols: Long, nnz: Long, seed: Long): COOMatrix = {
    fits(rows, cols)
    require(nnz <= rows * cols, s"$nnz cells in ${rows}x$cols")
    val r  = new scala.util.Random(seed)
    val at = scala.collection.mutable.LinkedHashSet[Long]()
    while (at.size < nnz) at += r.nextLong(rows * cols)
    COOMatrix.fromLocal(spark, LocalCOO.of(rows.toInt, cols.toInt,
      at.toSeq.map(c => ((c / cols).toInt, (c % cols).toInt, r.nextDouble() + 0.1))))
  }

  /** Symmetric positive-definite matrix: `LocalExec.randSPD`'s draw. */
  def spd(spark: SparkSession, n: Int, seed: Long): COOMatrix =
    COOMatrix.fromBreeze(spark, LocalExec.randSPD(n, seed))

  private def fits(rows: Long, cols: Long): Unit =
    require(rows * cols <= COOMatrix.MaxLocalCells, s"refusing to draw ${rows}x$cols locally")
}
