package repro.matrix

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The data-parallel kernels over [[COOMatrix]] on Spark, which [[Exec]]
  * places on Spark, and the pair count it records for such a product.
  *
  * Each is a DataFrame join or aggregation, so it runs through Catalyst.
  * Inverse, determinant, Cholesky, element-exp and the scalar/1×1
  * conversions are not data-parallel; their one kernel is [[LocalCOO]]'s.
  */
object Ops {

  /** Matrix product A·B via join on the contraction index + sum-aggregate. */
  def multiply(a: COOMatrix, b: COOMatrix): COOMatrix = {
    require(a.cols == b.rows, s"dims: ${a.rows}x${a.cols} * ${b.rows}x${b.cols}")
    val l = a.df.select(col("i") as "ai", col("j") as "k", col("v") as "av")
    val r = b.df.select(col("i") as "bk", col("j") as "bj", col("v") as "bv")
    val df = l.join(r, col("k") === col("bk"))
      .groupBy(col("ai") as "i", col("bj") as "j")
      .agg(sum(col("av") * col("bv")) as "v")
    COOMatrix(df, a.rows, b.cols)
  }

  /** A+B via union + sum-aggregate (cells present in either operand). */
  def add(a: COOMatrix, b: COOMatrix): COOMatrix = {
    requireSameShape(a, b, "+")
    COOMatrix(a.df.unionByName(b.df).groupBy("i", "j").agg(sum("v") as "v"), a.rows, a.cols)
  }

  def subtract(a: COOMatrix, b: COOMatrix): COOMatrix =
    add(a, scalarMul(-1.0, b))

  /** Element-wise (Hadamard) product: inner join on coordinates. */
  def hadamard(a: COOMatrix, b: COOMatrix): COOMatrix = {
    requireSameShape(a, b, "*")
    val r  = b.df.select(col("i") as "bi", col("j") as "bj", col("v") as "bv")
    val df = a.df.join(r, col("i") === col("bi") && col("j") === col("bj"))
      .select(col("i"), col("j"), (col("v") * col("bv")) as "v")
    COOMatrix(df, a.rows, a.cols)
  }

  /** Element-wise division A/B on B's support (B is non-zero there). */
  def divide(a: COOMatrix, b: COOMatrix): COOMatrix = {
    requireSameShape(a, b, "/")
    val r  = b.df.select(col("i") as "bi", col("j") as "bj", col("v") as "bv")
    val df = a.df.join(r, col("i") === col("bi") && col("j") === col("bj"))
      .select(col("i"), col("j"), (col("v") / col("bv")) as "v")
    COOMatrix(df, a.rows, a.cols)
  }

  def scalarMul(c: Double, a: COOMatrix): COOMatrix =
    COOMatrix(a.df.select(col("i"), col("j"), (col("v") * lit(c)) as "v"), a.rows, a.cols)

  def transpose(a: COOMatrix): COOMatrix =
    COOMatrix(a.df.select(col("j") as "i", col("i") as "j", col("v")), a.cols, a.rows)

  def rowSums(a: COOMatrix): COOMatrix =
    COOMatrix(a.df.groupBy("i").agg(sum("v") as "v").select(col("i"), lit(0L) as "j", col("v")),
              a.rows, 1)

  def colSums(a: COOMatrix): COOMatrix =
    COOMatrix(a.df.groupBy("j").agg(sum("v") as "v").select(lit(0L) as "i", col("j"), col("v")),
              1, a.cols)

  def sumAll(a: COOMatrix): Double = total(a.df)

  def trace(a: COOMatrix): Double = total(a.df.filter(col("i") === col("j")))

  /** Σ v over the stored cells of `df` (0 when there are none). */
  private def total(df: DataFrame): Double = {
    val r = df.agg(sum("v")).collect()(0)
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }

  def diag(a: COOMatrix): COOMatrix =
    COOMatrix(a.df.filter(col("i") === col("j")).select(col("i"), lit(0L) as "j", col("v")),
              math.min(a.rows, a.cols), 1)

  /** Column concatenation [A, B]. */
  def cbind(a: COOMatrix, b: COOMatrix): COOMatrix = {
    require(a.rows == b.rows, s"cbind rows: ${a.rows} vs ${b.rows}")
    val shifted = b.df.select(col("i"), (col("j") + lit(a.cols)) as "j", col("v"))
    COOMatrix(a.df.unionByName(shifted), a.rows, a.cols + b.cols)
  }

  /** Number of scalar products a·b performs (join-pair count), which
    * `Exec.Step.pairs` records when an operand is not in driver memory. B6
    * adds it to the cells as its work metric: the paper's Morpheus gains are
    * flop-bound rather than output-size-bound.
    */
  def multiplyPairs(a: COOMatrix, b: COOMatrix): Long = {
    val ac = a.df.groupBy("j").count().select(col("j") as "k", col("count") as "ca")
    val bc = b.df.groupBy("i").count().select(col("i") as "k2", col("count") as "cb")
    val r  = ac.join(bc, col("k") === col("k2"))
      .agg(sum(col("ca") * col("cb"))).collect()(0)
    if (r.isNullAt(0)) 0L else r.getLong(0)
  }

  private def requireSameShape(a: COOMatrix, b: COOMatrix, op: String): Unit =
    require(a.rows == b.rows && a.cols == b.cols,
            s"dims: ${a.rows}x${a.cols} $op ${b.rows}x${b.cols}")
}
