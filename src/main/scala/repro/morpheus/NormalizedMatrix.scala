package repro.morpheus

import repro.matrix.{COOMatrix, Ops}

/** Observation hook for factorized execution: benches use it to count each
  * internal step's materialized cells and each product's multiply pairs.
  * The default probe is a no-op.
  */
trait Probe {
  def step(out: COOMatrix): COOMatrix = out
  def product(a: COOMatrix, b: COOMatrix): COOMatrix = step(Ops.multiply(a, b))
}
object Probe { implicit val silent: Probe = new Probe {} }

/** Morpheus-style normalized matrix over a PK-FK join (Chen et al., VLDB'17;
  * paper §2 and §9.2.1).
  *
  * The joined matrix is `M = [S, K·R]` where `S` (nS x dS) holds the
  * fact-side features, `R` (nR x dR) the dimension-side features, and `K`
  * (nS x nR) is the sparse indicator matrix of the foreign key (one 1 per
  * row). Morpheus avoids materializing M by *factorizing* LA operations —
  * the rewrite rules implemented below. HADAD's contribution in the paper's
  * §9.2.1 experiments is to rewrite the pipeline first so that a *cheaper*
  * factorized rule applies (e.g. pushing colSums instead of the
  * multiplication); both sides of that comparison run on this class.
  */
final case class NormalizedMatrix(s: COOMatrix, k: COOMatrix, r: COOMatrix) {
  require(s.rows == k.rows, s"S rows ${s.rows} != K rows ${k.rows}")
  require(k.cols == r.rows, s"K cols ${k.cols} != R rows ${r.rows}")

  def rows: Long = s.rows
  def cols: Long = s.cols + r.cols

  /** The join output as one materialized matrix (the unfactorized baseline). */
  def materialize: COOMatrix = Ops.cbind(s, Ops.multiply(k, r))

  /** Probed variant of [[materialize]] for instrumented benches. */
  def materializeP(implicit p: Probe): COOMatrix = p.step(Ops.cbind(s, p.product(k, r)))

  // ----------------------- Morpheus factorized rewrite rules ----------------

  /** Multiplication pushdown: M·N = S·N_top + K·(R·N_bot), where N is split
    * at row dS. Avoids materializing M but still produces an nS x ncol(N)
    * intermediate.
    */
  def rightMul(n: COOMatrix)(implicit p: Probe): COOMatrix = {
    require(n.rows == cols, s"dims: ${rows}x$cols * ${n.rows}x${n.cols}")
    import org.apache.spark.sql.functions._
    val top = COOMatrix(n.df.filter(col("i") < s.cols), s.cols, n.cols)
    val bot = COOMatrix(n.df.filter(col("i") >= s.cols)
                          .select((col("i") - s.cols) as "i", col("j"), col("v")),
                        r.cols, n.cols)
    p.step(Ops.add(p.product(s, top), p.product(k, p.product(r, bot))))
  }

  /** Left multiplication: X·M = [X·S, (X·K)·R]. */
  def leftMul(x: COOMatrix)(implicit p: Probe): COOMatrix =
    p.step(Ops.cbind(p.product(x, s), p.product(p.product(x, k), r)))

  /** colSums(M) = [colSums(S), colSums(K)·R]. */
  def colSumsF(implicit p: Probe): COOMatrix =
    p.step(Ops.cbind(p.step(Ops.colSums(s)), p.product(p.step(Ops.colSums(k)), r)))

  /** rowSums(M) = rowSums(S) + K·rowSums(R). */
  def rowSumsF(implicit p: Probe): COOMatrix =
    p.step(Ops.add(p.step(Ops.rowSums(s)), p.product(k, p.step(Ops.rowSums(r)))))

  /** sum(M) = sum(S) + colSums(K)·rowSums(R). */
  def sumF(implicit p: Probe): Double = {
    val kr = p.product(p.step(Ops.colSums(k)), p.step(Ops.rowSums(r)))
    Ops.sumAll(s) + Ops.sumAll(kr)
  }
}

object NormalizedMatrix {

  /** Synthetic PK-FK pair in the paper's §9.2.1 setup: `tupleRatio` =
    * nS/nR, `featureRatio` = dR/dS; K assigns each S-row a dimension row
    * uniformly. Deterministic.
    */
  def synthetic(spark: org.apache.spark.sql.SparkSession,
                nR: Long, dS: Long, tupleRatio: Double, featureRatio: Double): NormalizedMatrix = {
    import org.apache.spark.sql.functions._
    val seed = 21L
    val nS = (nR * tupleRatio).toLong
    val dR = (dS * featureRatio).toLong
    val s  = repro.matrix.Gen.dense(spark, nS, dS, seed)
    val r  = repro.matrix.Gen.dense(spark, nR, dR, seed + 1)
    val kDf = spark.range(nS).select(
      col("id") as "i",
      (rand(seed + 2) * nR).cast("long") as "j",
      lit(1.0) as "v",
    )
    NormalizedMatrix(s, COOMatrix(kDf, nS, nR), r)
  }
}
