package repro.morpheus

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.matrix.{COOMatrix, Exec, Gen, LocalCOO}

/** Morpheus-style normalized matrix over a PK-FK join (Chen et al., VLDB'17;
  * paper §2 and §9.2.1).
  *
  * The joined matrix is `M = [S, K·R]` where `S` (nS x dS) holds the
  * fact-side features, `R` (nR x dR) the dimension-side features, and `K`
  * (nS x nR) is the sparse indicator matrix of the foreign key (one 1 per
  * row). Morpheus avoids materializing M by *factorizing* LA operations —
  * the rewrite rules in the companion, plans over the leaves `S`, `K` and
  * `R` that [[env]] binds. HADAD's contribution in the paper's §9.2.1
  * experiments is to rewrite the pipeline first so that a *cheaper*
  * factorized rule applies (e.g. pushing colSums instead of the
  * multiplication); both sides of that comparison run on `Exec`.
  */
final case class NormalizedMatrix(s: COOMatrix, k: COOMatrix, r: COOMatrix) {
  require(s.rows == k.rows, s"S rows ${s.rows} != K rows ${k.rows}")
  require(k.cols == r.rows, s"K cols ${k.cols} != R rows ${r.rows}")

  def rows: Long = s.rows
  def cols: Long = s.cols + r.cols

  /** `S`, `K` and `R` bound to the leaves of the companion's plans. */
  def env: Exec.Env = Map("S" -> Exec.MatV(s), "K" -> Exec.MatV(k), "R" -> Exec.MatV(r))

  /** `n` (ncol(M) rows) split at row dS into the leaves of
    * [[NormalizedMatrix.rightMul]]: `Ntop` (dS rows) and `Nbot` (dR rows),
    * each in driver memory, cut from `n`'s local copy.
    */
  def split(n: COOMatrix): Exec.Env = {
    require(n.rows == cols, s"dims: ${rows}x$cols * ${n.rows}x${n.cols}")
    val (l, d) = (n.local, s.cols.toInt)
    def part(at: Range): Exec.EVal = Exec.MatV(COOMatrix.fromLocal(n.spark,
      LocalCOO(l.values(at, ::).copy, l.stored(at, ::).copy)))
    Map("Ntop" -> part(0 until d), "Nbot" -> part(d until l.rows))
  }
}

object NormalizedMatrix {

  private val (s, k, r) = (Mat("S"), Mat("K"), Mat("R"))

  /** The join output M itself (the unfactorized baseline). */
  val materialized: Expr = CBind(s, Mul(k, r))

  // ----------------------- Morpheus factorized rewrite rules ----------------

  /** Multiplication pushdown: M·N = S·Ntop + K·(R·Nbot) (see
    * [[NormalizedMatrix.split]]). Avoids materializing M but still produces
    * an nS x ncol(N) intermediate.
    */
  val rightMul: Expr = Add(Mul(s, Mat("Ntop")), Mul(k, Mul(r, Mat("Nbot"))))

  /** Left multiplication: X·M = [X·S, (X·K)·R]. */
  def leftMul(x: Expr): Expr = CBind(Mul(x, s), Mul(Mul(x, k), r))

  /** colSums(M) = [colSums(S), colSums(K)·R]. */
  val colSums: Expr = CBind(ColSums(s), Mul(ColSums(k), r))

  /** rowSums(M) = rowSums(S) + K·rowSums(R). */
  val rowSums: Expr = Add(RowSums(s), Mul(k, RowSums(r)))

  /** sum(M) = sum(S) + sum(colSums(K)·rowSums(R)). */
  val sum: Expr = SAdd(Sum(s), Sum(Mul(ColSums(k), RowSums(r))))

  /** Synthetic PK-FK pair in the paper's §9.2.1 setup: `tupleRatio` =
    * nS/nR, `featureRatio` = dR/dS; K assigns each S-row a dimension row
    * uniformly. Every leaf is drawn in driver memory from a fixed seed, so
    * the pair is the same under any core count. K stays a DataFrame: at B6's
    * tuple ratio 10 it is 10000×1000, above `COOMatrix.MaxLocalCells`.
    */
  def synthetic(spark: SparkSession, nR: Long, dS: Long, tupleRatio: Double,
                featureRatio: Double): NormalizedMatrix = {
    val seed = 21L
    val nS = (nR * tupleRatio).toLong
    val dR = (dS * featureRatio).toLong
    val s  = Gen.dense(spark, nS, dS, seed)
    val r  = Gen.dense(spark, nR, dR, seed + 1)
    val fk = new scala.util.Random(seed + 2)
    val k  = (0L until nS).map(i => (i, fk.nextLong(nR), 1.0))
    NormalizedMatrix(s, COOMatrix(spark.createDataFrame(k).toDF("i", "j", "v"), nS, nR), r)
  }
}
