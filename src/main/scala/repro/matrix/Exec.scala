package repro.matrix

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core._

/** "As stated" pipeline evaluator over the COO engine: [[Eval]] with each
  * operator placed, by its shape alone, in driver memory ([[LocalCOO]]) or
  * on Spark ([[Ops]]), as SystemML's hybrid runtime plans do (Boehm et al.,
  * VLDB 2016).
  *
  * Every Spark operator's output is **materialized** (persist + count)
  * before the next operator runs, mirroring how the paper's backends execute
  * a pipeline in syntactic order with materialized intermediates — this is
  * what makes intermediate-result size (the quantity HADAD's cost model
  * optimizes) the dominant cost on this substrate too. A local operator's
  * output is already in memory and keeps the same stored cells, so the run
  * records the same deterministic metrics, materialized cells and multiply
  * pairs per node, under any placement.
  */
object Exec {

  type EVal = Val[COOMatrix]
  val MatV = Val.Mat
  val ScaV = Val.Sca

  type Env = Map[String, EVal]

  /** Largest dense work that runs in driver memory: m·k·n for a product,
    * and the largest input or output cell count for the other data-parallel
    * kernels. `inverse`, `choleskyL`, `expElem` and `determinant` have only
    * a Breeze kernel, so they always run in driver memory, up to
    * `COOMatrix.MaxLocalCells`.
    */
  val LocalWork: Double = (1 << 22).toDouble

  /** One operator node: its VREM relation, its output's cells (1 for a
    * scalar) and, for a product of two matrices, its scalar products a·b.
    */
  final case class Step(op: String, cells: Long, pairs: Long = 0L)

  final case class Result(value: EVal, steps: Vector[Step], wallMillis: Double) {
    /** Total materialized intermediate cells — the deterministic bench metric. */
    def totalCells: Long = steps.map(_.cells).sum
    def scalar: Double = value.fold(identity, scalarOf)
  }

  /** The value of a 1×1 matrix (0 when its cell is not stored), read in
    * driver memory; the shape is checked before any cell is collected.
    */
  private def scalarOf(m: COOMatrix): Double = {
    require(m.rows == 1 && m.cols == 1, s"not scalar: ${m.rows}x${m.cols}")
    LocalCOO.scalar(m.local)
  }

  /** Evaluate `e` over `env`, materializing every operator output. */
  def run(e: Expr, env: Env): Result = run(e, env, _ <= LocalWork)

  /** [[run]] with a data-parallel kernel call placed in driver memory iff
    * `local` holds for its dense work.
    */
  private[matrix] def run(e: Expr, env: Env, local: Double => Boolean): Result = {
    val t0        = System.nanoTime()
    val steps     = Vector.newBuilder[Step]
    val persisted = scala.collection.mutable.ArrayBuffer[COOMatrix]()

    def materialize(n: Node, in: Seq[EVal], v: EVal): EVal = {
      val cells = v.fold(_ => 1L, { m =>
        if (!m.isLocal) {
          m.df.persist(StorageLevel.MEMORY_AND_DISK)
          persisted += m
        }
        m.nnz
      })
      steps += Step(n.rel, cells, (n, in) match {
        case (_: Mul, Seq(MatV(a), MatV(b))) => pairs(a, b)
        case _                               => 0L
      })
      v
    }

    try {
      val v = Eval(e, env, new Placed(local), materialize)
      Result(v, steps.result(), (System.nanoTime() - t0) / 1e6)
    } finally {
      // Keep the final result usable: unpersist lazily, not blocking.
      persisted.foreach(_.df.unpersist(blocking = false))
    }
  }

  /** Scalar products of a·b, Σ_k (a's stored cells in column k)·(b's in
    * row k): from the stored patterns when both are in driver memory, else
    * by a Spark job.
    */
  private def pairs(a: COOMatrix, b: COOMatrix): Long =
    if (a.isLocal && b.isLocal) {
      val D = LocalExec.Dense
      D.scalar(D.multiply(D.colSums(a.local.stored), D.rowSums(b.local.stored))).toLong
    } else Ops.multiplyPairs(a, b)

  /** Each data-parallel kernel call on [[LocalCOO]] when `local` holds for
    * its dense work, else on [[Ops]]; the Breeze-only kernels, `lift` and
    * `scalar` on [[LocalCOO]]. A local result is a `COOMatrix` that keeps
    * its copy. This is the only `Kernels[COOMatrix]`.
    */
  private final class Placed(local: Double => Boolean) extends Kernels[COOMatrix] {
    private type C = COOMatrix
    private val L = LocalCOO

    private def cells(ms: C*): Double = ms.map(_.cells.toDouble).max
    private def mat(work: Double, a: C)(spark: => C, here: => LocalCOO): C =
      if (local(work)) keep(a, here) else spark
    private def keep(a: C, l: LocalCOO): C = COOMatrix.fromLocal(a.spark, l)
    private def num(work: Double)(spark: => Double, here: => Double): Double =
      if (local(work)) here else spark

    def lift(s: Double): C = COOMatrix.fromLocal(SparkSession.active, L.lift(s))
    def scalar(m: C): Double = scalarOf(m)
    def multiply(a: C, b: C): C =
      mat(a.rows.toDouble * a.cols * b.cols, a)(Ops.multiply(a, b), L.multiply(a.local, b.local))
    def add(a: C, b: C): C      = mat(cells(a, b), a)(Ops.add(a, b), L.add(a.local, b.local))
    def subtract(a: C, b: C): C = mat(cells(a, b), a)(Ops.subtract(a, b), L.subtract(a.local, b.local))
    def hadamard(a: C, b: C): C = mat(cells(a, b), a)(Ops.hadamard(a, b), L.hadamard(a.local, b.local))
    def divide(a: C, b: C): C   = mat(cells(a, b), a)(Ops.divide(a, b), L.divide(a.local, b.local))
    def scalarMul(c: Double, a: C): C = mat(cells(a), a)(Ops.scalarMul(c, a), L.scalarMul(c, a.local))
    def transpose(a: C): C = mat(cells(a), a)(Ops.transpose(a), L.transpose(a.local))
    def inverse(a: C): C   = keep(a, L.inverse(a.local))
    def expElem(a: C): C   = keep(a, L.expElem(a.local))
    def diag(a: C): C      = mat(cells(a), a)(Ops.diag(a), L.diag(a.local))
    def rowSums(a: C): C   = mat(cells(a), a)(Ops.rowSums(a), L.rowSums(a.local))
    def colSums(a: C): C   = mat(cells(a), a)(Ops.colSums(a), L.colSums(a.local))
    def cbind(a: C, b: C): C =
      mat(a.cells.toDouble + b.cells, a)(Ops.cbind(a, b), L.cbind(a.local, b.local))
    def choleskyL(a: C): C       = keep(a, L.choleskyL(a.local))
    def determinant(a: C): Double = L.determinant(a.local)
    def trace(a: C): Double       = num(cells(a))(Ops.trace(a), L.trace(a.local))
    def sumAll(a: C): Double      = num(cells(a))(Ops.sumAll(a), L.sumAll(a.local))
  }
}
