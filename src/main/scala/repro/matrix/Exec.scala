package repro.matrix

import org.apache.spark.storage.StorageLevel
import repro.core._

/** "As stated" pipeline evaluator over the distributed COO engine: [[Eval]]
  * with the [[Ops]] kernels.
  *
  * Every operator's output is **materialized** (persist + count) before the
  * next operator runs, mirroring how the paper's backends execute a pipeline
  * in syntactic order with materialized intermediates — this is what makes
  * intermediate-result size (the quantity HADAD's cost model optimizes) the
  * dominant cost on this substrate too. The run records a deterministic
  * metric, total materialized cells, alongside wall time.
  */
object Exec {

  type EVal = Val[COOMatrix]
  val MatV = Val.Mat
  val ScaV = Val.Sca

  type Env = Map[String, EVal]

  /** One operator node: its VREM relation and its output's cells (1 for a scalar). */
  final case class Step(op: String, cells: Long)

  final case class Result(value: EVal, steps: Vector[Step], wallMillis: Double) {
    /** Total materialized intermediate cells — the deterministic bench metric. */
    def totalCells: Long = steps.map(_.cells).sum
    def scalar: Double = value.fold(identity, Ops.scalar)
  }

  /** Evaluate `e` over `env`, materializing every operator output. */
  def run(e: Expr, env: Env): Result = {
    val t0        = System.nanoTime()
    val steps     = Vector.newBuilder[Step]
    val persisted = scala.collection.mutable.ArrayBuffer[COOMatrix]()

    def materialize(n: Node, v: EVal): EVal = {
      steps += Step(n.rel, v.fold(_ => 1L, { m =>
        m.df.persist(StorageLevel.MEMORY_AND_DISK)
        persisted += m
        m.nnz
      }))
      v
    }

    try {
      val v = Eval(e, env, Ops, materialize)
      Result(v, steps.result(), (System.nanoTime() - t0) / 1e6)
    } finally {
      // Keep the final result usable: unpersist lazily, not blocking.
      persisted.foreach(_.df.unpersist(blocking = false))
    }
  }
}
