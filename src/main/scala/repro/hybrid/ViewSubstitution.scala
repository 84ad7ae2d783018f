package repro.hybrid

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.analysis.MultiInstanceRelation
import org.apache.spark.sql.catalyst.expressions.Alias
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule

/** RA-side materialized-view substitution as a genuine Catalyst rule.
  *
  * The paper's architecture applies HADAD *above* the engines; this rule is
  * the portability demonstration for the RA half (DESIGN.md §2, system 11):
  * it is injected via `spark.experimental.extraOptimizations` and replaces
  * any optimized logical subtree that is canonically equal to a registered
  * view definition with a scan of the view's materialized Parquet output
  * (the paper's §2 "rewriting introduces V1/V2 into the preprocessing").
  *
  * `register` reads the Parquet output once and keeps the analyzed scan,
  * with its file listing. Each substitution re-instantiates that scan, so
  * attribute IDs are fresh without listing files or running a job; a
  * Project re-binds the view's output to the replaced subtree's expr IDs.
  */
object ViewSubstitution extends Rule[LogicalPlan] {

  private final case class Entry(canonical: LogicalPlan, path: String, scan: LogicalPlan)
  private val registry = scala.collection.mutable.ArrayBuffer[Entry]()

  /** Count of subtree replacements performed (observability for tests). */
  @volatile var substitutions: Long = 0L

  /** Install into the session's experimental optimizations (idempotent). */
  def install(spark: SparkSession): Unit =
    if (!spark.experimental.extraOptimizations.contains(this))
      spark.experimental.extraOptimizations =
        spark.experimental.extraOptimizations :+ this

  /** Materialize `definition` at `path` and register it for substitution,
    * replacing any earlier view at `path` (its scan lists files now gone).
    */
  def register(definition: DataFrame, path: String): Unit = {
    registry.filterInPlace(_.path != path)
    definition.write.mode("overwrite").parquet(path)
    val scan = definition.sparkSession.read.parquet(path).queryExecution.analyzed
    registry += Entry(definition.queryExecution.optimizedPlan.canonicalized, path, scan)
  }

  def clear(): Unit = { registry.clear(); substitutions = 0L }

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp {
    case p =>
      registry.find(_.canonical == p.canonicalized) match {
        case Some(e) =>
          substitutions += 1
          val scan = e.scan.transformUp { case r: MultiInstanceRelation => r.newInstance() }
          Project(p.output.zip(scan.output).map { case (o, a) =>
            Alias(a, o.name)(exprId = o.exprId)
          }, scan)
        case None => p
      }
  }
}
