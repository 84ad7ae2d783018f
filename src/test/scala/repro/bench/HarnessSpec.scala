package repro.bench

import repro.SparkSpec
import repro.core.{Meta, Rewriter}
import repro.matrix.Exec

class HarnessSpec extends SparkSpec {

  test("a run whose every node is placed in driver memory starts no Spark job") {
    // At these dims every kernel call's dense work is below Exec.LocalWork.
    val meta = Map("M" -> Meta.dense(60, 30), "N" -> Meta.dense(30, 60))
    val env  = Harness.envFromMeta(spark, meta)
    // P1.1's result is a matrix, whose sum the sanity check computes; P1.13's is a scalar.
    for (id <- Seq("P1.1", "P1.13")) {
      val e = Pipelines.byId(id)
      val (row, jobs) = jobsOf(Harness.run("T", id, e, meta, Nil)(env, env))
      assert(jobs == 0, s"$id started $jobs Spark jobs")
      assert(row.origCells == Exec.run(e, env).totalCells)
      assert(row.rwCells == Exec.run(Rewriter.rewrite(e, meta).chosen, env).totalCells)
    }
  }
}
