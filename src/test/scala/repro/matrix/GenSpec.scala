package repro.matrix

import repro.SparkSpec
import repro.bench.{Harness, Tables}

/** Matrix generators: shapes, sparsity profiles, local seeded draws, SPD validity. */
class GenSpec extends SparkSpec {

  test("dense generator fills every cell with positive values") {
    val m = Gen.dense(spark, 17, 5, seed = 3)
    assert(m.nnz == 85)
    assert(m.df.filter("v <= 0").count() == 0)
    assert(m.rows == 17 && m.cols == 5)
  }

  test("sparse generator stores exactly nnz distinct cells") {
    val m = Gen.sparse(spark, 200, 100, nnz = 500, seed = 4)
    assert(m.nnz == 500)
    assert(m.df.count() == 500)
    assert(m.df.groupBy("i", "j").count().filter("count > 1").count() == 0)
  }

  /** The cells of `m` as Spark stores them, in row order. */
  private def sparkCells(m: COOMatrix): Seq[(Int, Int, Double)] =
    m.df.collect().toSeq.map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getDouble(2))).sorted

  test("generators equal the local draws for their seed") {
    assert(Gen.dense(spark, 9, 7, seed = 11).local.values == LocalExec.rand(9, 7, 11))
    assert(Gen.spd(spark, 6, seed = 12).local.values == LocalExec.randSPD(6, 12))
    // Gen.sparse: nnz distinct positions from a seeded Random, then their values.
    val (rows, cols, nnz, seed) = (30, 20, 70, 13L)
    val r   = new scala.util.Random(seed)
    val at  = scala.collection.mutable.LinkedHashSet[Long]()
    while (at.size < nnz) at += r.nextLong(rows.toLong * cols)
    val want = at.toSeq.map(c => ((c / cols).toInt, (c % cols).toInt, r.nextDouble() + 0.1)).sorted
    val m = Gen.sparse(spark, rows, cols, nnz, seed)
    assert(m.local.entries == want)
    assert(sparkCells(m) == want)
    assert(sparkCells(Gen.dense(spark, 9, 7, seed = 11)) ==
           LocalCOO.fromBreeze(LocalExec.rand(9, 7, 11)).entries)
  }

  test("building the B3 environment and reading every leaf's nnz and cells runs no Spark job") {
    val (_, jobs) = jobsOf {
      Harness.envFromMeta(spark, Tables.b3Meta).values.foreach(_.fold(_ => (), { m => m.nnz; m.local }))
    }
    assert(jobs == 0)
  }

  test("spd generator is symmetric and invertible") {
    val m  = Gen.spd(spark, 10, seed = 5).local.values
    assert(breeze.linalg.max(breeze.numerics.abs(m - m.t)) < 1e-12)
    assert(breeze.linalg.det(m) > 0)
  }

  test("fromBreeze drops zeros; COOMatrix guards local densify") {
    val d = breeze.linalg.DenseMatrix((1.0, 0.0), (0.0, 2.0))
    val m = COOMatrix.fromBreeze(spark, d)
    assert(m.nnz == 2)
    intercept[IllegalArgumentException] {
      COOMatrix(m.df, 100000, 100000).local
    }
  }
}
