package repro.matrix

import repro.SparkSpec

/** Matrix generators: shapes, sparsity profiles, determinism, SPD validity. */
class GenSpec extends SparkSpec {

  test("dense generator fills every cell with positive values") {
    val m = Gen.dense(spark, 17, 5, seed = 3)
    assert(m.nnz == 85)
    assert(m.df.filter("v <= 0").count() == 0)
    assert(m.rows == 17 && m.cols == 5)
  }

  test("sparse generator hits close to the target nnz with no duplicates") {
    val m = Gen.sparse(spark, 200, 100, nnz = 500, seed = 4)
    val n = m.nnz
    assert(n > 400 && n <= 500, s"nnz=$n")
    assert(m.df.groupBy("i", "j").count().filter("count > 1").count() == 0)
  }

  test("generators are deterministic in seed") {
    val a = Gen.dense(spark, 9, 9, seed = 11).df.agg(org.apache.spark.sql.functions.sum("v"))
      .collect()(0).getDouble(0)
    val b = Gen.dense(spark, 9, 9, seed = 11).df.agg(org.apache.spark.sql.functions.sum("v"))
      .collect()(0).getDouble(0)
    assert(a == b)
  }

  test("vector generator is a column") {
    val v = Gen.vector(spark, 12)
    assert(v.cols == 1 && v.nnz == 12)
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
