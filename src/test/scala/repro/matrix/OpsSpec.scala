package repro.matrix

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}

/** Spark kernel correctness: each of [[Ops]]'s data-parallel kernels is
  * checked against DuckDB SQL over the same COO tables (via the Oracle) and
  * against dense Breeze results. The Breeze-only kernels (inverse,
  * determinant, Cholesky, element-exp) live in `LocalCOO` alone and are
  * checked against the oracle in `ExecSpec`.
  */
class OpsSpec extends SparkSpec {

  private lazy val a = Gen.dense(spark, 12, 7, seed = 1)
  private lazy val b = Gen.dense(spark, 7, 9, seed = 2)
  private lazy val c = Gen.sparse(spark, 12, 7, nnz = 30, seed = 3)

  private def coo(m: COOMatrix): DataFrame = m.df

  test("multiply matches DuckDB join-aggregate") {
    val got = Ops.multiply(a, b).df.select("i", "j", "v")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(a.i AS BIGINT) AS i, CAST(b.j AS BIGINT) AS j,
        |       SUM(CAST(a.v AS DOUBLE) * CAST(b.v AS DOUBLE)) AS v
        |FROM a JOIN b ON CAST(a.j AS BIGINT) = CAST(b.i AS BIGINT)
        |GROUP BY 1, 2""".stripMargin,
      "a" -> coo(a), "b" -> coo(b))
  }

  test("add matches DuckDB full-outer aggregation") {
    val got = Ops.add(a, c).df.select("i", "j", "v")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j, SUM(CAST(v AS DOUBLE)) AS v
        |FROM (SELECT * FROM a UNION ALL SELECT * FROM c)
        |GROUP BY 1, 2""".stripMargin,
      "a" -> coo(a), "c" -> coo(c))
  }

  test("hadamard matches DuckDB inner join") {
    val got = Ops.hadamard(a, c).df.select("i", "j", "v")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(a.i AS BIGINT) AS i, CAST(a.j AS BIGINT) AS j,
        |       CAST(a.v AS DOUBLE) * CAST(c.v AS DOUBLE) AS v
        |FROM a JOIN c ON a.i = c.i AND a.j = c.j""".stripMargin,
      "a" -> coo(a), "c" -> coo(c))
  }

  test("transpose matches DuckDB column swap") {
    val got = Ops.transpose(a).df.select("i", "j", "v")
    Oracle.assertEquivalent(
      got,
      "SELECT CAST(j AS BIGINT) AS i, CAST(i AS BIGINT) AS j, CAST(v AS DOUBLE) AS v FROM a",
      "a" -> coo(a))
  }

  test("rowSums matches DuckDB group-by") {
    val got = Ops.rowSums(a).df.select("i", "j", "v")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(i AS BIGINT) AS i, CAST(0 AS BIGINT) AS j, SUM(CAST(v AS DOUBLE)) AS v
        |FROM a GROUP BY 1""".stripMargin,
      "a" -> coo(a))
  }

  test("colSums matches DuckDB group-by") {
    val got = Ops.colSums(a).df.select("i", "j", "v")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(0 AS BIGINT) AS i, CAST(j AS BIGINT) AS j, SUM(CAST(v AS DOUBLE)) AS v
        |FROM a GROUP BY 2""".stripMargin,
      "a" -> coo(a))
  }

  test("scalarMul matches DuckDB projection") {
    val got = Ops.scalarMul(2.5, a).df.select("i", "j", "v")
    Oracle.assertEquivalent(
      got,
      "SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j, CAST(v AS DOUBLE) * 2.5 AS v FROM a",
      "a" -> coo(a))
  }

  test("cbind matches DuckDB shifted union") {
    val d   = Gen.dense(spark, 12, 4, seed = 4)
    val got = Ops.cbind(a, d).df.select("i", "j", "v")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j, CAST(v AS DOUBLE) AS v FROM a
        |UNION ALL
        |SELECT CAST(i AS BIGINT), CAST(j AS BIGINT) + 7, CAST(v AS DOUBLE) FROM d""".stripMargin,
      "a" -> coo(a), "d" -> coo(d))
  }

  // Dense Breeze cross-checks of the Spark kernels.

  private def close(x: Double, y: Double): Boolean = math.abs(x - y) < 1e-8 * math.max(1, math.abs(y))

  test("roundtrip local/fromBreeze preserves values") {
    val m  = a.local.values
    val m2 = COOMatrix(COOMatrix.fromBreeze(spark, m).df, a.rows, a.cols).local.values
    assert(breeze.linalg.max(breeze.numerics.abs(m - m2)) < 1e-12)
  }

  test("multiply/add/sub/hadamard/divide agree with Breeze") {
    val (ba, bb, bc) = (a.local.values, b.local.values, c.local.values)
    assert(breeze.linalg.max(breeze.numerics.abs(
      Ops.multiply(a, b).local.values - ba * bb)) < 1e-9)
    assert(breeze.linalg.max(breeze.numerics.abs(
      Ops.add(a, c).local.values - (ba + bc))) < 1e-9)
    assert(breeze.linalg.max(breeze.numerics.abs(
      Ops.subtract(a, c).local.values - (ba - bc))) < 1e-9)
    assert(breeze.linalg.max(breeze.numerics.abs(
      Ops.hadamard(a, c).local.values - (ba *:* bc))) < 1e-9)
    assert(breeze.linalg.max(breeze.numerics.abs(
      Ops.divide(c, a).local.values - (bc /:/ ba))) < 1e-9)
  }

  test("sum/trace/diag agree with Breeze") {
    val sq = Gen.dense(spark, 9, 9, seed = 5)
    val bs = sq.local.values
    assert(close(Ops.sumAll(sq), breeze.linalg.sum(bs)))
    assert(close(Ops.trace(sq), breeze.linalg.trace(bs)))
    val d = Ops.diag(sq).local.values
    (0 until 9).foreach(i => assert(close(d(i, 0), bs(i, i))))
  }

  test("computeMeta reports exact nnz and MNC histograms") {
    val m = c.computeMeta(mnc = true)
    assert(m.nnz == c.nnz.toDouble)
    assert(m.hist.isDefined)
    assert(m.hist.get.hr.sum == m.nnz)
    assert(m.hist.get.hc.sum == m.nnz)
  }
}
