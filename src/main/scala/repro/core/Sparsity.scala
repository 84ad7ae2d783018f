package repro.core

/** Per-dimension non-zero count histograms, as in the MNC estimator
  * (Sommer et al., SIGMOD 2019; paper §7.2.2): `hr(i)` = non-zeros in row i,
  * `hc(j)` = non-zeros in column j. Exact for base matrices (built offline),
  * derived approximately for intermediates (built online — that derivation
  * cost is the "MNC overhead" the paper measures in §9.1.3).
  */
final case class Hist(hr: Array[Double], hc: Array[Double]) {
  def nnz: Double = hr.sum
}

/** Size + sparsity metadata of one expression equivalence class.
  *
  * `nnz` is an estimate of the number of non-zeros; `hist` is present only
  * under the MNC estimator and only while dimensions stay below
  * [[Meta.MaxHistDim]] (beyond that MNC falls back to metadata formulas,
  * mirroring the original system's guards).
  */
final case class Meta(rows: Long, cols: Long, nnz: Double, hist: Option[Hist]) {
  def cells: Double    = rows.toDouble * cols.toDouble
  def sparsity: Double = if (cells == 0) 0.0 else nnz / cells
  def isScalar: Boolean = rows == 1 && cols == 1
}

object Meta {
  val MaxHistDim = 4_000_000L

  def dense(rows: Long, cols: Long): Meta = Meta(rows, cols, rows.toDouble * cols, None)

  def scalar: Meta = Meta(1, 1, 1.0, None)

  /** Leaf metadata with uniformly-spread non-zeros (synthetic default). */
  def sparse(rows: Long, cols: Long, nnz: Double): Meta = Meta(rows, cols, math.min(nnz, rows.toDouble * cols), None)
}

/** Estimates the size (nnz) of each operator's output from its inputs' Meta.
  * The cost model γ(E) = Σ over intermediates of estimated nnz (§7.1) is
  * built on top of these.
  */
sealed trait Estimator {
  def name: String

  /** Attach (or drop) estimator-specific state to base-matrix metadata. */
  def prepare(m: Meta): Meta

  def mul(a: Meta, b: Meta): Meta
  def add(a: Meta, b: Meta): Meta
  def had(a: Meta, b: Meta): Meta

  /** Element-wise division: defined on the divisor's support. */
  def div(a: Meta, b: Meta): Meta = had(a, b)

  def tr(a: Meta): Meta

  /** Inverse output treated as dense (no structural guarantees survive). */
  def inv(a: Meta): Meta = Meta.dense(a.rows, a.cols)

  /** Element-wise exponential: exp(0)=1, so the output is dense. */
  def exp(a: Meta): Meta = Meta.dense(a.rows, a.cols)

  def diag(a: Meta): Meta = Meta(math.min(a.rows, a.cols), 1, math.min(a.nnz, math.min(a.rows, a.cols).toDouble), None)

  def rowSums(a: Meta): Meta
  def colSums(a: Meta): Meta

  def cbind(a: Meta, b: Meta): Meta

  /** Cholesky factor: lower triangular, n(n+1)/2 non-zeros worst case. */
  def cho(a: Meta): Meta = Meta(a.rows, a.cols, a.rows.toDouble * (a.rows + 1) / 2, None)
}

/** Naïve metadata estimator (§7.2.1): worst-case bounds from base metadata
  * only — zero runtime overhead, but structure-blind.
  */
object NaiveEstimator extends Estimator {
  val name = "naive"

  def prepare(m: Meta): Meta = m.copy(hist = None)

  def mul(a: Meta, b: Meta): Meta = {
    val cells = a.rows.toDouble * b.cols
    // Worst case: every nnz of A hits b.cols outputs / every nnz of B hits a.rows.
    val nnz = math.min(cells, math.min(a.nnz * b.cols, b.nnz * a.rows))
    Meta(a.rows, b.cols, nnz, None)
  }

  def add(a: Meta, b: Meta): Meta =
    Meta(a.rows, a.cols, math.min(a.cells, a.nnz + b.nnz), None)

  def had(a: Meta, b: Meta): Meta =
    Meta(a.rows, a.cols, math.min(a.nnz, b.nnz), None)

  def tr(a: Meta): Meta = Meta(a.cols, a.rows, a.nnz, None)

  def rowSums(a: Meta): Meta = Meta(a.rows, 1, math.min(a.rows.toDouble, a.nnz), None)
  def colSums(a: Meta): Meta = Meta(1, a.cols, math.min(a.cols.toDouble, a.nnz), None)

  def cbind(a: Meta, b: Meta): Meta = Meta(a.rows, a.cols + b.cols, a.nnz + b.nnz, None)
}

/** MNC estimator (§7.2.2): structure-exploiting estimation via row/column
  * nnz-count histograms. Base histograms are exact (computed offline);
  * intermediate histograms are derived online with proportional spreading —
  * `derivations` counts those online constructions so the bench can report
  * the MNC overhead the paper discusses.
  */
final class MNCEstimator extends Estimator {
  val name = "mnc"

  /** Online histogram derivations performed so far (overhead proxy). */
  var derivations: Long = 0L

  /** A leaf without histograms gets the uniform spread once, here, rather
    * than at every derivation that reads it.
    */
  def prepare(m: Meta): Meta =
    if (m.hist.isEmpty && fits(m.rows, m.cols)) m.copy(hist = Some(uniform(m))) else m

  private def fits(rows: Long, cols: Long): Boolean =
    rows <= Meta.MaxHistDim && cols <= Meta.MaxHistDim

  // The histogram arithmetic runs in while loops over unboxed arrays (the
  // function types are specialized on Double). Sums are left folds from
  // 0.0, as `.sum` is, so estimates do not change by a bit.

  private def sum(a: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i); i += 1 }
    s
  }

  private def map(x: Array[Double])(f: Double => Double): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = f(x(i)); i += 1 }
    out
  }

  /** `f` over pairs, up to the shorter array's length (as `zip`). */
  private def zipWith(x: Array[Double], y: Array[Double])(f: (Double, Double) => Double): Array[Double] = {
    val out = new Array[Double](math.min(x.length, y.length))
    var i = 0
    while (i < out.length) { out(i) = f(x(i), y(i)); i += 1 }
    out
  }

  private def spreadHist(rows: Long, cols: Long, nnz: Double,
                         rowWeights: Array[Double], colWeights: Array[Double]): Option[Hist] = {
    if (!fits(rows, cols)) return None
    derivations += 1
    val rw = sum(rowWeights)
    val cw = sum(colWeights)
    val hr = map(rowWeights)(w => if (rw == 0) 0.0 else math.min(cols.toDouble, nnz * w / rw))
    val hc = map(colWeights)(w => if (cw == 0) 0.0 else math.min(rows.toDouble, nnz * w / cw))
    Some(Hist(hr, hc))
  }

  private def uniform(m: Meta): Hist = {
    derivations += 1
    def filled(n: Long, v: Double) = { val a = new Array[Double](n.toInt); java.util.Arrays.fill(a, v); a }
    Hist(filled(m.rows, m.nnz / m.rows), filled(m.cols, m.nnz / m.cols))
  }

  /** A histogram for `m`: its own, or for an intermediate derived without
    * one (a dense result, a naive fallback), the uniform spread.
    */
  private def histOf(m: Meta): Option[Hist] =
    m.hist.orElse(if (fits(m.rows, m.cols)) Some(uniform(m)) else None)

  def mul(a: Meta, b: Meta): Meta = {
    val rows  = a.rows; val cols = b.cols
    val cells = rows.toDouble * cols
    (histOf(a), histOf(b)) match {
      case (Some(ha), Some(hb)) =>
        // Scalar products performed: dot product of A's column hist and B's row hist.
        val k        = math.min(ha.hc.length, hb.hr.length)
        var products = 0.0
        var i        = 0
        while (i < k) { products += ha.hc(i) * hb.hr(i); i += 1 }
        // Collision adjustment (balls-into-bins): products land in rows×cols cells.
        val nnz = if (cells == 0) 0.0
                  else math.min(cells, cells * (1.0 - math.exp(-products / cells)))
        Meta(rows, cols, nnz, spreadHist(rows, cols, nnz, ha.hr, hb.hc))
      case _ => NaiveEstimator.mul(a, b)
    }
  }

  def add(a: Meta, b: Meta): Meta = (histOf(a), histOf(b)) match {
    case (Some(ha), Some(hb)) =>
      derivations += 1
      val hr = zipWith(ha.hr, hb.hr)((x, y) => math.min(a.cols.toDouble, x + y))
      val hc = zipWith(ha.hc, hb.hc)((x, y) => math.min(a.rows.toDouble, x + y))
      Meta(a.rows, a.cols, sum(hr), Some(Hist(hr, hc)))
    case _ => NaiveEstimator.add(a, b)
  }

  def had(a: Meta, b: Meta): Meta = (histOf(a), histOf(b)) match {
    case (Some(ha), Some(hb)) =>
      derivations += 1
      // Expected per-row overlap of two independent supports of the given sizes.
      val hr = zipWith(ha.hr, hb.hr)((x, y) => if (a.cols == 0) 0.0 else x * y / a.cols)
      val hc = zipWith(ha.hc, hb.hc)((x, y) => if (a.rows == 0) 0.0 else x * y / a.rows)
      Meta(a.rows, a.cols, sum(hr), Some(Hist(hr, hc)))
    case _ => NaiveEstimator.had(a, b)
  }

  def tr(a: Meta): Meta =
    Meta(a.cols, a.rows, a.nnz, a.hist.map(h => Hist(h.hc, h.hr)))

  def rowSums(a: Meta): Meta = histOf(a) match {
    case Some(h) =>
      val hr  = map(h.hr)(x => if (x > 0) 1.0 else 0.0)
      val nnz = sum(hr)
      Meta(a.rows, 1, nnz, Some(Hist(hr, Array(nnz))))
    case None => NaiveEstimator.rowSums(a)
  }

  def colSums(a: Meta): Meta = histOf(a) match {
    case Some(h) =>
      val hc  = map(h.hc)(x => if (x > 0) 1.0 else 0.0)
      val nnz = sum(hc)
      Meta(1, a.cols, nnz, Some(Hist(Array(nnz), hc)))
    case None => NaiveEstimator.colSums(a)
  }

  def cbind(a: Meta, b: Meta): Meta = (histOf(a), histOf(b)) match {
    case (Some(ha), Some(hb)) =>
      derivations += 1
      Meta(a.rows, a.cols + b.cols, a.nnz + b.nnz,
           Some(Hist(zipWith(ha.hr, hb.hr)(_ + _), Array.concat(ha.hc, hb.hc))))
    case _ => NaiveEstimator.cbind(a, b)
  }
}
