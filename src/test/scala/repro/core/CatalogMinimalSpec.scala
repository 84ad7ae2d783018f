package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Constraints.tgd

/** The catalog is minimal in Ruler's sense (Nandi et al., OOPSLA 2021): no
  * row follows from the others within the rewriter's own budget. A row's
  * premise is encoded with one fresh class per variable and chased with the
  * rest of the catalog; the row's conclusion must then be absent (for an
  * EGD: its two classes must stay apart). A row that merely never fires on
  * a workload is not redundant and stays.
  */
class CatalogMinimalSpec extends AnyFunSuite {

  private val cfg = Rewriter.Config()

  /** Does chasing `c`'s premise with `rest` derive `c`'s conclusion? */
  def derivable(c: Constraint, rest: Seq[Constraint]): Boolean = {
    val premise = c match {
      case t: TGD => t.premise
      case e: EGD => e.premise
    }
    val i   = new Instance(NaiveEstimator)
    val cls = premise.flatMap(_.vars).distinct.map(_ -> i.fresh()).toMap
    def id(a: String): Int = if (a.startsWith("\"")) i.const(a.substring(1, a.length - 1)) else cls(a)
    premise.foreach(a => i.addFact(a.rel, a.args.map(id)))
    Chase.run(i, rest, cfg.maxRounds, cfg.maxFacts, deadlineMillis = cfg.deadlineMillis)
    c match {
      case t: TGD => Chase.matches(i, t.conclusion, cls).nonEmpty
      case e: EGD => i.find(cls(e.left)) == i.find(cls(e.right))
    }
  }

  /** Names of the rows of `catalog` that the other rows derive. */
  def redundant(catalog: Seq[Constraint]): Seq[String] =
    catalog.filter(c => derivable(c, catalog.filterNot(_ eq c))).map(_.name)

  test("no row of the default catalog follows from the others") {
    assert(redundant(Catalog.all) == Nil)
  }

  test("no row of the default catalog with QR/LU follows from the others") {
    assert(redundant(Catalog.all ++ Catalog.qrlu) == Nil)
  }

  test("a row that add-assoc-1 and add-comm derive is found redundant") {
    // M+(N+D) = (M+N)+D, the reverse of add-assoc-1.
    val regroup = tgd("add-assoc-2")("add_M(N,D,R3)", "add_M(M,R3,R2)")(
        "add_M(M,N,R1)", "add_M(R1,D,R2)")
    assert(redundant(Catalog.all :+ regroup).contains("add-assoc-2"))
  }
}
