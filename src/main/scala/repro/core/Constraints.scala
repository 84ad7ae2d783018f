package repro.core

/** Tuple- and equality-generating dependencies over VREM (paper §4.1).
  *
  * Constraints are written in a compact textual DSL so that extending
  * HADAD's LA knowledge is purely declarative (the paper's extensibility
  * claim): `tgd("mul-assoc")("multi_M(M,N,R1)", "multi_M(R1,D,R2)")(
  * "multi_M(N,D,R3)", "multi_M(M,R3,R2)")`. Identifiers are variables;
  * double-quoted tokens are constants. Variables that appear only in a TGD's
  * conclusion are existentially quantified.
  */
sealed trait Constraint { def name: String }

/** One atom pattern; `args` holds variable names or `"`-prefixed constants. */
final case class PatAtom(rel: String, args: Vector[String]) {
  def vars: Set[String] = args.filterNot(_.startsWith("\"")).toSet
  override def toString: String = s"$rel(${args.mkString(",")})"
}

final case class TGD(name: String, premise: Vector[PatAtom], conclusion: Vector[PatAtom])
    extends Constraint {
  val premiseVars: Set[String]    = premise.flatMap(_.vars).toSet
  val existentials: Set[String]   = conclusion.flatMap(_.vars).toSet -- premiseVars

  // The chase derives metadata in one pass over the conclusion's constructor
  // atoms, so the producer (result last) of an existential input comes first.
  private val ctors = conclusion.filter(a => VREM.ctors.contains(a.rel))
  for ((a, i) <- ctors.zipWithIndex; x <- a.args.init if existentials(x)) {
    val producer = ctors.indexWhere(_.args.last == x)
    require(producer < i, s"TGD $name: $a uses existential $x before ${ctors(producer)} produces it")
  }

  /** Premise and conclusion as the chase searches them; `named` holds the
    * existentials' slots, in `existentials` order.
    */
  private[core] lazy val compiled: Chase.Compiled = Chase.compile(premise, conclusion, existentials.toSeq)
}

/** Premise match implies `left = right` (both must be premise variables). */
final case class EGD(name: String, premise: Vector[PatAtom], left: String, right: String)
    extends Constraint {

  /** The premise as the chase searches it; `named` holds the slots of
    * `left` and `right`.
    */
  private[core] lazy val compiled: Chase.Compiled = Chase.compile(premise, Vector.empty, Seq(left, right))
}

object Constraints {

  private val AtomRe = """\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*""".r

  /** Parse `rel(a, b, "const")`; arity-checked against the VREM schema. */
  def atom(s: String): PatAtom = s match {
    case AtomRe(rel, argsStr) =>
      val args = splitArgs(argsStr).map { a =>
        if (a.startsWith("\"")) {
          require(a.endsWith("\"") && a.length >= 2, s"bad constant $a in $s")
          a
        } else {
          require(a.matches("[A-Za-z_][A-Za-z0-9_]*"), s"bad variable '$a' in $s")
          a
        }
      }.toVector
      val ar = VREM.arity.getOrElse(rel, sys.error(s"unknown VREM relation '$rel' in $s"))
      require(args.length == ar, s"$rel expects $ar args, got ${args.length} in $s")
      PatAtom(rel, args)
    case _ => sys.error(s"unparsable atom: $s")
  }

  private def splitArgs(s: String): Seq[String] = {
    // Split on commas outside quotes.
    val out  = Vector.newBuilder[String]
    val cur  = new StringBuilder
    var inQ  = false
    s.foreach {
      case '"'            => inQ = !inQ; cur += '"'
      case ',' if !inQ    => out += cur.result().trim; cur.clear()
      case c              => cur += c
    }
    val last = cur.result().trim
    if (last.nonEmpty) out += last
    out.result()
  }

  def tgd(name: String)(premise: String*)(conclusion: String*): TGD =
    TGD(name, premise.map(atom).toVector, conclusion.map(atom).toVector)

  /** An equivalence the search traverses both ways: the TGD `lhs → rhs`
    * named `name`, then its exact swap `rhs → lhs` named `revName`.
    */
  def eqv(name: String, revName: String)(lhs: String*)(rhs: String*): Seq[TGD] =
    Seq(tgd(name)(lhs: _*)(rhs: _*), tgd(revName)(rhs: _*)(lhs: _*))

  /** `eq` is of the form `"X=Y"`. */
  def egd(name: String)(premise: String*)(eq: String): EGD = {
    val Array(l, r) = eq.split("=").map(_.trim)
    val p           = premise.map(atom).toVector
    val vs          = p.flatMap(_.vars).toSet
    require(vs(l) && vs(r), s"EGD $name equates non-premise variables $l=$r")
    EGD(name, p, l, r)
  }
}
