package repro.core

import scala.collection.mutable

/** The facts of one relation, in insertion order, with a positional index:
  * `index(p)` maps a class id to the facts holding it at argument `p`.
  * Index keys are the ids current at insert time; `compact` rebuilds them
  * after merges.
  */
private[core] final class Rel {
  val facts = mutable.ArrayBuffer[Vector[Int]]()
  private val set = mutable.HashSet[Vector[Int]]()
  private var index = Array.empty[mutable.LongMap[mutable.ArrayBuffer[Vector[Int]]]]

  /** Append a canonical fact; false if it is already present. */
  def add(f: Vector[Int]): Boolean =
    set.add(f) && { facts += f; indexFact(f); true }

  private def indexFact(f: Vector[Int]): Unit = {
    if (index.length < f.length)
      index ++= Array.fill(f.length - index.length)(mutable.LongMap.empty[mutable.ArrayBuffer[Vector[Int]]])
    var p = 0
    while (p < f.length) {
      index(p).getOrElseUpdate(f(p), mutable.ArrayBuffer()) += f
      p += 1
    }
  }

  /** Facts with class `cls` at argument `pos`, or null if there are none. */
  def bucket(pos: Int, cls: Int): mutable.ArrayBuffer[Vector[Int]] =
    if (pos < index.length) index(pos).getOrNull(cls) else null

  /** Re-canonicalize with `find`, drop duplicates (the first occurrence
    * stays), rebuild the index into fresh maps. Returns the number of facts
    * kept.
    */
  def compact(find: Int => Int): Int = {
    val old = facts.toArray
    set.clear(); facts.clear()
    index = index.map(m => new mutable.LongMap[mutable.ArrayBuffer[Vector[Int]]](m.size))
    old.foreach(f => add(f.map(find)))
    facts.length
  }
}

/** Canonical database over VREM class IDs, with EGD merging via union-find.
  *
  * IDs identify *equivalence classes of expressions* (paper §6.2.1): two
  * classes merge exactly when the constraints prove the expressions they
  * stand for are value-equal. Constants (matrix names, dimension literals,
  * type tags) are interned into the same ID space but are never merged with
  * a different constant.
  */
final class Instance(val est: Estimator) {

  // Union-find over ids 0 until nIds, in a growable unboxed array.
  private var parent = new Array[Int](Instance.InitialIds)
  private var nIds   = 0
  private val consts = mutable.HashMap[String, Int]()
  private val idToConst = mutable.LongMap[String]()
  private val metas  = mutable.LongMap[Meta]()
  // Class id of each dimension's constant, for `recordSize`.
  private val dimConsts = mutable.LongMap[Int]()

  private val rels   = mutable.HashMap[String, Rel]()
  private val sizeRel = relation("size")
  private var nFacts = 0

  /** Storage of `rel`, created empty on first use. */
  private[core] def relation(rel: String): Rel = rels.getOrElseUpdate(rel, new Rel)

  def fresh(): Int = {
    if (nIds == parent.length) parent = java.util.Arrays.copyOf(parent, 2 * nIds)
    parent(nIds) = nIds
    nIds += 1
    nIds - 1
  }

  /** Intern a constant (quoted token without the quotes). */
  def const(s: String): Int = consts.getOrElseUpdate(s, { val id = fresh(); idToConst(id) = s; id })

  def constOf(id: Int): Option[String] = idToConst.get(find(id))

  def find(x: Int): Int = {
    var r = x
    while (parent(r) != r) r = parent(r)
    var c = x
    while (parent(c) != c) { val n = parent(c); parent(c) = r; c = n }
    r
  }

  /** Merge two classes; metadata keeps agreeing dims and the minimum nnz
    * estimate (value-equal expressions have the same true nnz — the min is
    * the tightest derivation seen). Distinct constants never merge.
    */
  def union(a: Int, b: Int): Boolean = {
    val ra = find(a); val rb = find(b)
    if (ra == rb) return false
    val ca = idToConst.getOrNull(ra); val cb = idToConst.getOrNull(rb)
    if (ca != null && cb != null && ca != cb) return false // inconsistent EGD; refuse
    // Keep a constant id as the root so constOf survives merges.
    val (root, child) = if (cb != null && ca == null) (rb, ra) else (ra, rb)
    parent(child) = root
    val mc = metas.getOrNull(child)
    if (mc != null) {
      metas -= child
      val mr = metas.getOrNull(root)
      if (mr == null || mc.nnz < mr.nnz) metas(root) = mc
    }
    true
  }

  def setMeta(id: Int, m: Meta): Unit = {
    val r   = find(id)
    val old = metas.getOrNull(r)
    if (old == null || !(old.nnz <= m.nnz)) metas(r) = m
  }

  def meta(id: Int): Option[Meta] = metas.get(find(id))

  def addFact(rel: String, args: Vector[Int]): Boolean = add(relation(rel), args)

  private[core] def add(r: Rel, args: Vector[Int]): Boolean =
    r.add(args.map(find)) && { nFacts += 1; true }

  def facts(rel: String): collection.IndexedSeq[Vector[Int]] =
    rels.get(rel).map(_.facts).getOrElse(Vector.empty)

  def factCount: Int = nFacts

  /** Re-canonicalize all facts after unions, drop duplicates, rebuild index. */
  def compact(): Unit = nFacts = rels.valuesIterator.map(_.compact(find)).sum

  /** Merge the classes that a functional dependency of [[VREM.functional]]
    * determines from equal keys (the paper's I_name and I_{op} EGDs).
    * Returns true if anything merged.
    */
  def functionalClosure(): Boolean = {
    var changed = false
    for (fd <- VREM.functional; resPos <- fd.determined) {
      val groups = mutable.HashMap[Vector[Int], Int]()
      for (f <- facts(fd.rel)) {
        val key = fd.key.map(i => find(f(i)))
        val res = find(f(resPos))
        groups.get(key) match {
          case Some(prev) if prev != res => if (union(prev, res)) changed = true
          case None                      => groups(key) = res
          case _                         =>
        }
      }
    }
    changed
  }

  /** The first fact of `rel`, in insertion order, holding the classes `key`
    * at `keyPos`. It reads the positional index, which is exact while its
    * keys are current: the encoder runs before any `union`, other callers
    * after `Chase.run`'s final `compact`. A miss would only add a duplicate
    * functional fact, which `functionalClosure` merges.
    */
  def lookup(rel: String, keyPos: Vector[Int], key: Vector[Int]): Option[Vector[Int]] =
    rels.get(rel).flatMap { r =>
      val canon   = key.map(find)
      // Buckets keep insertion order, so the smallest holds the first match.
      val buckets = keyPos.indices.map(i => r.bucket(keyPos(i), canon(i)))
      if (buckets.contains(null)) None
      else buckets.minBy(_.length).find(f => keyPos.indices.forall(i => find(f(keyPos(i))) == canon(i)))
    }

  /** Class that leaf `l`'s leaf fact binds, if there is one. */
  private[core] def leafClass(l: Leaf): Option[Int] =
    consts.get(l.key).flatMap(c => lookup(l.rel, Vector(1), Vector(c))).map(f => find(f(0)))

  /** Class for a stored name, if any `name` fact binds it. */
  def classOfName(n: String): Option[Int] = leafClass(Mat(n))

  /** Record `size(id, rows, cols)` if `id`'s Meta is known; size-guarded
    * constraints (vector cases, square decompositions) match against it.
    */
  def recordSize(id: Int): Unit = {
    val m = metas.getOrNull(find(id))
    if (m != null) add(sizeRel, Vector(id, dimConst(m.rows), dimConst(m.cols)))
  }

  private def dimConst(n: Long): Int = dimConsts.getOrElseUpdate(n, const(n.toString))
}

object Instance {
  /** Ids the union-find holds before its array first grows. */
  private[core] final val InitialIds = 64
}

/** Homomorphism search + restricted chase with Prune_prov-style cost pruning
  * (paper §4.2, §7.3).
  */
object Chase {

  final case class Stats(rounds: Int, facts: Int, merges: Int, prunedSteps: Int,
                         hitFactBudget: Boolean, hitDeadline: Boolean)

  /** One pattern atom over a slot space: argument `a >= 0` is the variable
    * in slot `a`, `a < 0` is constant number `-a - 1`. `ctor` is the
    * atom's constructor, or null for non-constructor relations.
    */
  private[core] final class CAtom(val rel: String, val args: Array[Int], val ctor: VREM.Ctor)

  /** A constraint's premise and conclusion compiled to one slot space.
    * `vars(i)` names slot `i`; `named` holds the slots of the variables
    * passed to [[compile]], in that order.
    */
  private[core] final class Compiled(val premise: Array[CAtom], val conclusion: Array[CAtom],
                                     val vars: Array[String], val consts: Array[String],
                                     val named: Array[Int])

  private[core] def compile(premise: Vector[PatAtom], conclusion: Vector[PatAtom],
                            named: Seq[String]): Compiled = {
    val vars   = mutable.LinkedHashMap[String, Int]()
    val consts = mutable.ArrayBuffer[String]()
    def arg(a: String): Int =
      if (a.startsWith("\"")) {
        val c = a.substring(1, a.length - 1)
        if (!consts.contains(c)) consts += c
        -1 - consts.indexOf(c)
      } else vars.getOrElseUpdate(a, vars.size)
    def atoms(as: Vector[PatAtom]): Array[CAtom] =
      as.map(a => new CAtom(a.rel, a.args.map(arg).toArray, VREM.ctors.getOrElse(a.rel, null))).toArray
    val p = atoms(premise); val c = atoms(conclusion)
    new Compiled(p, c, vars.keys.toArray, consts.toArray, named.map(arg).toArray)
  }

  /** A compiled slot space bound to one instance: the current bindings
    * (`-1` = unbound) and the class ids of the constants, interned on first
    * use so that constants enter the instance in the order the search
    * reaches them.
    */
  private final class Bindings(val inst: Instance, c: Compiled) {
    val slot = Array.fill(c.vars.length)(-1)
    private val constIds = Array.fill(c.consts.length)(-1)

    def const(code: Int): Int = {
      val k = -1 - code
      if (constIds(k) < 0) constIds(k) = inst.const(c.consts(k))
      constIds(k)
    }

    /** Class id of an argument, or -1 for an unbound variable. */
    def value(arg: Int): Int = if (arg < 0) const(arg) else slot(arg)
  }

  /** Depth-first homomorphism search for one atom list into the instance,
    * extending the bindings in `b`; each level undoes its own bindings.
    *
    * The choices follow a fixed rule, evaluated when the search descends:
    * the next atom is the first (in the list's order) maximizing
    * `boundArity * 1000 - factCount(rel)`, and its candidates are the
    * smallest index bucket over its bound arguments (only a strictly smaller
    * bucket replaces the current one), or else the whole relation.
    *
    * Candidates are read up to a length fixed at descent (a bucket) or at
    * the start of the search (a whole relation); facts the caller adds after
    * that point are not visited. Recording a length is as exact as copying
    * the list: the only writes to fact lists are appends, as long as no
    * `union`/`compact` runs during the search, and the chase never runs them
    * while it enumerates one constraint's matches.
    */
  private final class Search(b: Bindings, atoms: Array[CAtom]) {
    private val inst  = b.inst
    val rels          = atoms.map(a => inst.relation(a.rel))
    private val start = new Array[Int](atoms.length)
    private val used  = new Array[Boolean](atoms.length)
    private val undo  = Array.fill(atoms.length)(new Array[Int](atoms.map(_.args.length).maxOption.getOrElse(0)))
    private var emit: () => Boolean = _

    /** Calls `f` on each match until it returns false; false iff stopped. */
    def run(f: () => Boolean): Boolean = {
      var i = 0
      while (i < atoms.length) { start(i) = rels(i).facts.length; i += 1 }
      emit = f
      descend(0)
    }

    private def boundArity(a: CAtom): Int = {
      var n = 0; var k = 0
      while (k < a.args.length) { val x = a.args(k); if (x < 0 || b.slot(x) >= 0) n += 1; k += 1 }
      n
    }

    private def descend(depth: Int): Boolean = {
      if (depth == atoms.length) return emit()
      var ai = -1; var best = 0; var i = 0
      while (i < atoms.length) {
        if (!used(i)) {
          val score = boundArity(atoms(i)) * 1000 - rels(i).facts.length
          if (ai < 0 || score > best) { ai = i; best = score }
        }
        i += 1
      }
      val a = atoms(ai); val args = a.args
      var cands: mutable.ArrayBuffer[Vector[Int]] = null
      var n = -1; var k = 0
      while (k < args.length) {
        val v = b.value(args(k))
        if (v >= 0) {
          val bucket = rels(ai).bucket(k, inst.find(v))
          val len    = if (bucket == null) 0 else bucket.length
          if (n < 0 || len < n) { cands = bucket; n = len }
        }
        k += 1
      }
      if (n < 0) { cands = rels(ai).facts; n = start(ai) }

      used(ai) = true
      val bound = undo(depth)
      var go = true; var j = 0
      while (go && j < n) {
        val f = cands(j)
        var nb = 0; var ok = true; k = 0
        while (ok && k < args.length) {
          val x = args(k); val v = inst.find(f(k))
          if (x < 0) ok = inst.find(b.const(x)) == v
          else if (b.slot(x) < 0) { b.slot(x) = v; bound(nb) = x; nb += 1 }
          else ok = inst.find(b.slot(x)) == v
          k += 1
        }
        if (ok) go = descend(depth + 1)
        while (nb > 0) { nb -= 1; b.slot(bound(nb)) = -1 }
        j += 1
      }
      used(ai) = false
      go
    }
  }

  /** All homomorphisms from `atoms` into the instance, extending `bound`. */
  def matches(inst: Instance, atoms: Vector[PatAtom],
              bound: Map[String, Int]): Iterator[Map[String, Int]] = {
    val c = compile(atoms, Vector.empty, Nil)
    val b = new Bindings(inst, c)
    for ((v, i) <- c.vars.zipWithIndex; x <- bound.get(v)) b.slot(i) = x
    val out = Vector.newBuilder[Map[String, Int]]
    new Search(b, c.premise).run { () =>
      out += bound ++ c.vars.indices.collect { case i if !bound.contains(c.vars(i)) => c.vars(i) -> b.slot(i) }
      true
    }
    out.result().iterator
  }

  /** A TGD bound to one instance: premise and conclusion searches share the
    * bindings, so the conclusion check sees the premise match.
    */
  private final class TgdRun(inst: Instance, val t: TGD) {
    private val c  = t.compiled
    val b          = new Bindings(inst, c)
    val premise    = new Search(b, c.premise)
    private val concl = new Search(b, c.conclusion)

    /** Restricted-chase applicability: is the conclusion already satisfied
      * by some extension of the current premise match?
      */
    def satisfied: Boolean = !concl.run(() => false)

    /** Apply the TGD for the current premise match. Returns #facts added;
      * -1 if the step was cost-pruned.
      */
    def apply(threshold: Double): Int = {
      // Bind existentials to fresh classes.
      c.named.foreach(x => b.slot(x) = inst.fresh())
      val added = applyBound(threshold)
      c.named.foreach(x => b.slot(x) = -1)
      added
    }

    private def applyBound(threshold: Double): Int = {
      def idOf(a: CAtom, p: Int): Int = b.value(a.args(p))
      val ctors = c.conclusion.filter(_.ctor != null)

      // Derive metadata in one pass; TGD puts each existential's producer
      // first. setMeta keeps the minimum nnz, so a new derivation may tighten
      // an existing class (value-equal classes share true nnz).
      for (a <- ctors)
        a.ctor.derive(inst.est, a.ctor.childPos.map(p => inst.meta(idOf(a, p))))
          .foreach(inst.setMeta(idOf(a, a.ctor.resultPos), _))

      // Prune_prov: skip the whole step if some intermediate it introduces is
      // already more expensive than the best-known complete rewriting. A rule
      // with no constructor atom in its premise (Cholesky, QR/LU, Morpheus
      // `norm`) is definitional: it states the structure of existing data, not
      // an evaluation alternative, so it is never pruned.
      val tooExpensive = c.premise.exists(_.ctor != null) &&
        ctors.exists(a => inst.meta(idOf(a, a.ctor.resultPos)).exists(_.nnz > threshold))
      if (tooExpensive) return -1

      var added = 0
      for ((a, r) <- c.conclusion.zip(concl.rels))
        if (inst.add(r, Vector.tabulate(a.args.length)(idOf(a, _)))) added += 1
      ctors.foreach(a => inst.recordSize(idOf(a, a.ctor.resultPos)))
      added
    }
  }

  /** An EGD bound to one instance. */
  private final class EgdRun(inst: Instance, e: EGD) {
    private val b       = new Bindings(inst, e.compiled)
    private val premise = new Search(b, e.compiled.premise)
    private val Array(left, right) = e.compiled.named

    /** (left, right) of every premise match, collected before any merge:
      * unions change the classes the search compares.
      */
    def pairs(): Vector[(Int, Int)] = {
      val out = Vector.newBuilder[(Int, Int)]
      premise.run { () => out += (b.slot(left) -> b.slot(right)); true }
      out.result()
    }
  }

  /** Saturate the instance. `threshold` is γ of the original expression —
    * the initial Prune_prov bound (γ is monotonic, so any rewriting using a
    * larger intermediate can never beat the original, §8). The budgets'
    * defaults live in [[Rewriter.Config]] only.
    */
  def run(inst: Instance, constraints: Seq[Constraint], maxRounds: Int,
          maxFacts: Int, threshold: Double = Double.PositiveInfinity,
          deadlineMillis: Long): Stats = {
    val tgds = constraints.collect { case t: TGD => new TgdRun(inst, t) }
    val egds = constraints.collect { case e: EGD => new EgdRun(inst, e) }
    val deadline = System.nanoTime() + deadlineMillis * 1000000L
    def late: Boolean = System.nanoTime() > deadline
    var merges = 0
    var pruned = 0
    var hitBudget = false
    var hitDeadline = false

    def equalitySaturate(): Unit = {
      var changed = true
      while (changed) {
        changed = false
        if (inst.functionalClosure()) changed = true
        for (e <- egds; (l, r) <- e.pairs())
          if (inst.union(l, r)) { changed = true; merges += 1 }
        if (changed) inst.compact()
      }
    }

    var round = 0
    var more  = maxRounds > 0
    // Every round ends saturated, so only the first TGD pass needs a
    // saturation before it.
    if (more) equalitySaturate()
    while (more && round < maxRounds && !hitBudget && !hitDeadline) {
      round += 1
      var added = 0
      for (tr <- tgds
           if !hitBudget && !hitDeadline && tr.premise.rels.forall(_.facts.nonEmpty)) {
        // Steps apply as matches are found; see Search for which of the
        // facts they add the rest of the search still visits.
        tr.premise.run { () =>
          if (!tr.satisfied) {
            tr.apply(threshold) match {
              case -1 => pruned += 1
              case n  => added += n
            }
          }
          if (inst.factCount > maxFacts) hitBudget = true
          if (late) hitDeadline = true
          !hitBudget && !hitDeadline
        }
      }
      equalitySaturate()
      more = added > 0
    }
    Stats(round, inst.factCount, merges, pruned, hitBudget, hitDeadline)
  }
}
