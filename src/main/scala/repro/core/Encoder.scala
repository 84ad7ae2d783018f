package repro.core

/** `enc_LA` (paper §6.2.2): encodes an LA/hybrid expression bottom-up into
  * VREM facts over an [[Instance]], returning the equivalence class of the
  * expression's result. Sub-expression sharing is by construction: an
  * identical constructor over the same input classes reuses the existing
  * result class (the functionality EGDs would merge them anyway).
  */
object Encoder {

  /** Class of the base matrix / view named `n`, creating its `name` and
    * `size` facts on first use. `metaOf` supplies base-matrix metadata
    * (dims + nnz + optional MNC histograms).
    */
  def leafMat(inst: Instance, n: String, metaOf: String => Option[Meta]): Int =
    inst.classOfName(n).getOrElse {
      val id = inst.fresh()
      inst.addFact("name", Vector(id, inst.const(n)))
      metaOf(n).foreach { m =>
        inst.setMeta(id, inst.est.prepare(m))
        recordSize(inst, id)
      }
      id
    }

  def leafSca(inst: Instance, n: String): Int = {
    val c = inst.const(n)
    inst.facts("sname").collectFirst { case f if inst.find(f(1)) == inst.find(c) => inst.find(f(0)) }
      .getOrElse {
        val id = inst.fresh()
        inst.addFact("sname", Vector(id, c))
        inst.setMeta(id, Meta.scalar)
        id
      }
  }

  def leafLit(inst: Instance, v: Double): Int = {
    val c = inst.const(v.toString)
    inst.facts("slit").collectFirst { case f if inst.find(f(1)) == inst.find(c) => inst.find(f(0)) }
      .getOrElse {
        val id = inst.fresh()
        inst.addFact("slit", Vector(id, c))
        inst.setMeta(id, Meta.scalar)
        id
      }
  }

  /** Record a `size` fact (dims as interned constants) for a class whose
    * Meta is known — size-guarded constraints (vector special cases, square
    * decompositions) match against these.
    */
  def recordSize(inst: Instance, id: Int): Unit =
    inst.meta(id).foreach { m =>
      inst.addFact("size", Vector(id, inst.const(m.rows.toString), inst.const(m.cols.toString)))
    }

  /** Add (or reuse) one constructor fact and return its result class. */
  def addCtor(inst: Instance, rel: String, children: Vector[Int]): Int = {
    val c     = VREM.ctors(rel)
    val canon = children.map(inst.find)
    val existing = inst.facts(rel).collectFirst {
      case f if c.childPos.map(p => inst.find(f(p))) == canon => inst.find(f(c.resultPos))
    }
    existing.getOrElse {
      val res = inst.fresh()
      inst.addFact(rel, canon :+ res)
      c.derive(inst.est, canon.map(inst.meta)).foreach { m =>
        inst.setMeta(res, m)
        recordSize(inst, res)
      }
      res
    }
  }

  /** Encode an expression; returns the result's equivalence class. */
  def encode(inst: Instance, e: Expr, metaOf: String => Option[Meta]): Int = {
    def rec(x: Expr): Int = x match {
      case Mat(n)  => leafMat(inst, n, metaOf)
      case Sca(n)  => leafSca(inst, n)
      case Lit(v)  => leafLit(inst, v)
      case n: Node => addCtor(inst, n.rel, n.children.map(rec).toVector)
    }
    rec(e)
  }

  /** Encode a materialized view (paper §6.2.4): the body's atoms plus a
    * `name` fact binding the body's result class to the view's stored name
    * — the `V_IO`/`V_OI` constraint pair collapses to this under class-ID
    * semantics.
    */
  def encodeView(inst: Instance, viewName: String, body: Expr,
                 metaOf: String => Option[Meta]): Int = {
    val r = encode(inst, body, metaOf)
    inst.addFact("name", Vector(r, inst.const(viewName)))
    r
  }
}
