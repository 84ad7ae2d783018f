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
    leaf(inst, Mat(n)) { id =>
      metaOf(n).foreach { m =>
        inst.setMeta(id, inst.est.prepare(m))
        inst.recordSize(id)
      }
    }

  /** Class of leaf `l`; on first use, a fresh class given to `init`. */
  private def leaf(inst: Instance, l: Leaf)(init: Int => Unit): Int =
    inst.leafClass(l).getOrElse {
      val id = inst.fresh()
      inst.addFact(l.rel, Vector(id, inst.const(l.key)))
      init(id)
      id
    }

  /** Add (or reuse) one constructor fact and return its result class. */
  def addCtor(inst: Instance, rel: String, children: Vector[Int]): Int = {
    val c     = VREM.ctors(rel)
    val canon = children.map(inst.find)
    inst.lookup(rel, c.childPos, canon).map(f => inst.find(f(c.resultPos))).getOrElse {
      val res = inst.fresh()
      inst.addFact(rel, canon :+ res)
      c.derive(inst.est, canon.map(inst.meta)).foreach { m =>
        inst.setMeta(res, m)
        inst.recordSize(res)
      }
      res
    }
  }

  /** Encode an expression; returns the result's equivalence class. */
  def encode(inst: Instance, e: Expr, metaOf: String => Option[Meta]): Int = {
    def rec(x: Expr): Int = x match {
      case Mat(n)  => leafMat(inst, n, metaOf)
      case l: Leaf => leaf(inst, l)(inst.setMeta(_, Meta.scalar))
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
