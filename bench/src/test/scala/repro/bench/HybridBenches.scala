package repro.bench

import repro.SparkSpec

/** B6 — paper Fig 9: Morpheus with vs without HADAD rewrites over tuple
  * ratios. Paper: up to 125× (P1.12), 15× (P2.10), 20× (P2.11), 4.5× (P2.15).
  */
class B6MorpheusBench extends SparkSpec {
  test("B6: Morpheus ± HADAD over tuple ratios") {
    val rows = Tables.b6(spark)
    println("\n== B6 (paper Fig 9): Morpheus with vs without HADAD ==")
    println(f"${"pipeline"}%-8s ${"TR"}%4s ${"morpheus work"}%15s ${"hadad work"}%12s " +
            f"${"workx"}%8s ${"m ms"}%8s ${"h ms"}%8s ${"wallx"}%7s")
    rows.foreach { r =>
      println(f"${r.pipeline}%-8s ${r.tupleRatio}%4.0f ${r.morpheusWork}%15d " +
              f"${r.hadadWork}%12d ${r.workSpeedup}%8.1f ${r.morpheusMs}%8.0f " +
              f"${r.hadadMs}%8.0f ${r.wallSpeedup}%7.1f")
    }
    val byId = rows.groupBy(_.pipeline)
    // Shape: HADAD's pushdowns always reduce compute work, and the advantage
    // grows with the tuple ratio (as in the paper's figure).
    assert(byId("P1.12").forall(_.workSpeedup > 10))
    assert(byId("P2.10").forall(_.workSpeedup > 2))
    assert(byId("P2.11").forall(_.workSpeedup > 10))
    assert(byId("P2.15").forall(_.workSpeedup > 1.0))
    for (p <- Seq("P1.12", "P2.11")) {
      val sorted = byId(p).sortBy(_.tupleRatio).map(_.workSpeedup)
      assert(sorted.last >= sorted.head, s"$p: speedup should grow with tuple ratio")
    }
  }
}

/** B7 — paper Fig 10: Twitter hybrid Q1–Q10 over three keyword
  * selectivities. Paper speedups: 16.5× (Q1) down to 2.3× (Q5).
  */
class B7HybridTwitterBench extends SparkSpec {
  test("B7: Twitter hybrid benchmark") {
    val rows = Tables.b7(spark)
    Harness.printTable("B7 (paper Fig 10): Twitter hybrid Q1–Q10", rows)
    // Shape: every query improves on materialized cells for every selectivity.
    rows.groupBy(_.pipeline.takeWhile(_ != '/')).foreach { case (q, rs) =>
      assert(rs.forall(_.cellSpeedup >= 0.999), s"$q regressed: ${rs.map(_.cellSpeedup)}")
    }
    val big = rows.count(_.cellSpeedup > 3)
    assert(big >= rows.size / 3, s"expected a sizable fraction of >3× wins, got $big/${rows.size}")
  }
}

/** B8 — paper Fig 11: MIMIC hybrid over three care units (three N sizes). */
class B8HybridMimicBench extends SparkSpec {
  test("B8: MIMIC hybrid benchmark") {
    val rows = Tables.b8(spark)
    Harness.printTable("B8 (paper Fig 11): MIMIC hybrid over care units", rows)
    rows.groupBy(_.pipeline.takeWhile(_ != '/')).foreach { case (q, rs) =>
      assert(rs.forall(_.cellSpeedup >= 0.999), s"$q regressed")
    }
  }
}

/** B9 — paper Fig 12 / §9.2.3: rewriting-time overhead on Morpheus
  * pipelines: ≲0.1% for multiplication pipelines, up to ~9% for cheap
  * aggregate-only pipelines on small data.
  */
class B9MorpheusOverheadBench extends SparkSpec {
  test("B9: Morpheus rewriting overhead") {
    val rows = Tables.b9(spark)
    println("\n== B9 (paper Fig 12): Morpheus rewriting overhead ==")
    rows.foreach { r =>
      println(f"${r.pipeline}%-8s nR=${r.nR}%6d find=${r.findMs}%7.1f ms " +
              f"exec=${r.execMs}%8.0f ms overhead=${r.overheadPct}%6.2f%%")
    }
    // Shape: overhead shrinks as data grows (same pipeline, larger nR).
    rows.groupBy(_.pipeline).foreach { case (p, rs) =>
      val bySize = rs.sortBy(_.nR)
      assert(bySize.last.overheadPct <= bySize.head.overheadPct * 3 + 5,
             s"$p overhead did not stay controlled: ${bySize.map(_.overheadPct)}")
    }
  }
}
