package repro.bench

import repro.SparkSpec

/** B1 — paper Fig 5 numbers: P1.1, P1.3, P1.4, P1.15 with/without HADAD
  * rewriting (no views). Paper speedups: 1.3–4× (P1.1), ~1.5–2× (P1.3),
  * up to 9× (P1.4 dense), large (P1.15 chain order).
  */
class B1LANoViewsBench extends SparkSpec {
  test("B1: LA rewriting without views") {
    val rows = Tables.b1.run(spark)
    Harness.printTable("B1 (paper Fig 5): LA rewriting, no views", rows)
    val byId = rows.map(r => r.pipeline -> r).toMap
    // Shape: the rewrite must win on materialized cells everywhere.
    assert(byId("P1.1").cellSpeedup > 1.2)   // paper 1.3–4×
    assert(byId("P1.3").cellSpeedup >= 1.0)  // one inverse instead of two
    assert(byId("P1.4").cellSpeedup > 2.0)   // paper up to 9×
    assert(byId("P1.15").cellSpeedup > 10)   // chain order: O(n²) → O(m²)
  }
}

/** B2 — paper Fig 6 numbers: P1.13 (50×), P1.25, P1.14/P2.12 (up to 42×). */
class B2LAAggBench extends SparkSpec {
  test("B2: aggregate-rewrite pipelines") {
    val rows = Tables.b2.run(spark)
    Harness.printTable("B2 (paper Fig 6): aggregation rewrites", rows)
    val byId = rows.map(r => r.pipeline -> r).toMap
    assert(byId("P1.13").cellSpeedup > 100) // paper 50× wall; cells collapse to O(n+m)
    assert(byId("P1.14").cellSpeedup > 100) // paper up to 42×
    assert(byId("P2.12").cellSpeedup > 100)
    assert(byId("P1.25").cellSpeedup > 1.0) // chain-order inside the division
  }
}

/** B3 — paper Fig 8: distribution of speedups across all P^¬Opt pipelines.
  * Paper: 87% of the low bucket ≥1.5×; 13 pipelines ≥10×; P1.5 ~1000×.
  */
class B3DistributionBench extends SparkSpec {
  test("B3: speedup distribution over P^¬Opt") {
    val rows = Tables.b3.run(spark)
    Harness.printTable("B3 (paper Fig 8): P^¬Opt speedup distribution", rows)
    val ups   = rows.map(_.cellSpeedup)
    val ge1   = ups.count(_ >= 0.999)
    val ge1_5 = ups.count(_ >= 1.5)
    val ge10  = ups.count(_ >= 10)
    println(f"distribution: n=${ups.size}, ≥1×: $ge1, ≥1.5×: $ge1_5, ≥10×: $ge10, " +
            f"max=${ups.max}%.0f×")
    assert(ge1 == ups.size, "a rewrite made some pipeline worse on cells")
    assert(ge1_5 >= ups.size / 2, s"expected most pipelines ≥1.5×, got $ge1_5/${ups.size}")
    assert(ge10 >= 5, s"expected a ≥10× tail as in the paper, got $ge10")
  }
}

/** B4 — paper Fig 7: view-based rewriting of P2.14, P2.21, P2.25, P2.27
  * with V_exp. Paper: 2.8× (P2.14), 70–150× (P2.21), 65× (P2.25), 4–41× (P2.27).
  */
class B4ViewsBench extends SparkSpec {
  test("B4: view-based LA rewriting") {
    val rows = Tables.b4.run(spark)
    Harness.printTable("B4 (paper Fig 7): view-based rewriting with V_exp", rows)
    val byId = rows.map(r => r.pipeline -> r).toMap
    assert(byId("P2.14").cellSpeedup > 1.5)
    assert(byId("P2.21").cellSpeedup > 10)
    assert(byId("P2.25").cellSpeedup > 5)
    assert(byId("P2.27").cellSpeedup > 1.5)
  }
}

/** B5 — §9.1.3: RW_find times and optimization overhead. Paper: naive — 64%
  * under 25 ms, max ~200 ms; MNC — 55% under 20 ms, max ~300 ms; overhead on
  * already-optimal pipelines ≲ 10%.
  */
class B5OverheadBench extends SparkSpec {
  test("B5: rewriting time and overhead") {
    val (finds, sample) = Tables.b5(spark)
    println("\n== B5 (paper §9.1.3): RW_find across all 57 pipelines ==")
    for (est <- Seq("naive", "mnc")) {
      val ts = finds.filter(_.estimator == est).map(_.findMs).sorted
      val under25 = 100.0 * ts.count(_ < 25) / ts.size
      println(f"$est%-6s n=${ts.size} median=${ts(ts.size / 2)}%.1f ms " +
              f"p90=${ts((ts.size * 9) / 10)}%.1f ms max=${ts.last}%.0f ms " +
              f"under25ms=$under25%.0f%%")
    }
    Harness.printTable("B5: overhead on already-optimal pipelines", sample)
    sample.foreach(r => println(f"${r.pipeline}: overhead=${r.overheadPct}%.2f%%"))
    val naive = finds.filter(_.estimator == "naive").map(_.findMs)
    assert(naive.count(_ < 100) >= naive.size / 2, "rewriting should mostly be fast")
  }
}
