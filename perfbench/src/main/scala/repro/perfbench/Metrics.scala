package repro.perfbench

/** Metric definitions. Times pool every timed request of the run; the
  * deterministic quantities (γ, cells, chase counters) are taken once per
  * distinct request, so they do not depend on how many passes ran.
  */
object Metrics {

  type Metric = (String, Double, String)

  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted.toIndexedSeq
    val r = p / 100 * (s.size - 1)
    val (lo, hi) = (r.floor.toInt, r.ceil.toInt)
    s(lo) + (s(hi) - s(lo)) * (r - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Mean of the slowest `share` of xs, at least one value. */
  def tailMean(xs: Seq[Double], share: Double): Double =
    mean(xs.sorted.takeRight(math.max(1, math.round(xs.size * share).toInt)))

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def geomean(xs: Iterable[Double]): Double =
    if (xs.isEmpty) 0.0 else math.exp(xs.map(math.log).sum / xs.size)

  /** γ(chosen)/γ(original), each plus one so a plan that is a bare input
    * (γ = 0) keeps the ratio finite and positive.
    */
  def gammaRatio(d: RewriteRecord): Double = (d.gammaChosen + 1) / (d.gammaOrig + 1)

  def cellsRatio(c: Cells): Double = (c.chosen + 1.0) / (c.orig + 1.0)

  def endToEnd(samples: Seq[Sample], refs: Seq[Sample], cells: Map[String, Cells],
               setupS: Double, loopS: Double,
               attempted: Int, failed: Int): Seq[Metric] = {
    val answers = samples.filter(_.answered)
    // RW_find figures come from the rewrite-only requests where a workload
    // has them: its answers are too few, and of too few queries, to time
    // the rewriter by.
    val rw = (if (answers.size < samples.size) samples.filterNot(_.answered) else samples).map(_.rwMs)
    Seq(
      ("setup_s", setupS, "s"),
      ("rewrites_per_s", rw.size / (rw.sum / 1000), "1/s"),
      ("rw_find_ms_p50", median(rw), "ms"),
      ("rw_find_ms_tail5", tailMean(rw, 0.05), "ms"),
      ("answer_ms_p50", median(answers.map(_.answerMs)), "ms"),
      ("answers_per_min", answers.size / loopS * 60, "1/min"),
      ("gamma_ratio_geomean", geomean(refs.map(s => gammaRatio(s.rec))), "ratio"),
      ("cells_ratio_geomean", geomean(cells.values.map(cellsRatio)), "ratio"),
      ("success_frac", (attempted - failed).toDouble / attempted, "fraction"),
    )
  }

  def perLayer(samples: Seq[Sample], refs: Seq[Sample], cells: Map[String, Cells],
               checked: Map[String, Checked], tracer: Tracer,
               counters: Option[Spark.Counters], replicaMismatch: Int): Seq[Metric] = {
    val traced   = samples.filter(_.traced)
    val answers  = traced.filter(_.answered)
    val untraced = samples.filter(s => !s.traced && s.answered)
    val self     = tracer.selfMsByName
    def perCall(span: String): Double = self.getOrElse(span, 0.0) / math.max(1, tracer.count(span))
    val recs = refs.map(_.rec)
    def perDistinct(f: RewriteRecord => Double): Double = mean(recs.map(f))
    def spark(f: ((Long, Long, Long)) => Long): Double =
      counters.fold(0.0)(c => mean(answers.map(s => f(c.get(s"r${s.seq}")).toDouble)))
    // The original runs once per request: on the first (checked) answer on
    // hybrid-twitter, in the oracle check on rewrite-catalog. Pair it
    // with the chosen plan's mean time in the timed loop.
    val chosenMs = samples.groupMapReduce(_.key)(s => (s.chosenMs, 1))((a, b) => (a._1 + b._1, a._2 + b._2))
    val execPairs: Seq[(Double, Double)] =
      refs.collect { case s if !s.origMs.isNaN && chosenMs.contains(s.key) =>
        val (sum, n) = chosenMs(s.key); (s.origMs, sum / n)
      } ++ checked.values.collect { case c if !c.origMs.isNaN => (c.origMs, c.chosenMs) }
    val tracedMs   = mean(answers.map(_.answerMs))
    val untracedMs = mean(untraced.map(_.answerMs))
    Seq(
      ("costmodel.gamma_ms", perCall("gamma"), "ms"),
      ("sparsity.mnc_derivations", mean(traced.map(_.mncDerivations.toDouble)), "count"),
      ("encoder.ms", perCall("encode"), "ms"),
      ("encoder.facts", mean(traced.map(_.encodeFacts.toDouble)), "count"),
      ("chase.ms", perCall("chase"), "ms"),
      ("chase.rounds", perDistinct(_.rounds), "count"),
      ("chase.facts", perDistinct(_.facts), "count"),
      ("chase.merges", perDistinct(_.merges), "count"),
      ("chase.pruned", perDistinct(_.pruned), "count"),
      ("chase.budget_hits", recs.count(_.budgetHit).toDouble, "count"),
      ("chase.deadline_hits", recs.count(_.deadlineHit).toDouble, "count"),
      ("extract.ms", perCall("extract"), "ms"),
      ("rewriter.improved_frac", recs.count(_.improved).toDouble / recs.size, "fraction"),
      ("rewriter.cost_mismatch", recs.count(_.costMismatch).toDouble, "count"),
      ("exec.orig_ms", mean(execPairs.map(_._1)), "ms"),
      ("exec.chosen_ms", perCall("exec.chosen"), "ms"),
      ("exec.chosen_steps", mean(cells.values.map(_.chosenSteps.toDouble)), "count"),
      ("exec.chosen_cells", mean(cells.values.map(_.chosen.toDouble)), "count"),
      ("exec.wall_speedup_geomean", geomean(execPairs.map { case (o, c) => o / c }
                                               .filter(x => x > 0 && !x.isInfinite)), "ratio"),
      ("spark.jobs", spark(_._1), "count"),
      ("spark.tasks", spark(_._2), "count"),
      ("spark.shuffle_mb", spark(_._3) / 1e6, "MB"),
      ("hybrid.ra_ms", perCall("ra.build"), "ms"),
      ("views.materialize_ms", perCall("views"), "ms"),
      ("viewsubst.hits", mean(answers.map(_.vsubHits.toDouble)), "count"),
      ("request.self_ms", perCall("request"), "ms"),
      ("trace.overhead_pct", 100 * (tracedMs - untracedMs) / untracedMs, "%"),
      ("trace.replica_mismatch", replicaMismatch.toDouble, "count"),
    )
  }

  /** One per-request row of deterministic fields. */
  def row(s: Sample, cells: Option[Cells], sparkJobs: Option[Long]): String = {
    val d = s.rec
    Json.obj(
      "key" -> s.key, "best" -> d.best,
      "gamma_orig" -> d.gammaOrig, "gamma_best" -> d.gammaBest, "gamma_chosen" -> d.gammaChosen,
      "reported_best" -> d.reportedBest,
      "chase_rounds" -> d.rounds, "chase_facts" -> d.facts, "chase_merges" -> d.merges,
      "chase_pruned" -> d.pruned, "budget_hit" -> d.budgetHit, "deadline_hit" -> d.deadlineHit,
      "orig_cells" -> cells.map(_.orig).getOrElse(-1L),
      "chosen_cells" -> cells.map(_.chosen).getOrElse(-1L),
      "chosen_steps" -> cells.map(_.chosenSteps).getOrElse(-1),
      "spark_jobs" -> sparkJobs.getOrElse(-1L))
  }
}
