package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession

/** Benchmark entry point: one workload, one seed, one run.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir> [--sha <git sha>]
  * }}}
  *
  * Set-up is JVM and Spark start, `SetupRounds` rounds of input generation
  * and view materialization (the median round counts), and `WarmupPasses`
  * passes, less their value checks; `setup_s` is their sum. The closed
  * loop, one client, then answers whole passes in a seeded order until
  * `--seconds` have passed.
  * With `--trace 1`, passes alternate between traced and untraced, so the
  * run reports the tracing overhead itself. Writes rows, samples, spans and
  * the result under `--out`; the last line on stdout is the result object.
  */
object Main {

  val SetupRounds = 3

  /** Untimed passes before the timed loop. On hybrid-twitter the rewriter's
    * times settle only after Spark has run next to it for a while; with two
    * passes, the first timed pass was still about a tenth slower than the
    * rest on both workloads.
    */
  val WarmupPasses = 3

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, sha: String)

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv))
      catch { case t: Throwable => t.printStackTrace(); 2 }
    System.out.flush()
    System.exit(code)
  }

  private def parse(argv: Array[String]): Opts = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
         need("trace") == "1", need("out"), kv.getOrElse("sha", "unknown"))
  }

  private def log(s: String): Unit = Console.err.println(s"[perfbench] $s")

  def run(o: Opts): Int = {
    new File(o.out).mkdirs()
    var session: Option[(SparkSession, Spark.Counters)] = None
    lazy val spark = { val s = Spark.start(new File(o.out, "spark-local").getAbsolutePath); session = Some(s); s._1 }
    val w = Workload.byName(o.workload, spark, new File(o.out).getAbsolutePath)
    if (w.usesSpark) spark
    val startS = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0

    val tracer = new Tracer(o.trace)
    val off    = new Tracer(false)
    val refs      = mutable.LinkedHashMap[String, Sample]()
    val failures  = mutable.ArrayBuffer[String]()
    var replicaMismatch = 0
    var seq = 0

    /** Answer one request. The first answer to a key is value-checked and
      * kept as the reference; later answers must repeat its rewrite and cells.
      */
    def answer(key: String, tr: Tracer): Option[Sample] = {
      val id = seq; seq += 1
      val got =
        try Some(w.answer(key, id, tr, check = !refs.contains(key)))
        catch { case t: Throwable => failures += s"$key: threw ${t.getClass.getSimpleName}: ${t.getMessage}"; None }
      got.map { s =>
        val errs = mutable.ArrayBuffer[String]() ++ s.failure
        if (s.rec.costlier) errs += s"$key: γ(chosen) ${s.rec.gammaChosen} > γ(original) ${s.rec.gammaOrig}"
        refs.get(key) match {
          case None => refs(key) = s
          case Some(r) =>
            if (r.rec != s.rec) {
              if (s.traced != r.traced) replicaMismatch += 1
              errs += s"$key: rewrite differs between repetitions: ${r.rec} vs ${s.rec}"
            }
            val chosenCells = (c: Cells) => (c.chosen, c.chosenSteps)
            if (r.cells.map(chosenCells) != s.cells.map(chosenCells))
              errs += s"$key: cells differ between repetitions: ${r.cells} vs ${s.cells}"
        }
        failures ++= errs
        if (errs.isEmpty) s else s.copy(failure = Some(errs.mkString("; ")))
      }
    }

    // ------------------------------------------------------------ set-up
    // Inputs and views are built SetupRounds times (the median counts); the
    // warm-up passes run on the last round's inputs. Value checks made
    // during the warm-up are not set-up work and are left out.
    val roundS = (1 to SetupRounds).map { k =>
      val t0 = System.nanoTime()
      w.setup(tracer)
      val s = (System.nanoTime() - t0) / 1e9
      log(f"set-up round $k: $s%.3f s")
      s
    }
    val warm0 = System.nanoTime()
    val warm  = (1 to WarmupPasses).flatMap(_ => w.keys.flatMap(answer(_, off)))
    val warmS = (System.nanoTime() - warm0) / 1e9 - warm.map(_.checkMs).sum / 1e3
    log(f"warm-up: $warmS%.3f s")
    val setupS = startS + Metrics.median(roundS) + warmS
    val setupFailures = failures.size

    // ------------------------------------------------------- timed loop
    val rng     = new Random(o.seed)
    val samples = mutable.ArrayBuffer[Sample]()
    var attempted = 0
    var pass = 0
    val loop0 = System.nanoTime()
    def elapsed = (System.nanoTime() - loop0) / 1e9
    while (pass == 0 || elapsed < o.seconds || (o.trace && pass < 2)) {
      val tr = if (o.trace && pass % 2 == 0) tracer else off
      for (key <- rng.shuffle(w.keys)) {
        attempted += 1
        answer(key, tr).foreach(samples += _)
      }
      pass += 1
    }
    // Value checks of first answers are not answer work.
    val loopS = elapsed - samples.map(_.checkMs).sum / 1e3
    log(f"timed loop: $pass passes, $attempted requests in $loopS%.3f s")

    // ------------------------------------------------ post-loop checks
    val checked = w.postCheck(refs.map { case (k, s) => k -> s.chosen }.toMap, tracer)
    checked.values.flatMap(_.failure).foreach(failures += _)
    // A request whose reference answer or check failed fails on every answer.
    val badKeys = (refs.collect { case (k, s) if s.failure.isDefined => k } ++
                   checked.collect { case (k, c) if c.failure.isDefined => k }).toSet
    w.close()
    session.foreach(_._1.stop())
    val counters = session.map(_._2)

    val ok     = samples.filter(s => s.failure.isEmpty && !badKeys(s.key))
    val failed = attempted - ok.size
    val cellsOf: Map[String, Cells] =
      refs.collect { case (k, s) if s.cells.isDefined => k -> s.cells.get }.toMap ++
        checked.collect { case (k, Checked(Some(c), _, _, _)) => k -> c }
    val jobsOf: Map[String, Long] =
      counters.fold(Map.empty[String, Long])(c => refs.map { case (k, s) => k -> c.get(s"r${s.seq}")._1 }.toMap)
    val metrics: Seq[(String, Double, String)] =
      if (!o.trace) Metrics.endToEnd(samples.toSeq, refs.values.toSeq, cellsOf, setupS, loopS,
                                     attempted, failed)
      else Metrics.perLayer(samples.toSeq, refs.values.toSeq, cellsOf, checked, tracer,
                            counters, replicaMismatch)

    // ----------------------------------------------------------- output
    val tag = s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    val header = Json.obj(
      "workload" -> o.workload, "seed" -> o.seed, "trace" -> o.trace, "sha" -> o.sha,
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "jvm" -> System.getProperty("java.vm.version"),
      "spark" -> org.apache.spark.SPARK_VERSION)
    writeLines(new File(o.out, s"rows-$tag.jsonl"),
      Iterator.single(header) ++ refs.keys.toSeq.sorted.iterator.map { k =>
        Metrics.row(refs(k), cellsOf.get(k), jobsOf.get(k))
      })
    writeLines(new File(o.out, s"samples-$tag.jsonl"), samples.iterator.map { s =>
      def ms(x: Double) = Some(x).filterNot(_.isNaN)
      Json.obj("key" -> s.key, "seq" -> s.seq, "traced" -> s.traced, "rw_ms" -> s.rwMs,
               "answer_ms" -> s.answerMs, "orig_ms" -> ms(s.origMs), "chosen_ms" -> ms(s.chosenMs))
    })
    if (o.trace) writeLines(new File(o.out, s"spans-${o.workload}-seed${o.seed}.jsonl"), tracer.lines)
    failures.distinct.take(20).foreach(f => log(s"FAILED $f"))
    if (setupFailures > 0) log(s"$setupFailures failures during set-up")
    metrics.foreach { case (n, v, u) => log(f"$n%-30s $v%14.4f $u") }
    val correct = failures.isEmpty
    val result = Json.obj(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> ListMap(metrics.map { case (n, v, u) => n -> ListMap("value" -> v, "unit" -> u) }: _*))
    writeLines(new File(o.out, s"result-$tag.json"), Iterator.single(result))
    println(result)
    0
  }

  private def writeLines(f: File, lines: Iterator[String]): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try lines.foreach(pw.println) finally pw.close()
  }
}
