package repro.perfbench

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import org.json4s.{DefaultFormats, Formats}
import org.json4s.jackson.Serialization

/** In-memory span recorder. A span is (name, parent span, request id, start,
  * end); spans of one request share the request id. Nothing is written until
  * the run ends. When disabled, `span` only evaluates its body.
  */
final class Tracer(val enabled: Boolean) {

  private val names    = ArrayBuffer[String]()
  private val parents  = ArrayBuffer[Int]()
  private val requests = ArrayBuffer[Int]()
  private val starts   = ArrayBuffer[Long]()
  private val ends     = ArrayBuffer[Long]()
  private var current  = -1
  private var request  = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = names.length
      names += name; parents += current; requests += request
      starts += System.nanoTime(); ends += 0L
      val saved = current
      current = id
      try body
      finally { ends(id) = System.nanoTime(); current = saved }
    }

  /** Root span of one request; child spans opened inside carry `id`. */
  def request[A](id: Int)(body: => A): A = {
    val saved = request
    request = id
    try span("request")(body) finally request = saved
  }

  /** Self time per span name in ms: a span's duration minus the part its
    * children cover (children run inside their parent, one at a time).
    */
  def selfMsByName: Map[String, Double] = {
    val child = new Array[Long](names.length)
    for (i <- names.indices if parents(i) >= 0) child(parents(i)) += ends(i) - starts(i)
    names.indices.groupMapReduce(names)(i => (ends(i) - starts(i) - child(i)) / 1e6)(_ + _)
  }

  def count(name: String): Int = names.count(_ == name)

  /** One JSON object per span, times in ns relative to the first span. */
  def lines: Iterator[String] = {
    val t0 = starts.headOption.getOrElse(0L)
    names.indices.iterator.map { i =>
      Json.obj("id" -> i, "parent" -> parents(i), "request" -> requests(i),
               "name" -> names(i), "start_ns" -> (starts(i) - t0), "end_ns" -> (ends(i) - t0))
    }
  }
}

/** JSON rendering of rows, spans and the result line. */
object Json {
  private implicit val formats: Formats = DefaultFormats

  /** One object with its keys in the given order. Nested maps become
    * objects; a None field is left out.
    */
  def obj(kv: (String, Any)*): String = Serialization.write(ListMap(kv: _*))
}
