package repro.perf

import java.io.{File, PrintWriter}
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One traced interval. `parent` is the id of the enclosing span (-1 at the
  * top), `query` the query index it belongs to (-1 for build spans).
  */
final case class Span(id: Int, name: String, parent: Int, query: Int, startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

/** In-memory span recorder for the benchmark's own calls into each layer.
  *
  * Spans nest through `span`; intervals measured inside Spark tasks are added
  * with `record` (in local mode the tasks share the driver's `nanoTime`
  * clock). Nothing is written until `write`.
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def current: Int = open.headOption.getOrElse(-1)

  def span[A](name: String, query: Int = -1)(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = current
    val t0 = System.nanoTime()
    open = id :: open
    try f
    finally {
      open = open.tail
      spans += Span(id, name, parent, query, t0, System.nanoTime())
    }
  }

  def record(name: String, parent: Int, query: Int, startNs: Long, endNs: Long): Unit = {
    spans += Span(nextId, name, parent, query, startNs, endNs)
    nextId += 1
  }

  def ms(name: String): Double = spans.filter(_.name == name).map(_.ns).sum / 1e6

  /** Span duration minus the part of it that its child spans cover. */
  def selfNs(s: Span): Long = {
    val kids = spans.filter(_.parent == s.id)
      .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var covered = 0L
    var end = Long.MinValue
    kids.foreach { case (a, b) =>
      if (a >= end) { covered += b - a; end = b }
      else if (b > end) { covered += b - end; end = b }
    }
    s.ns - covered
  }

  /** Summed total and self milliseconds per span name, in first-seen order. */
  def byName: Seq[(String, Int, Double, Double)] =
    spans.sortBy(_.id).map(_.name).distinct.map { n =>
      val ss = spans.filter(_.name == n)
      (n, ss.length, ss.map(_.ns).sum / 1e6, ss.map(selfNs).sum / 1e6)
    }.toSeq

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.sortBy(_.id).foreach { s =>
      out.println(s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "query": ${s.query}, """ +
        s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "self_ns": ${selfNs(s)}}""")
    } finally out.close()
  }
}

/** Spark job and task counters, collected by a listener that the benchmark
  * registers around the calls it measures and removes afterwards.
  */
final class SparkCounters extends SparkListener {

  final class Job(val id: Int, val group: String, val submitMs: Long, val stages: Seq[Int]) {
    @volatile var endMs: Long = -1L
  }

  final case class Task(stageId: Int, runMs: Long, durationMs: Long, resultBytes: Long, shuffleWriteBytes: Long)

  private val jobMap = new ConcurrentHashMap[Int, Job]
  private val taskQ = new ConcurrentLinkedQueue[Task]
  private val tasksStarted = new AtomicLong
  private val tasksEnded = new AtomicLong
  private val jobsEnded = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    jobMap.put(e.jobId, new Job(e.jobId, group, e.time, e.stageIds))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    Option(jobMap.get(e.jobId)).foreach(_.endMs = e.time)
    jobsEnded.incrementAndGet()
  }

  override def onTaskStart(e: SparkListenerTaskStart): Unit = tasksStarted.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    taskQ.add(
      if (m == null) Task(e.stageId, 0L, e.taskInfo.duration, 0L, 0L)
      else Task(e.stageId, m.executorRunTime, e.taskInfo.duration, m.resultSize,
        m.shuffleWriteMetrics.bytesWritten))
    tasksEnded.incrementAndGet()
  }

  def jobs: Seq[Job] = jobMap.values.asScala.toSeq.sortBy(_.id)
  def tasks: Seq[Task] = taskQ.asScala.toSeq

  /** Tasks of the stages of the given jobs. */
  def tasksOf(js: Seq[Job]): Seq[Task] = {
    val stages = js.flatMap(_.stages).toSet
    tasks.filter(t => stages(t.stageId))
  }

  /** Wait until the asynchronous listener bus has delivered every event of
    * the jobs started so far.
    */
  def drain(timeoutMs: Long = 10000L): Unit = {
    val end = System.currentTimeMillis() + timeoutMs
    while ((jobsEnded.get < jobMap.size || tasksEnded.get < tasksStarted.get) &&
      System.currentTimeMillis() < end) Thread.sleep(5)
  }
}

object SparkCounters {

  /** Run `f` with a fresh listener registered; returns it drained. */
  def around[A](sc: SparkContext)(f: => A): (A, SparkCounters) = {
    val c = new SparkCounters
    sc.addSparkListener(c)
    try {
      val a = f
      c.drain()
      (a, c)
    } finally sc.removeSparkListener(c)
  }
}
