package repro.jobs

import scala.collection.immutable.ListMap

import org.apache.spark.sql.SparkSession

import repro.bench.Tables

/** spark-submit entrypoint for the reproduced evaluation tables:
  *
  * {{{
  * spark-submit --class repro.jobs.Table target/scala-2.13/repro_2.13-*.jar IV
  * }}}
  *
  * The argument names the table (III … IX); the job prints it in the paper's
  * layout to stdout (see EXPERIMENTS.md for the paper-vs-measured record).
  */
object Table {
  val tables: ListMap[String, SparkSession => Unit] = ListMap(
    "III" -> (s => Tables.tableIII(s)),
    "IV" -> (s => Tables.tableIV(s)),
    "V" -> (s => Tables.tableV(s)),
    "VI" -> (s => Tables.tableVI(s)),
    "VII" -> (s => Tables.tableVII(s)),
    "VIII" -> (s => Tables.tableVIII(s)),
    "IX" -> (s => Tables.tableIX(s)),
  )

  /** The runner of table `name`; rejects an unknown name with the valid ones. */
  def runner(name: String): SparkSession => Unit =
    tables.getOrElse(name, throw new IllegalArgumentException(
      s"unknown table '$name'; valid names: ${tables.keys.mkString(", ")}"))

  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    val run = runner(name)
    run(session(s"table$name"))
  }
}
