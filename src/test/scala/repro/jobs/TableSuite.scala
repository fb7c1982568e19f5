package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The spark-submit entrypoint's table-name dispatch (no Spark needed). */
class TableSuite extends AnyFunSuite {

  test("every reproduced table III–IX has a runner") {
    assert(Table.tables.keys.toSeq == Seq("III", "IV", "V", "VI", "VII", "VIII", "IX"))
    Table.tables.keys.foreach(n => assert(Table.runner(n) eq Table.tables(n)))
  }

  test("an unknown table name is rejected with the list of valid names") {
    val e = intercept[IllegalArgumentException](Table.runner("X"))
    assert(e.getMessage.contains("'X'"))
    assert(e.getMessage.contains("III, IV, V, VI, VII, VIII, IX"))
  }
}
