package repro.core.sf

import repro.core.ir.Canon
import repro.core.ir.Ir.Plan

/** The schema filter (SF, §2.2.1): subexpressions that touch different
  * table multisets or return a different number of columns cannot be
  * equivalent. Groups a workload into SF-groups in O(n); only intra-group
  * pairs survive.
  */
object SchemaFilter {

  /** (sorted table multiset, output arity). */
  type Key = (Seq[String], Int)

  def key(p: Plan): Key = (Canon.flatten(p).tableMultiset, p.output.size)

  def admits(p: Plan, q: Plan): Boolean = key(p) == key(q)

  /** SF-groups as index lists into `workload`, insertion-ordered. */
  def groups(workload: IndexedSeq[Plan]): Vector[Vector[Int]] =
    workload.indices
      .groupBy(i => key(workload(i)))
      .values.map(_.toVector)
      .toVector
      .sortBy(_.head)

  /** Every pair of a group's members, row-major; (i, j) has i < j when the
    * group is ascending, as `groups` returns them.
    */
  def groupPairs(g: Vector[Int]): Vector[(Int, Int)] =
    for { a <- g.indices.toVector; b <- (a + 1) until g.size } yield (g(a), g(b))

  /** All intra-group unordered pairs (i < j). */
  def candidatePairs(workload: IndexedSeq[Plan]): Vector[(Int, Int)] =
    groups(workload).flatMap(groupPairs)
}
