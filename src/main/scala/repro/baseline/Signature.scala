package repro.baseline

import repro.core.ir.Ir._
import repro.core.ir.{Canon, Sql}

/** Signature-based equivalence detection (the CloudViews / Jindal et al.
  * [32] baseline of §7.5): a canonical serialization of the
  * subexpression's syntactic form, compared whole. Aliases are normalized
  * by first appearance, atoms and syntactic conjuncts are sorted — the
  * usual engine-side normalization — but predicate *syntax* is serialized
  * as written, so only syntactically identical computations (modulo
  * ordering) match. Semantic equivalences with different spellings are
  * missed by design.
  */
object Signature {

  /** Canonical string serialization; equal signatures ⟺ equal strings. */
  def of(p: Plan): String = {
    // Alias normalization: rename atoms s0.. in (table, original alias) order
    // so alias choice never distinguishes identical queries.
    val atoms = p.atoms.sortBy(a => (a.table, a.alias))
    val sub = atoms.zipWithIndex.map { case (a, i) => a.alias -> s"s$i" }.toMap
    def ref(r: ColRef): String = s"${sub.getOrElse(r.table, r.table)}.${r.column}"
    def scalar(s: Scalar): String = s match {
      case Col(r)    => ref(r)
      case Lit(v)    => if (v == v.floor) v.toLong.toString else v.toString
      case Add(a, b) => s"(${scalar(a)}+${scalar(b)})"
      case Sub(a, b) => s"(${scalar(a)}-${scalar(b)})"
    }
    def pred(pr: Pred): String = s"${scalar(pr.left)}${pr.op.sql}${scalar(pr.right)}"

    val tables = atoms.map(a => s"${a.table}→${sub(a.alias)}").mkString(",")
    val preds  = Sql.collectPreds(p).map(pred).sorted.mkString("&")
    val proj   = Canon.flatten(p).proj.map(ref).mkString(",")
    s"T[$tables]|P[$preds]|π[$proj]"
  }

  def equivalent(p: Plan, q: Plan): Boolean = of(p) == of(q)
}
