//! Query planning over a structural path-summary index.
//!
//! The rUID labeling makes single ancestor/descendant tests O(1), but the
//! service's slowest queries were never bound by one test — they were
//! bound by *how many* tests a step-by-step evaluation performs (every
//! candidate against every context node). This crate attacks that tail
//! with three pieces:
//!
//! * [`PathSummary`] — a DataGuide over the document's distinct element
//!   paths, built at load/recovery time. Structural XPath prefixes run
//!   over summary nodes instead of document nodes, per-path member
//!   counts double as exact selectivity estimates, and per-path value
//!   postings turn `[@id = '…']`-shaped predicates into binary searches.
//! * [`plan`] / [`execute`] — compile the longest structural prefix of a
//!   parsed path into Scan / ChildJoin / ContainmentJoin operators (each
//!   predicate answered by a value-probe where its shape allows, the
//!   others reordered cheapest-first), run them, and hand any
//!   unplannable remainder to the ordinary [`Evaluator`]. Results are
//!   byte-identical to unplanned evaluation by construction.
//! * [`ResultCache`] — a generation-keyed response cache; the service
//!   keys generations off WAL sequence numbers so any logged update
//!   invalidates exactly the affected document's entries.
//!
//! [`render_explain`] turns a plan plus its execution stats into the
//! human-readable `EXPLAIN` listing the service serves over the wire.

#![forbid(unsafe_code)]

mod cache;
mod exec;
mod planner;
mod summary;

pub use cache::{CacheStats, ResultCache};
pub use exec::{execute, ExecStats};
pub use planner::{plan, OpKind, Plan, PlanAxis, PlanOp};
pub use summary::{PathSummary, SummaryId, SummaryNode};

use xmldom::{DocOrder, Document, NodeId};
use xpath::{AxisProvider, Evaluator};

/// Parses, plans, and executes one query. The error type matches
/// [`Evaluator::query`] so the service can treat planned and unplanned
/// evaluation uniformly.
pub fn planned_query<A: AxisProvider>(
    xpath: &str,
    doc: &Document,
    summary: &PathSummary,
    order: &DocOrder,
    ev: &Evaluator<'_, A>,
) -> Result<(Vec<NodeId>, Plan, ExecStats), String> {
    let path = xpath::parse(xpath).map_err(|e| e.to_string())?;
    let compiled = plan(&path, summary, doc);
    let (nodes, stats) =
        execute(&compiled, doc, summary, order, ev).map_err(|e| e.to_string())?;
    Ok((nodes, compiled, stats))
}

/// How many summary paths to list per operator in EXPLAIN output before
/// eliding the rest.
const EXPLAIN_MAX_PATHS: usize = 3;

/// Renders a plan and its execution stats as EXPLAIN lines.
///
/// The caller (the service's `EXPLAIN` verb) prepends its own cache-status
/// line, since cache state lives outside the plan.
pub fn render_explain(
    xpath: &str,
    plan: &Plan,
    stats: &ExecStats,
    summary: &PathSummary,
    doc: &Document,
    result_len: usize,
) -> Vec<String> {
    let mut lines = Vec::new();
    let shape = if plan.fully_planned() {
        "fully planned".to_string()
    } else if plan.ops.is_empty() {
        "unplanned (fallback only)".to_string()
    } else {
        format!(
            "prefix planned ({} steps), {} fallback step(s)",
            plan.consumed_steps,
            plan.tail.len()
        )
    };
    lines.push(format!("plan {xpath} -- {shape}"));
    for (i, op) in plan.ops.iter().enumerate() {
        let actual = stats
            .op_actuals
            .get(i)
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into());
        lines.push(format!(
            "{}. {} {}::{} states={} est={} actual={}",
            i + 1,
            op.kind.name(),
            op.axis.name(),
            op.test,
            op.states.len(),
            op.est,
            actual,
        ));
        if !op.states.is_empty() {
            // By path, not by sid: sid order is an accident of how the
            // summary was built and patched, and two summaries that answer
            // alike must explain alike.
            let mut paths: Vec<String> =
                op.states.iter().map(|&s| summary.path_string(doc, s)).collect();
            paths.sort_unstable();
            paths.truncate(EXPLAIN_MAX_PATHS);
            if op.states.len() > EXPLAIN_MAX_PATHS {
                paths.push(format!("... {} more", op.states.len() - EXPLAIN_MAX_PATHS));
            }
            lines.push(format!("   paths: {}", paths.join(", ")));
        }
        let rendered: Vec<String> = op
            .pred_order
            .iter()
            .zip(&op.pred_sels)
            .map(|(&orig, sel)| format!("#{} sel={:.3}", orig + 1, sel))
            .collect();
        for (k, probe) in op.probes.iter().enumerate() {
            let actual = stats
                .probe_actuals
                .get(i)
                .and_then(|found| found.get(k))
                .map(|a| a.to_string())
                .unwrap_or_else(|| "-".into());
            lines.push(format!(
                "   value-probe #{}: {} est={} actual={}",
                probe.pred_index + 1,
                probe.rendered,
                probe.est,
                actual,
            ));
        }
        if !op.probes.is_empty() {
            lines.push(if rendered.is_empty() {
                "   residual predicates: none".to_string()
            } else {
                format!(
                    "   residual predicates ({} of {}, selectivity order): {}",
                    rendered.len(),
                    rendered.len() + op.probes.len(),
                    rendered.join(", "),
                )
            });
        } else if !rendered.is_empty() {
            lines.push(format!(
                "   predicates ({} of {}, selectivity order): {}",
                rendered.len(),
                rendered.len(),
                rendered.join(", "),
            ));
        }
    }
    if !plan.tail.is_empty() {
        let actual = stats
            .tail_actual
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into());
        lines.push(format!(
            "tail: {} step(s) via evaluator actual={}",
            plan.tail.len(),
            actual,
        ));
    }
    lines.push(format!("est_rows={} rows={}", plan.est_rows, result_len));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath::{Evaluator, TreeAxes};

    fn sample() -> Document {
        Document::parse(
            "<site><regions>\
               <africa><item><name>a1</name><payment/></item>\
                       <item><name>a2</name></item></africa>\
               <asia><item><name>s1</name><payment/></item></asia>\
             </regions>\
             <people><person><name>p</name><watch/></person>\
                     <person><name>q</name></person></people></site>",
        )
        .unwrap()
    }

    fn run_planned(doc: &Document, xpath: &str) -> (Vec<xmldom::NodeId>, Plan, ExecStats) {
        let summary = PathSummary::build(doc);
        let order = DocOrder::build(doc);
        let ev = Evaluator::new(doc, TreeAxes::with_order(doc, &order));
        planned_query(xpath, doc, &summary, &order, &ev).unwrap()
    }

    #[test]
    fn fully_structural_queries_are_all_scans() {
        let doc = sample();
        let (nodes, plan, stats) = run_planned(&doc, "//item/name");
        assert!(plan.fully_planned());
        assert!(plan.ops.iter().all(|op| op.kind == OpKind::Scan));
        assert_eq!(nodes.len(), 3);
        assert_eq!(stats.scans, 2);
        assert_eq!(stats.child_joins + stats.containment_joins, 0);
    }

    #[test]
    fn post_predicate_descendant_uses_containment_join() {
        let doc = sample();
        let (nodes, plan, stats) = run_planned(&doc, "//item[payment]//name");
        assert!(plan.fully_planned());
        assert_eq!(stats.containment_joins, 1);
        assert_eq!(nodes.len(), 2, "only items with a payment have their names kept");
    }

    #[test]
    fn post_predicate_child_uses_child_join() {
        let doc = sample();
        let (_, _, stats) = run_planned(&doc, "//person[watch]/name");
        assert_eq!(stats.child_joins, 1);
    }

    #[test]
    fn predicates_reorder_by_selectivity() {
        let doc = sample();
        // `name` exists on every item (sel 1.0); `payment` on 2 of 3
        // (sel ~0.67): written order [name][payment] must execute
        // [payment] first.
        let (nodes, plan, _) = run_planned(&doc, "//item[name][payment]");
        let op = plan.ops.last().unwrap();
        assert_eq!(op.pred_order, vec![1, 0], "rarer predicate runs first");
        assert!(op.pred_sels[0] < op.pred_sels[1]);
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn impossible_predicate_gets_zero_selectivity() {
        let doc = sample();
        let (nodes, plan, _) = run_planned(&doc, "//item[nosuch][name]");
        let op = plan.ops.last().unwrap();
        assert_eq!(op.pred_order, vec![0, 1]);
        assert_eq!(op.pred_sels[0], 0.0);
        assert_eq!(op.est, 0);
        assert!(nodes.is_empty());
    }

    #[test]
    fn unplannable_suffix_falls_back_to_the_evaluator() {
        let doc = sample();
        let (nodes, plan, stats) = run_planned(&doc, "//item/name/text()");
        assert!(!plan.fully_planned());
        assert_eq!(plan.tail.len(), 1);
        assert_eq!(stats.fallback_steps, 1);
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn positional_predicate_is_never_planned() {
        let doc = sample();
        let (_, plan, _) = run_planned(&doc, "//person[1]/name");
        assert!(plan.ops.iter().all(|op| op.predicates.is_empty()));
        assert!(!plan.tail.is_empty() || plan.ops.len() < 2);
    }

    #[test]
    fn planned_matches_evaluator_on_a_query_corpus() {
        let doc = sample();
        let summary = PathSummary::build(&doc);
        let order = DocOrder::build(&doc);
        let ev = Evaluator::new(&doc, TreeAxes::with_order(&doc, &order));
        for q in [
            "/site",
            "/site/regions/africa/item",
            "//item",
            "//item/name",
            "//item//name",
            "//*",
            "/site//name",
            "//item[payment]",
            "//item[payment]/name",
            "//item[payment]//name",
            "//person[watch]/name",
            "//item[name][payment]",
            "//item[nosuch]",
            "//person[1]",
            "//person[last()]/name",
            "//name/text()",
            "//item[name='a1']",
            "//regions/*/item",
            "//item[not(payment)]",
            "//item[payment or nosuch]",
            "/site/people/person[count(watch) >= 1]",
        ] {
            let oracle = ev.query(q).unwrap();
            let (planned, _, _) =
                planned_query(q, &doc, &summary, &order, &ev).unwrap();
            assert_eq!(planned, oracle, "mismatch for {q}");
        }
    }

    #[test]
    fn explain_renders_every_operator() {
        let doc = sample();
        let (nodes, plan, stats) = run_planned(&doc, "//item[payment]//name/text()");
        let summary = PathSummary::build(&doc);
        let lines = render_explain(
            "//item[payment]//name/text()",
            &plan,
            &stats,
            &summary,
            &doc,
            nodes.len(),
        );
        let text = lines.join("\n");
        assert!(text.contains("scan"), "{text}");
        assert!(text.contains("containment-join"), "{text}");
        assert!(text.contains("tail: 1 step(s)"), "{text}");
        assert!(text.contains("est="), "{text}");
        assert!(text.contains("actual="), "{text}");
        assert!(text.contains("/site/regions/africa/item"), "{text}");
    }

    fn valued() -> Document {
        Document::parse(
            "<site><regions>\
               <africa>\
                 <item id=\"i1\"><location>asia</location><quantity>2</quantity></item>\
                 <item id=\"i2\"><location>europe</location><quantity>2.0</quantity></item>\
               </africa><asia>\
                 <item id=\"i3\"><location>asia</location><quantity>5</quantity></item>\
                 <item id=\"i4\"><location>europe</location><quantity>7</quantity></item>\
               </asia>\
             </regions></site>",
        )
        .unwrap()
    }

    #[test]
    fn probe_able_predicates_become_value_probes() {
        let doc = valued();
        let (nodes, plan, stats) = run_planned(&doc, "//item[@id='i3']");
        let op = plan.ops.last().unwrap();
        assert_eq!(op.probes.len(), 1);
        assert!(op.predicates.is_empty(), "nothing is left to filter");
        assert_eq!((op.probes[0].est, op.est, nodes.len()), (1, 1, 1), "the estimate is the count");
        assert_eq!(stats.value_probes, 1);
        assert_eq!(stats.predicate_filters, 0);
        assert_eq!(stats.probe_actuals.last().unwrap(), &[1]);
        // `//item` spans two summary paths; the probe searches both.
        assert_eq!(op.probes[0].sources.len(), 2);
    }

    #[test]
    fn two_probes_intersect_and_other_shapes_stay_filters() {
        let doc = valued();
        let (nodes, plan, stats) =
            run_planned(&doc, "//item[quantity = 2][location = 'asia'][@id != 'x']");
        let op = plan.ops.last().unwrap();
        let probed: Vec<usize> = op.probes.iter().map(|p| p.pred_index).collect();
        assert_eq!(probed, vec![0, 1], "equal counts keep the written order");
        assert_eq!(op.pred_order, vec![2], "`!=` is never probed");
        assert_eq!(nodes.len(), 1, "i1 only: i2 is in europe, i3 and i4 hold other quantities");
        assert_eq!(stats.value_probes, 2);
        assert_eq!(stats.predicate_filters, 1);
        // Fewest postings first, whatever the written order; an empty
        // intersection stops the rest from running.
        let (nodes, plan, stats) = run_planned(&doc, "//item[quantity > 0][@id='i1']");
        let op = plan.ops.last().unwrap();
        let probed: Vec<&str> = op.probes.iter().map(|p| p.rendered.as_str()).collect();
        assert_eq!(probed, vec!["@id = 'i1'", "quantity > 0"]);
        assert_eq!((nodes.len(), stats.value_probes), (1, 2));
        let (nodes, _, stats) = run_planned(&doc, "//item[quantity > 0][@id='none']");
        assert_eq!((nodes.len(), stats.value_probes), (0, 1));
    }

    #[test]
    fn explain_names_the_probe_and_the_residual() {
        let doc = valued();
        let q = "//item[contains(location, 'a')][quantity >= 2.0]/location";
        let (nodes, plan, stats) = run_planned(&doc, q);
        let summary = PathSummary::build(&doc);
        let text = render_explain(q, &plan, &stats, &summary, &doc, nodes.len()).join("\n");
        assert!(text.contains("value-probe #2: quantity >= 2 est=4 actual=4"), "{text}");
        assert!(
            text.contains("residual predicates (1 of 2, selectivity order): #1 sel=0.500"),
            "{text}"
        );
        assert!(text.contains("child-join child::location"), "{text}");
        let (nodes, plan, stats) = run_planned(&doc, "//item[@id='i2']");
        let text =
            render_explain("//item[@id='i2']", &plan, &stats, &summary, &doc, nodes.len())
                .join("\n");
        assert!(text.contains("value-probe #1: @id = 'i2' est=1 actual=1"), "{text}");
        assert!(text.contains("residual predicates: none"), "{text}");
    }
}
