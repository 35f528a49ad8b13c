//! Plan execution: run the physical operators, then hand any fallback
//! tail to the step-by-step evaluator.
//!
//! Exactness is exploited lazily: consecutive Scan operators never touch
//! a document node — the node-set stays "the member union of these
//! summary states" until a predicate, a join, the tail, or the end of the
//! plan forces materialization. A fully-structural query like `//a//b`
//! therefore costs two summary transitions plus one member merge, no
//! matter how many million nodes the document has.
//!
//! An operator with value-probes never lists its states' members at all:
//! its candidates are the probes' hits, so `//item[@id='item7']` costs one
//! binary search per `item` path however many items there are.

use std::borrow::Cow;

use xmldom::{DocOrder, Document, NodeId};
use xpath::{AxisProvider, EvalError, Evaluator};

use crate::planner::{OpKind, Plan, ValueProbe};
use crate::summary::{PathSummary, SummaryId};

/// What executing a plan actually did — per-operator output sizes for
/// EXPLAIN's estimated-vs-actual columns, and operator counts for the
/// service metrics.
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    /// Actual output cardinality of each operator, parallel to
    /// [`Plan::ops`].
    pub op_actuals: Vec<usize>,
    /// Rows each value-probe found on its own, parallel to
    /// [`PlanOp::probes`](crate::PlanOp::probes) within [`Plan::ops`];
    /// shorter than that list where an earlier probe came back empty.
    pub(crate) probe_actuals: Vec<Vec<usize>>,
    /// Output cardinality of the fallback tail, when one ran.
    pub tail_actual: Option<usize>,
    /// Scan operators executed.
    pub scans: u64,
    /// Parent-in-context joins executed.
    pub child_joins: u64,
    /// Containment-interval joins executed.
    pub containment_joins: u64,
    /// Value-probes executed.
    pub value_probes: u64,
    /// AST steps delegated to the step-by-step evaluator (fallback walks).
    pub fallback_steps: u64,
    /// Predicate filter passes applied by plan operators.
    pub predicate_filters: u64,
}

/// The members of the probe's target states that satisfy its predicate,
/// in document order: each posting hit lifted to the member it sits
/// `levels` below, plus the unindexed members' owners the evaluator
/// passes, merged by rank.
fn run_probe<A: AxisProvider>(
    probe: &ValueProbe,
    doc: &Document,
    summary: &PathSummary,
    order: &DocOrder,
    ev: &Evaluator<'_, A>,
) -> Result<Vec<NodeId>, EvalError> {
    let owner = |hit: NodeId| {
        (0..probe.levels).fold(hit, |n, _| doc.parent(n).expect("a posted node is attached"))
    };
    let by_rank = |nodes: &mut Vec<NodeId>| {
        nodes.sort_unstable_by_key(|&n| order.rank(n));
        nodes.dedup();
    };
    let mut owners = Vec::new();
    let mut unindexed = Vec::new();
    for (source, run) in &probe.sources {
        let hits = summary.posted(*source, probe.key, &probe.needle, run.clone());
        owners.extend(hits.iter().map(|&n| owner(n)));
        unindexed.extend(summary.unindexed(*source, probe.key).iter().map(|&n| owner(n)));
    }
    if !unindexed.is_empty() {
        by_rank(&mut unindexed);
        owners.extend(ev.filter_predicates(unindexed, std::slice::from_ref(&probe.predicate))?);
    }
    by_rank(&mut owners);
    Ok(owners)
}

/// The members of `states` that are children of a context node, in
/// document order — the child step driven from the (filtered, hence
/// smaller) context side: its cost is the context's children, not the
/// target paths' cardinality.
fn children_on_paths(
    doc: &Document,
    summary: &PathSummary,
    order: &DocOrder,
    context: &[NodeId],
    states: &[SummaryId],
) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = context
        .iter()
        .flat_map(|&c| doc.children(c))
        .filter(|&n| summary.sid(n).is_some_and(|sid| states.binary_search(&sid).is_ok()))
        .collect();
    // Context nodes can nest (one tag at several depths), which
    // interleaves their children.
    out.sort_unstable_by_key(|&n| order.rank(n));
    out
}

/// The running node-set: either still exact (implicitly the member union
/// of the last operator's states) or materialized.
enum NodeSet {
    Lazy,
    Nodes(Vec<NodeId>),
}

/// Executes `plan` against one document.
///
/// `ev` supplies predicate evaluation and the fallback tail; any
/// [`AxisProvider`] works because all providers answer identically — the
/// choice only affects speed. Results are in document order without
/// duplicates, byte-identical to an unplanned evaluation of the same
/// path.
pub fn execute<A: AxisProvider>(
    plan: &Plan,
    doc: &Document,
    summary: &PathSummary,
    order: &DocOrder,
    ev: &Evaluator<'_, A>,
) -> Result<(Vec<NodeId>, ExecStats), EvalError> {
    let mut stats = ExecStats::default();
    let mut set = NodeSet::Lazy;
    let initial_states: Vec<SummaryId> = summary.root_sid().into_iter().collect();
    let mut last_states: &[SummaryId] = &initial_states;
    let mut empty = false;
    for op in &plan.ops {
        if empty {
            stats.op_actuals.push(0);
            stats.probe_actuals.push(Vec::new());
            continue;
        }
        let mut probed = Vec::with_capacity(op.probes.len());
        // The intersection of the probes' answers, when there are any.
        let mut hits: Option<Vec<NodeId>> = None;
        for probe in &op.probes {
            stats.value_probes += 1;
            let found = run_probe(probe, doc, summary, order, ev)?;
            probed.push(found.len());
            hits = Some(match hits {
                None => found,
                Some(mut hits) => {
                    hits.retain(|&n| {
                        found.binary_search_by_key(&order.rank(n), |&m| order.rank(m)).is_ok()
                    });
                    hits
                }
            });
            if hits.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        stats.probe_actuals.push(probed);
        let context = || match &set {
            NodeSet::Lazy => Cow::Owned(summary.merged_members(last_states, order)),
            NodeSet::Nodes(nodes) => Cow::Borrowed(nodes.as_slice()),
        };
        let mut produced = match (op.kind, hits) {
            (OpKind::Scan, hits) => {
                stats.scans += 1;
                if hits.is_none() && op.predicates.is_empty() {
                    // Stay lazy: cardinality is known without touching
                    // the tree.
                    let actual = summary.cardinality(&op.states);
                    stats.op_actuals.push(actual);
                    last_states = &op.states;
                    set = NodeSet::Lazy;
                    empty = actual == 0;
                    continue;
                }
                hits.unwrap_or_else(|| summary.merged_members(&op.states, order))
            }
            (OpKind::ChildJoin, hits) => {
                stats.child_joins += 1;
                match hits {
                    Some(hits) => xpath::parent_join(doc, order, &context(), &hits),
                    None => children_on_paths(doc, summary, order, &context(), &op.states),
                }
            }
            (OpKind::ContainmentJoin, hits) => {
                stats.containment_joins += 1;
                let candidates =
                    hits.unwrap_or_else(|| summary.merged_members(&op.states, order));
                xpath::containment_join(order, &context(), &candidates)
            }
        };
        if !op.predicates.is_empty() {
            stats.predicate_filters += op.predicates.len() as u64;
            produced = ev.filter_predicates(produced, &op.predicates)?;
        }
        stats.op_actuals.push(produced.len());
        empty = produced.is_empty();
        last_states = &op.states;
        set = NodeSet::Nodes(produced);
    }
    let mut result = if empty {
        Vec::new()
    } else {
        match set {
            NodeSet::Lazy => summary.merged_members(last_states, order),
            NodeSet::Nodes(nodes) => nodes,
        }
    };
    if !plan.tail.is_empty() {
        stats.fallback_steps += plan.tail.len() as u64;
        result = if result.is_empty() && plan.consumed_steps > 0 {
            // An empty intermediate set stays empty; skip the evaluator.
            Vec::new()
        } else {
            ev.evaluate_steps(&plan.tail, result)?
        };
        stats.tail_actual = Some(result.len());
    }
    Ok((result, stats))
}
