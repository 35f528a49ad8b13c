//! Plan construction: rewrite a parsed location path into a physical plan
//! over the path summary.
//!
//! The planner consumes the longest *structural* prefix of the path —
//! child/descendant steps with name or wildcard tests (including the `//`
//! surface form `descendant-or-self::node()/child::test`), all predicates
//! position-insensitive — and compiles each step into one of three
//! physical operators:
//!
//! * **Scan** — while the running node-set is still *exact* (the full
//!   member set of the current summary states), a step is answered by a
//!   pure summary transition; no document nodes are touched until a
//!   predicate or the end of the plan forces materialization.
//! * **ChildJoin** — after a predicate has filtered the set, a child step
//!   takes the target states' members and keeps those whose parent is in
//!   the context (one rank binary-search per candidate).
//! * **ContainmentJoin** — a descendant step likewise, by sweeping the
//!   candidates through the context's subtree rank intervals
//!   (`xpath::containment_join`) — the paper's O(1) containment test,
//!   amortized into a sorted merge.
//!
//! A predicate of the shape `operand op literal` — `operand` being `@a`
//! or a predicate-free `child::name(/child::name)*` path optionally ending
//! in `/@a`, `op` any of `= < <= > >=`, `literal` a string or a number —
//! is a **value-probe**: a binary search of the summary's value postings
//! below the step's target states, each hit lifted to the member it
//! qualifies. A step's probes run fewest postings first and their
//! intersection replaces "all members" as the step's candidates; every
//! other predicate (`!=`, `or`/`not`, `contains`, path-vs-path, ...)
//! filters the survivors.
//!
//! Predicates on a planned step are reordered cheapest-selectivity-first
//! using path-summary cardinalities (safe: position-insensitive predicate
//! verdicts are per-node and order-independent). Everything past the
//! structural prefix — reverse axes, positional predicates, `text()`
//! tests, attribute steps — becomes a fallback tail handed verbatim to
//! the step-by-step evaluator, which keeps planned results byte-identical
//! to unplanned ones by construction.

use std::ops::Range;

use xmldom::Document;
use xpath::{
    expr_is_position_sensitive, parse_number, Axis, CmpOp, Expr, LocationPath, NodeTest, Step,
    Value,
};

use crate::summary::{Needle, PathSummary, SummaryId, ValueKey};

/// The structural axis of a planned step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAxis {
    /// `child::test`.
    Child,
    /// `descendant::test` (including the collapsed `//test` pair).
    Descendant,
}

impl PlanAxis {
    /// Lowercase operator name for EXPLAIN output.
    pub fn name(self) -> &'static str {
        match self {
            PlanAxis::Child => "child",
            PlanAxis::Descendant => "descendant",
        }
    }
}

/// How a planned step produces its node-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Summary transition on an exact node-set; members *are* the answer.
    Scan,
    /// Candidates from the target states, parent-in-context join.
    ChildJoin,
    /// Candidates from the target states, containment-interval join.
    ContainmentJoin,
}

impl OpKind {
    /// Lowercase operator name for EXPLAIN output and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Scan => "scan",
            OpKind::ChildJoin => "child-join",
            OpKind::ContainmentJoin => "containment-join",
        }
    }
}

/// A predicate answered from the value postings rather than member by
/// member. Opaque outside the crate: EXPLAIN renders it and
/// [`ExecStats::value_probes`](crate::ExecStats::value_probes) counts it.
#[derive(Debug)]
pub struct ValueProbe {
    /// Index of the predicate as written in the query.
    pub(crate) pred_index: usize,
    /// The predicate itself: what unindexed members are filtered by.
    pub(crate) predicate: Expr,
    /// The comparison as EXPLAIN shows it, e.g. `bidder/increase > 7.5`.
    pub(crate) rendered: String,
    /// Which posting list of each source is searched.
    pub(crate) key: ValueKey,
    /// What the posted values are compared with.
    pub(crate) needle: Needle,
    /// The summary nodes holding the operand's values — the one reached by
    /// the operand's path below each target state that has it — each with
    /// the run of its posting list the needle matched, searched once here
    /// and read back by the executor.
    pub(crate) sources: Vec<(SummaryId, Range<usize>)>,
    /// How many levels a posted node sits below the member it qualifies.
    pub(crate) levels: usize,
    /// Postings in range plus unindexed members — the rows the probe can
    /// produce, exact unless one member owns several of them.
    pub(crate) est: usize,
}

/// One physical operator of a plan.
#[derive(Debug)]
pub struct PlanOp {
    /// Structural axis the operator answers.
    pub axis: PlanAxis,
    /// Physical strategy.
    pub kind: OpKind,
    /// Rendered node test (for EXPLAIN).
    pub test: String,
    /// Target summary states after this step.
    pub states: Vec<SummaryId>,
    /// Estimated output cardinality (after predicates).
    pub est: usize,
    /// The predicates answered by value-probes, fewest postings first;
    /// their intersection supplies the step's candidates in place of the
    /// states' members.
    pub probes: Vec<ValueProbe>,
    /// The other predicates in execution order (selectivity-ascending),
    /// filtered node at a time.
    pub predicates: Vec<Expr>,
    /// Original index of each entry of `predicates` as written in the
    /// query — `[1, 0]` means the second written predicate runs first.
    pub pred_order: Vec<usize>,
    /// Estimated selectivity of each entry of `predicates` (same order).
    pub pred_sels: Vec<f64>,
}

/// A compiled physical plan.
#[derive(Debug)]
pub struct Plan {
    /// The physical operators for the structural prefix, in order.
    pub ops: Vec<PlanOp>,
    /// Unplanned trailing steps, run through the evaluator from the
    /// prefix's node-set. Empty when the whole path was planned.
    pub tail: Vec<Step>,
    /// Number of AST steps the operators consumed (a collapsed `//` pair
    /// counts as two).
    pub consumed_steps: usize,
    /// Estimated cardinality of the plan's final node-set (before the
    /// fallback tail, whose output the planner cannot estimate).
    pub est_rows: usize,
}

impl Plan {
    /// Whether every step of the path was compiled to a physical operator.
    pub fn fully_planned(&self) -> bool {
        self.tail.is_empty()
    }
}

/// The structural reading of one or two AST steps, when plannable.
struct Structural<'a> {
    axis: PlanAxis,
    test: &'a NodeTest,
    predicates: &'a [Expr],
    consumed: usize,
}

/// Reads the next plannable structural step at `i`, collapsing the `//`
/// pair (`descendant-or-self::node()` with no predicates + a child step)
/// into a single descendant step — the same rewrite the evaluator's
/// peephole applies, valid because the pair and the collapsed form select
/// identical node-sets for position-insensitive predicates.
fn structural_step(steps: &[Step], i: usize) -> Option<Structural<'_>> {
    let step = &steps[i];
    if step.axis == Axis::DescendantOrSelf
        && step.test == NodeTest::AnyNode
        && step.predicates.is_empty()
    {
        let next = steps.get(i + 1)?;
        if next.axis == Axis::Child
            && matches!(next.test, NodeTest::Name(_) | NodeTest::Wildcard)
            && !next.predicates.iter().any(expr_is_position_sensitive)
        {
            return Some(Structural {
                axis: PlanAxis::Descendant,
                test: &next.test,
                predicates: &next.predicates,
                consumed: 2,
            });
        }
        return None;
    }
    let axis = match step.axis {
        Axis::Child => PlanAxis::Child,
        Axis::Descendant => PlanAxis::Descendant,
        _ => return None,
    };
    if !matches!(step.test, NodeTest::Name(_) | NodeTest::Wildcard) {
        return None;
    }
    if step.predicates.iter().any(expr_is_position_sensitive) {
        return None;
    }
    Some(Structural { axis, test: &step.test, predicates: &step.predicates, consumed: 1 })
}

/// The operand of a probe-able comparison: the child names leading to
/// the node that carries the value, and the attribute read there (`None`
/// for its string-value).
fn probe_operand(value: &Value) -> Option<(Vec<&str>, Option<&str>)> {
    let path = match value {
        Value::Attribute(name) => return Some((Vec::new(), Some(name))),
        Value::Path(path) if !path.absolute => path,
        _ => return None,
    };
    let mut names = Vec::new();
    let mut attribute = None;
    for (i, step) in path.steps.iter().enumerate() {
        let NodeTest::Name(name) = &step.test else { return None };
        if !step.predicates.is_empty() {
            return None;
        }
        match step.axis {
            Axis::Child => names.push(name.as_str()),
            Axis::Attribute if i + 1 == path.steps.len() => attribute = Some(name.as_str()),
            _ => return None,
        }
    }
    Some((names, attribute))
}

/// Compiles the `index`-th predicate of a step into a value-probe over
/// `targets`, when it has the shape the postings answer.
fn compile_probe(
    index: usize,
    expr: &Expr,
    targets: &[SummaryId],
    summary: &PathSummary,
    doc: &Document,
) -> Option<ValueProbe> {
    let Expr::Comparison { left, op, right } = expr else { return None };
    let (needle, literal) = match (op, right) {
        (CmpOp::Ne, _) => return None,
        (CmpOp::Eq, Value::Literal(s)) => (Needle::Str(s.clone()), format!("'{s}'")),
        // Relational operators compare numbers; a literal that is not one
        // matches nothing, which is what NaN does.
        (_, Value::Literal(s)) => {
            (Needle::Num(*op, parse_number(s).unwrap_or(f64::NAN)), format!("'{s}'"))
        }
        (_, Value::Number(x)) => (Needle::Num(*op, *x), x.to_string()),
        _ => return None,
    };
    let (names, attribute) = probe_operand(left)?;
    // A name the document never interned is carried by no node; such a
    // predicate stays with the evaluator, which finds that out its own way.
    let key = match attribute {
        Some(name) => ValueKey::Attr(doc.name_id(name)?),
        None => ValueKey::Text,
    };
    let ids = names.iter().map(|name| doc.name_id(name)).collect::<Option<Vec<_>>>()?;
    let sources: Vec<(SummaryId, Range<usize>)> = targets
        .iter()
        .filter_map(|&t| ids.iter().try_fold(t, |sid, &name| summary.child_named(sid, name)))
        .map(|s| (s, summary.probe(doc, s, key, &needle)))
        .collect();
    let est = sources.iter().map(|(s, run)| run.len() + summary.unindexed(*s, key).len()).sum();
    let mut operand: Vec<String> = names.iter().map(|name| name.to_string()).collect();
    operand.extend(attribute.map(|name| format!("@{name}")));
    Some(ValueProbe {
        pred_index: index,
        predicate: expr.clone(),
        rendered: format!("{} {op} {literal}", operand.join("/")),
        key,
        needle,
        sources,
        levels: names.len(),
        est,
    })
}

/// Estimated fraction of context nodes a predicate keeps, from path-
/// summary cardinalities. Coarse by design — it only has to *order*
/// predicates, not price them — but exact zeros are real: a relative path
/// whose structural prefix reaches no summary state matches nothing.
/// (A predicate that is itself a probe-able comparison never gets here:
/// its posting count is exact.)
fn predicate_selectivity(
    expr: &Expr,
    states: &[SummaryId],
    summary: &PathSummary,
    doc: &Document,
) -> f64 {
    match expr {
        Expr::And(a, b) => {
            predicate_selectivity(a, states, summary, doc)
                * predicate_selectivity(b, states, summary, doc)
        }
        Expr::Or(a, b) => (predicate_selectivity(a, states, summary, doc)
            + predicate_selectivity(b, states, summary, doc))
        .min(1.0),
        Expr::Not(inner) => 1.0 - predicate_selectivity(inner, states, summary, doc),
        Expr::Exists(value) => value_selectivity(value, states, summary, doc),
        // Equality/range and string tests pass an unknown fraction of the
        // nodes where their path operands exist at all.
        Expr::Comparison { left, right, .. }
        | Expr::Contains(left, right)
        | Expr::StartsWith(left, right) => {
            0.5 * value_selectivity(left, states, summary, doc).max(
                value_selectivity(right, states, summary, doc),
            )
        }
    }
}

/// Existence selectivity of a predicate operand.
fn value_selectivity(
    value: &Value,
    states: &[SummaryId],
    summary: &PathSummary,
    doc: &Document,
) -> f64 {
    match value {
        Value::Path(path) | Value::Count(path) => {
            path_selectivity(path, states, summary, doc)
        }
        // No summary information about attributes or literals.
        _ => 1.0,
    }
}

/// Estimated probability that a nested path matches at least one node per
/// context node, from the ratio of summary cardinalities along the path's
/// structural prefix.
fn path_selectivity(
    path: &LocationPath,
    states: &[SummaryId],
    summary: &PathSummary,
    doc: &Document,
) -> f64 {
    let mut sim: Vec<SummaryId> = if path.absolute {
        match summary.root_sid() {
            Some(root) => vec![root],
            None => return 0.0,
        }
    } else {
        states.to_vec()
    };
    let context_card = summary.cardinality(&sim).max(1);
    let mut i = 0;
    let mut advanced = false;
    while i < path.steps.len() {
        let Some(s) = structural_step(&path.steps, i) else { break };
        sim = match s.axis {
            PlanAxis::Child => summary.child_states(doc, &sim, s.test),
            PlanAxis::Descendant => summary.descendant_states(doc, &sim, s.test),
        };
        advanced = true;
        if sim.is_empty() {
            // The structural prefix alone matches nothing: the predicate
            // can never hold, and running it first prunes everything.
            return 0.0;
        }
        i += s.consumed;
    }
    if !advanced {
        return 1.0; // nothing learnable (e.g. leading reverse axis)
    }
    (summary.cardinality(&sim) as f64 / context_card as f64).min(1.0)
}

/// A step's predicates, split and ordered for execution.
struct OrderedPredicates {
    probes: Vec<ValueProbe>,
    predicates: Vec<Expr>,
    pred_order: Vec<usize>,
    pred_sels: Vec<f64>,
    /// Product of every predicate's selectivity, the probes' included.
    selectivity: f64,
}

/// Splits a step's predicates into value-probes (fewest postings first)
/// and filters (selectivity-ascending, cheapest first; stable on ties so
/// equal estimates keep the written order). A probe-able predicate's
/// selectivity is its exact posting count over the states' cardinality.
fn order_predicates(
    predicates: &[Expr],
    states: &[SummaryId],
    summary: &PathSummary,
    doc: &Document,
) -> OrderedPredicates {
    let members = summary.cardinality(states).max(1);
    let mut probes = Vec::new();
    let mut idx = Vec::new();
    let mut sels = Vec::with_capacity(predicates.len());
    for (i, p) in predicates.iter().enumerate() {
        match compile_probe(i, p, states, summary, doc) {
            Some(probe) => {
                sels.push((probe.est as f64 / members as f64).min(1.0));
                probes.push(probe);
            }
            None => {
                sels.push(predicate_selectivity(p, states, summary, doc));
                idx.push(i);
            }
        }
    }
    probes.sort_by_key(|probe| probe.est);
    idx.sort_by(|&a, &b| {
        sels[a].partial_cmp(&sels[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    OrderedPredicates {
        probes,
        predicates: idx.iter().map(|&i| predicates[i].clone()).collect(),
        pred_sels: idx.iter().map(|&i| sels[i]).collect(),
        pred_order: idx,
        selectivity: sels.iter().product(),
    }
}

/// Renders a node test for EXPLAIN output.
fn render_test(test: &NodeTest) -> String {
    match test {
        NodeTest::Name(name) => name.clone(),
        NodeTest::Wildcard => "*".into(),
        NodeTest::Text => "text()".into(),
        NodeTest::AnyNode => "node()".into(),
        NodeTest::Comment => "comment()".into(),
        NodeTest::ProcessingInstruction(_) => "processing-instruction()".into(),
    }
}

/// Compiles a location path into a physical plan against `summary`.
///
/// Both absolute and relative paths are planned from the root element —
/// the evaluation start the service uses (`Evaluator::query`). The plan
/// is pure data tied to `summary` (its states and its value-probes'
/// posting runs index into it); planning reads the document only to
/// binary-search those runs, executing it (see [`crate::execute`]) against
/// the same summary does the rest.
pub fn plan(path: &LocationPath, summary: &PathSummary, doc: &Document) -> Plan {
    let mut ops = Vec::new();
    let steps = &path.steps;
    let mut consumed = 0usize;
    let Some(root) = summary.root_sid() else {
        return Plan { ops, tail: steps.to_vec(), consumed_steps: 0, est_rows: 0 };
    };
    let mut states = vec![root];
    // While `exact` holds, the running node-set is precisely the member
    // union of `states`; the first predicate filter breaks it.
    let mut exact = true;
    let mut est = summary.cardinality(&states);
    while consumed < steps.len() {
        let Some(s) = structural_step(steps, consumed) else { break };
        let targets = match s.axis {
            PlanAxis::Child => summary.child_states(doc, &states, s.test),
            PlanAxis::Descendant => summary.descendant_states(doc, &states, s.test),
        };
        let kind = if exact {
            OpKind::Scan
        } else if s.axis == PlanAxis::Child {
            OpKind::ChildJoin
        } else {
            OpKind::ContainmentJoin
        };
        let structural_est = match kind {
            // Exact: the member union is the answer (before predicates).
            OpKind::Scan => summary.cardinality(&targets),
            // Joins keep at most the candidate list, scaled by how much
            // of the exact prefix survived upstream filtering.
            _ => {
                let upstream = summary.cardinality(&states).max(1);
                let keep = (est as f64 / upstream as f64).min(1.0);
                ((summary.cardinality(&targets) as f64) * keep).ceil() as usize
            }
        };
        let ordered = order_predicates(s.predicates, &targets, summary, doc);
        // The epsilon keeps `n * (k / n)` from ceiling to `k + 1`.
        est = ((structural_est as f64) * ordered.selectivity - 1e-9).ceil().max(0.0) as usize;
        if !s.predicates.is_empty() {
            exact = false;
        }
        ops.push(PlanOp {
            axis: s.axis,
            kind,
            test: render_test(s.test),
            states: targets.clone(),
            est,
            probes: ordered.probes,
            predicates: ordered.predicates,
            pred_order: ordered.pred_order,
            pred_sels: ordered.pred_sels,
        });
        states = targets;
        consumed += s.consumed;
    }
    Plan { ops, tail: steps[consumed..].to_vec(), consumed_steps: consumed, est_rows: est }
}
