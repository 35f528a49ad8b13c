//! The evaluation engine: one implementation of XPath semantics over any
//! [`AxisProvider`].

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

use xmldom::{Document, NodeId, NodeKind};

use crate::ast::{Axis, CmpOp, Expr, LocationPath, NodeTest, Step, Value};
use crate::axes::AxisProvider;

/// Evaluation failure (unsupported constructs of the subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An attribute step appeared somewhere other than the end of a
    /// predicate path (attribute nodes are not materialized).
    AttributeStep,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::AttributeStep => write!(
                f,
                "attribute steps are only supported at the end of predicate paths"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Result of evaluating a path that may end in an attribute step, whose
/// values are lent by the document.
enum PathValues<'d> {
    Nodes(Vec<NodeId>),
    Strings(Vec<&'d str>),
}

/// Per-axis location-step counters accumulated by an [`Evaluator`]
/// (one count per step application, including the `//name` collapsed
/// form, which counts as a `descendant` step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Steps evaluated per axis, indexed by [`Axis::index`].
    pub steps: [u64; Axis::COUNT],
}

impl StepStats {
    /// Total steps across all axes.
    pub fn total(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Steps evaluated on one axis.
    pub fn of(&self, axis: Axis) -> u64 {
        self.steps[axis.index()]
    }
}

/// An XPath evaluator over one document and one axis provider.
pub struct Evaluator<'a, A: AxisProvider> {
    doc: &'a Document,
    axes: A,
    // Cells, not atomics: evaluation is single-threaded per evaluator and
    // the counters must not cost a shared-cache-line bounce per step.
    steps: [Cell<u64>; Axis::COUNT],
}

impl<'a, A: AxisProvider> Evaluator<'a, A> {
    /// Creates an evaluator.
    pub fn new(doc: &'a Document, axes: A) -> Self {
        Evaluator { doc, axes, steps: std::array::from_fn(|_| Cell::new(0)) }
    }

    /// The underlying axis provider.
    pub fn axes(&self) -> &A {
        &self.axes
    }

    /// Per-axis step counts accumulated over every evaluation run on this
    /// evaluator so far.
    pub fn step_stats(&self) -> StepStats {
        StepStats { steps: std::array::from_fn(|i| self.steps[i].get()) }
    }

    fn bump(&self, axis: Axis) {
        let c = &self.steps[axis.index()];
        c.set(c.get() + 1);
    }

    /// Evaluates a location path. Absolute paths ignore `context` and start
    /// at the root element. The result is in document order without
    /// duplicates.
    pub fn evaluate(&self, path: &LocationPath, context: NodeId) -> Result<Vec<NodeId>, EvalError> {
        match self.eval_path(path, context)? {
            PathValues::Nodes(nodes) => Ok(nodes),
            PathValues::Strings(_) => Err(EvalError::AttributeStep),
        }
    }

    /// Convenience: parse-and-evaluate from the root element.
    pub fn query(&self, xpath: &str) -> Result<Vec<NodeId>, String> {
        let path = crate::parse(xpath).map_err(|e| e.to_string())?;
        let root = self.doc.root_element().unwrap_or_else(|| self.doc.root());
        self.evaluate(&path, root).map_err(|e| e.to_string())
    }

    /// Applies a step sequence to an explicit context node-set — the
    /// plan-execution hook: a query planner that answered a structural
    /// prefix from an index hands the remaining steps (and its
    /// intermediate node-set) back to the evaluator here, which keeps the
    /// fallback semantics byte-identical to a full step-by-step run.
    ///
    /// `context` must be in document order without duplicates (the
    /// invariant every step maintains). An attribute step anywhere but the
    /// end of a predicate path is rejected, exactly like
    /// [`Evaluator::evaluate`].
    pub fn evaluate_steps(
        &self,
        steps: &[Step],
        context: Vec<NodeId>,
    ) -> Result<Vec<NodeId>, EvalError> {
        match self.eval_steps_values(steps, context)? {
            PathValues::Nodes(nodes) => Ok(nodes),
            PathValues::Strings(_) => Err(EvalError::AttributeStep),
        }
    }

    /// Filters a node-set through predicates the way a collapsed step
    /// does: each predicate sees the whole set as one context (position =
    /// index within it). For **position-insensitive** predicates — the
    /// only kind a planner may route here — this is equivalent to the
    /// per-context-node filtering of a step-by-step run, because each
    /// node's verdict ignores position and size entirely.
    pub fn filter_predicates(
        &self,
        nodes: Vec<NodeId>,
        predicates: &[Expr],
    ) -> Result<Vec<NodeId>, EvalError> {
        let mut out = nodes;
        for predicate in predicates {
            let size = out.len();
            let mut kept = Vec::with_capacity(size);
            for (i, &n) in out.iter().enumerate() {
                if self.eval_predicate(predicate, n, i + 1, size)? {
                    kept.push(n);
                }
            }
            out = kept;
        }
        Ok(out)
    }

    fn eval_path(&self, path: &LocationPath, context: NodeId) -> Result<PathValues<'a>, EvalError> {
        let start = if path.absolute {
            self.doc.root_element().unwrap_or_else(|| self.doc.root())
        } else {
            context
        };
        self.eval_steps_values(&path.steps, vec![start])
    }

    fn eval_steps_values(
        &self,
        steps: &[Step],
        mut current: Vec<NodeId>,
    ) -> Result<PathValues<'a>, EvalError> {
        let doc: &'a Document = self.doc;
        let mut skip_next = false;
        for (i, step) in steps.iter().enumerate() {
            if skip_next {
                skip_next = false;
                continue;
            }
            // `//name` peephole: `descendant-or-self::node()/child::name`
            // equals `descendant::name` (plus the context itself never
            // matching a child step of its own parent set changes nothing),
            // so a name index can answer it with one candidate pass instead
            // of expanding every node. Only valid when the child step's
            // predicates are position-insensitive: `//x[2]` counts positions
            // among siblings, which the collapsed form cannot see.
            if step.axis == Axis::DescendantOrSelf
                && step.test == NodeTest::AnyNode
                && step.predicates.is_empty()
            {
                if let Some(next) = steps.get(i + 1) {
                    if next.axis == Axis::Child {
                        if let NodeTest::Name(name) = &next.test {
                            if !next.predicates.iter().any(expr_is_position_sensitive) {
                                if let Some(matched) = self.collapsed_descendant_step(
                                    &current, name, &next.predicates,
                                )? {
                                    self.bump(Axis::Descendant);
                                    current = matched;
                                    skip_next = true;
                                    if current.is_empty() {
                                        break;
                                    }
                                    continue;
                                }
                            }
                        }
                    }
                }
            }
            if step.axis == Axis::Attribute {
                if i + 1 != steps.len() {
                    return Err(EvalError::AttributeStep);
                }
                self.bump(Axis::Attribute);
                let mut strings = Vec::new();
                for &n in &current {
                    match &step.test {
                        NodeTest::Name(name) => {
                            strings.extend(doc.attribute(n, name));
                        }
                        NodeTest::Wildcard | NodeTest::AnyNode => {
                            strings.extend(doc.attributes(n).iter().map(|a| a.value.as_ref()));
                        }
                        _ => {}
                    }
                }
                return Ok(PathValues::Strings(strings));
            }
            current = self.eval_step(step, &current)?;
            if current.is_empty() {
                break;
            }
        }
        Ok(PathValues::Nodes(current))
    }

    /// The collapsed `//name` step: descendants of any context node that
    /// carry `name`, filtered by position-insensitive predicates. Returns
    /// `None` when the provider has no name index to answer from.
    fn collapsed_descendant_step(
        &self,
        context: &[NodeId],
        name: &str,
        predicates: &[Expr],
    ) -> Result<Option<Vec<NodeId>>, EvalError> {
        let Some(per_ctx) = self.axes.descendants_named_batch(context, name) else {
            return Ok(None);
        };
        let mut out: Vec<NodeId> = per_ctx.into_iter().flatten().collect();
        // One context node's descendants are already in document order and
        // duplicate-free; only a genuine union needs the sort.
        if context.len() > 1 {
            self.sort_doc_order(&mut out);
        }
        self.filter_predicates(out, predicates).map(Some)
    }

    /// Sorts a node-set union into document order and deduplicates, using
    /// the provider's precomputed rank keys when it carries them (one
    /// integer compare per comparison) and falling back to
    /// `cmp_doc_order`'s structural/label arithmetic otherwise.
    fn sort_doc_order(&self, out: &mut Vec<NodeId>) {
        if let Some(order) = self.axes.order() {
            out.sort_unstable_by_key(|&n| order.rank(n));
        } else {
            out.sort_by(|&a, &b| self.axes.cmp_doc_order(a, b));
        }
        out.dedup();
    }

    /// Applies one step to a node-set, preserving document order and
    /// deduplicating.
    fn eval_step(&self, step: &Step, context: &[NodeId]) -> Result<Vec<NodeId>, EvalError> {
        self.bump(step.axis);
        // Name-indexed fast path (the paper's condition-first strategy):
        // the provider answers child/descendant name steps directly, with
        // the name resolved to its interned id once for the whole step.
        if let NodeTest::Name(name) = &step.test {
            let fast = match step.axis {
                Axis::Child => self.axes.children_named_batch(context, name),
                Axis::Descendant => self.axes.descendants_named_batch(context, name),
                _ => None,
            };
            if let Some(per_ctx) = fast {
                let mut out: Vec<NodeId> = Vec::new();
                for matched in per_ctx {
                    out.extend(self.filter_predicates(matched, &step.predicates)?);
                }
                if context.len() > 1 {
                    self.sort_doc_order(&mut out);
                }
                return Ok(out);
            }
        }
        let mut out: Vec<NodeId> = Vec::new();
        for &node in context {
            // Axis nodes in document order from the provider.
            let axis_nodes: Vec<NodeId> = match step.axis {
                Axis::Child => self.axes.children(node),
                Axis::Descendant => self.axes.descendants(node),
                Axis::DescendantOrSelf => {
                    let mut v = vec![node];
                    v.extend(self.axes.descendants(node));
                    v
                }
                Axis::Parent => self.axes.parent(node).into_iter().collect(),
                Axis::Ancestor => self.axes.ancestors(node),
                Axis::AncestorOrSelf => {
                    let mut v = self.axes.ancestors(node);
                    v.push(node);
                    v
                }
                Axis::Following => self.axes.following(node),
                Axis::Preceding => self.axes.preceding(node),
                Axis::FollowingSibling => self.axes.following_siblings(node),
                Axis::PrecedingSibling => self.axes.preceding_siblings(node),
                Axis::SelfAxis => vec![node],
                Axis::Attribute => return Err(EvalError::AttributeStep),
            };
            // Node test.
            let mut matched: Vec<NodeId> =
                axis_nodes.into_iter().filter(|&n| self.node_test(n, &step.test)).collect();
            // Predicates, applied in proximity order for reverse axes.
            for predicate in &step.predicates {
                if step.axis.is_reverse() {
                    matched.reverse();
                }
                let size = matched.len();
                let mut kept = Vec::with_capacity(size);
                for (i, &n) in matched.iter().enumerate() {
                    if self.eval_predicate(predicate, n, i + 1, size)? {
                        kept.push(n);
                    }
                }
                matched = kept;
                if step.axis.is_reverse() {
                    matched.reverse();
                }
            }
            out.extend(matched);
        }
        // Union over context nodes: sort in document order, dedup. A single
        // context node needs neither — every axis method already returns
        // document order (the provider contract) without duplicates.
        if context.len() > 1 {
            self.sort_doc_order(&mut out);
        }
        Ok(out)
    }

    fn node_test(&self, node: NodeId, test: &NodeTest) -> bool {
        match test {
            NodeTest::Name(name) => self.doc.tag_name(node) == Some(name.as_str()),
            NodeTest::Wildcard => self.doc.is_element(node),
            NodeTest::Text => matches!(self.doc.kind(node), NodeKind::Text(_)),
            NodeTest::AnyNode => true,
            NodeTest::Comment => matches!(self.doc.kind(node), NodeKind::Comment(_)),
            NodeTest::ProcessingInstruction(target) => match self.doc.kind(node) {
                NodeKind::ProcessingInstruction { target: t, .. } => {
                    target.as_ref().is_none_or(|want| want.as_str() == t.as_ref())
                }
                _ => false,
            },
        }
    }

    fn eval_predicate(
        &self,
        expr: &Expr,
        node: NodeId,
        position: usize,
        size: usize,
    ) -> Result<bool, EvalError> {
        match expr {
            Expr::Or(a, b) => Ok(self.eval_predicate(a, node, position, size)?
                || self.eval_predicate(b, node, position, size)?),
            Expr::And(a, b) => Ok(self.eval_predicate(a, node, position, size)?
                && self.eval_predicate(b, node, position, size)?),
            Expr::Not(inner) => Ok(!self.eval_predicate(inner, node, position, size)?),
            Expr::Exists(value) => match value {
                // A bare number is a position test.
                Value::Number(n) => Ok(position as f64 == *n),
                Value::Position => Ok(true),
                Value::Last => Ok(position == size),
                Value::Literal(s) => Ok(!s.is_empty()),
                Value::Attribute(name) => Ok(self.doc.attribute(node, name).is_some()),
                Value::Path(path) => match self.eval_path(path, node)? {
                    PathValues::Nodes(n) => Ok(!n.is_empty()),
                    PathValues::Strings(s) => Ok(!s.is_empty()),
                },
                Value::Count(path) => Ok(self.count(path, node)? > 0.0),
                Value::StringLength(inner) => {
                    Ok(!self.string_of(inner, node, position, size)?.is_empty())
                }
                Value::Name => Ok(self.doc.tag_name(node).is_some()),
            },
            Expr::Contains(a, b) => {
                let a = self.string_of(a, node, position, size)?;
                let b = self.string_of(b, node, position, size)?;
                Ok(a.contains(&*b))
            }
            Expr::StartsWith(a, b) => {
                let a = self.string_of(a, node, position, size)?;
                let b = self.string_of(b, node, position, size)?;
                Ok(a.starts_with(&*b))
            }
            Expr::Comparison { left, op, right } => {
                let lv = self.resolve_value(left, node, position, size)?;
                let rv = self.resolve_value(right, node, position, size)?;
                Ok(compare(&lv, *op, &rv))
            }
        }
    }

    fn count(&self, path: &LocationPath, node: NodeId) -> Result<f64, EvalError> {
        Ok(match self.eval_path(path, node)? {
            PathValues::Nodes(n) => n.len() as f64,
            PathValues::Strings(s) => s.len() as f64,
        })
    }

    /// Resolves an operand for `node`. Strings are borrowed wherever the
    /// document or the expression can lend them — an attribute's value, an
    /// element's single text child, the literal itself — so comparing a
    /// candidate allocates only for mixed content.
    fn resolve_value<'v>(
        &'v self,
        value: &'v Value,
        node: NodeId,
        position: usize,
        size: usize,
    ) -> Result<Resolved<'v>, EvalError> {
        let doc: &'a Document = self.doc;
        Ok(match value {
            Value::Number(n) => Resolved::Number(*n),
            Value::Position => Resolved::Number(position as f64),
            Value::Last => Resolved::Number(size as f64),
            Value::Literal(s) => Resolved::one(Some(s.as_str())),
            Value::Attribute(name) => Resolved::one(doc.attribute(node, name)),
            Value::Count(path) => Resolved::Number(self.count(path, node)?),
            Value::StringLength(inner) => {
                let s = self.string_of(inner, node, position, size)?;
                Resolved::Number(s.chars().count() as f64)
            }
            Value::Name => Resolved::one(doc.tag_name(node)),
            Value::Path(path) => match self.eval_path(path, node)? {
                PathValues::Strings(s) => {
                    Resolved::Strings(s.into_iter().map(Cow::Borrowed).collect())
                }
                PathValues::Nodes(nodes) => Resolved::Strings(
                    nodes.into_iter().map(|n| doc.string_value_cow(n)).collect(),
                ),
            },
        })
    }

    /// XPath `string()` conversion of a value: the first node's string
    /// value for node-sets, the literal/number text otherwise.
    fn string_of<'v>(
        &'v self,
        value: &'v Value,
        node: NodeId,
        position: usize,
        size: usize,
    ) -> Result<Cow<'v, str>, EvalError> {
        if let Value::Path(path) = value {
            // Only the first node's string-value is wanted; build no others.
            return Ok(match self.eval_path(path, node)? {
                PathValues::Strings(s) => s.first().copied().map(Cow::Borrowed),
                PathValues::Nodes(nodes) => nodes.first().map(|&n| self.doc.string_value_cow(n)),
            }
            .unwrap_or_default());
        }
        Ok(match self.resolve_value(value, node, position, size)? {
            Resolved::Number(n) => Cow::Owned(if n.fract() == 0.0 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            }),
            Resolved::One(s) => s.unwrap_or_default(),
            Resolved::Strings(set) => set.into_iter().next().unwrap_or_default(),
        })
    }
}

/// Whether a predicate's outcome can depend on the context position — bare
/// numbers, `position()`, or `last()` anywhere inside. Public because a
/// query planner must refuse to reorder (or batch-filter) any step whose
/// predicates fail this test.
pub fn expr_is_position_sensitive(expr: &Expr) -> bool {
    fn value_sensitive(v: &Value) -> bool {
        match v {
            Value::Position | Value::Last => true,
            Value::StringLength(inner) => value_sensitive(inner),
            _ => false,
        }
    }
    match expr {
        Expr::Or(a, b) | Expr::And(a, b) => {
            expr_is_position_sensitive(a) || expr_is_position_sensitive(b)
        }
        Expr::Not(inner) => expr_is_position_sensitive(inner),
        Expr::Exists(v) => matches!(v, Value::Number(_)) || value_sensitive(v),
        Expr::Comparison { left, right, .. } => value_sensitive(left) || value_sensitive(right),
        Expr::Contains(a, b) | Expr::StartsWith(a, b) => {
            value_sensitive(a) || value_sensitive(b)
        }
    }
}

/// A resolved predicate operand.
enum Resolved<'v> {
    Number(f64),
    /// A string-set of at most one member (a literal, an attribute, a
    /// name), held without a vector.
    One(Option<Cow<'v, str>>),
    Strings(Vec<Cow<'v, str>>),
}

impl<'v> Resolved<'v> {
    fn one(s: Option<&'v str>) -> Resolved<'v> {
        Resolved::One(s.map(Cow::Borrowed))
    }

    /// The string-set, `None` for a number.
    fn strings(&self) -> Option<&[Cow<'v, str>]> {
        match self {
            Resolved::Number(_) => None,
            Resolved::One(s) => Some(s.as_slice()),
            Resolved::Strings(set) => Some(set),
        }
    }

    /// The operand as numbers: the number itself, or each string that
    /// parses as one.
    fn numbers(&self) -> impl Iterator<Item = f64> + '_ {
        let (number, set) = match self {
            Resolved::Number(n) => (Some(*n), None),
            strings => (None, strings.strings()),
        };
        number.into_iter().chain(set.into_iter().flatten().filter_map(|s| parse_number(s)))
    }
}

/// XPath `number()` of a string as this subset reads it: surrounding
/// whitespace ignored, then Rust's `f64` grammar (so `"2.0"`, `" 2 "`,
/// `"inf"` and `"NaN"` all parse). Every numeric comparison — the
/// evaluator's and a value index's — goes through here, so the two can
/// never disagree about what a value's number is.
pub fn parse_number(s: &str) -> Option<f64> {
    s.trim().parse().ok()
}

/// XPath comparison semantics: node-set operands compare existentially.
fn compare(left: &Resolved<'_>, op: CmpOp, right: &Resolved<'_>) -> bool {
    if let (Some(sa), Some(sb)) = (left.strings(), right.strings()) {
        match op {
            CmpOp::Eq => return sa.iter().any(|a| sb.contains(a)),
            CmpOp::Ne => return sa.iter().any(|a| sb.iter().any(|b| a != b)),
            // Relational operators on strings compare numerically, per XPath.
            _ => {}
        }
    }
    if let Resolved::Number(b) = right {
        return left.numbers().any(|a| op.holds(a, *b));
    }
    // The right side's numbers are parsed once, not once per left value.
    let right: Vec<f64> = right.numbers().collect();
    left.numbers().any(|a| right.iter().any(|&b| op.holds(a, b)))
}
