//! An XPath 1.0 subset with pluggable axis evaluation.
//!
//! Section 3.5 of the rUID paper argues that "generating and filtering the
//! axes is essential in evaluation of location steps in XPath expressions"
//! and shows how every positional axis can be produced from rUID labels.
//! This crate makes that claim executable:
//!
//! * [`parse`] — location paths with the thirteen positional axes
//!   (abbreviated and verbose syntax), name/wildcard/`text()`/`node()`/
//!   `comment()`/`processing-instruction()` node tests, and predicates
//!   (positions, existence paths, `@attr`, comparisons, `and`/`or`/`not`).
//! * [`Evaluator`] — a single evaluation engine parameterized by an
//!   [`AxisProvider`]: where the nodes of an axis come from.
//! * [`TreeAxes`] — DOM traversal (the baseline without any numbering).
//! * [`UidAxes`] — axes from original-UID label arithmetic.
//! * [`RuidAxes`] — axes from the paper's rUID routines (`rchildren`,
//!   `rdescendant`, `rpsibling`, ... of `ruid-core`).
//!
//! All three providers return identical node-sets (the test suite checks
//! them against each other); they differ in *how* the sets are produced,
//! which is what experiment E4/E5 measures.
//!
//! Unsupported (out of the paper's scope): namespaces, variables, most of
//! the function library, and attribute nodes as top-level results
//! (attributes are reachable in predicates via `@name`).

#![forbid(unsafe_code)]

mod ast;
mod axes;
mod eval;
mod join;
mod lexer;
mod nameindex;
mod parser;

pub use ast::{Axis, CmpOp, Expr, LocationPath, NodeTest, Step, Value};
pub use axes::{AxisProvider, RuidAxes, SpanAxes, TreeAxes, UidAxes};
pub use eval::{expr_is_position_sensitive, parse_number, EvalError, Evaluator, StepStats};
pub use join::{containment_join, parent_join};
pub use nameindex::{NameIndex, NameIndexed};
pub use lexer::{LexError, Token};
pub use parser::{parse, ParseError};
