//! A self-contained XML document object model: arena-backed tree, XML 1.0
//! subset parser, serializer, and tree statistics.
//!
//! This crate is the substrate every numbering scheme in the workspace runs
//! on. The rUID paper (Kha, Yoshikawa, Uemura; EDBT 2002 Workshops) numbers
//! the nodes of DOM trees, so we provide:
//!
//! * [`Document`] — an arena of linked nodes ([`NodeId`] handles) with O(1)
//!   structural mutation (append, insert-before/after, detach), the operations
//!   whose relabelling cost the paper's update experiments measure; its
//!   links are one flat table and its payloads a copy-on-write [`Column`],
//!   so a clone (a commit's staging copy) shares what it does not write;
//! * a recursive-descent XML parser ([`Document::parse`]) covering elements,
//!   attributes, text, CDATA, comments, processing instructions, character
//!   and predefined entity references, and DOCTYPE skipping;
//! * a serializer ([`Document::to_xml_string`]) that round-trips the subset;
//! * [`TreeStats`] — fan-out/depth/population statistics that drive the
//!   partitioning heuristics in `ruid-core` and the capacity analysis of the
//!   scalability experiment.
//!
//! Element and attribute names are interned ([`NameId`]) so that node
//! comparisons and name indices are integer comparisons.

#![forbid(unsafe_code)]

mod column;
mod error;
mod interner;
mod iterators;
mod order;
mod parser;
mod serializer;
mod stats;
mod tree;

pub use column::{Column, CHUNK};
pub use error::{ParseError, ParseErrorKind, TextPos};
pub use interner::{Interner, NameId};
pub use iterators::{Ancestors, Children, Descendants, Siblings};
pub use order::DocOrder;
pub use parser::ParseOptions;
pub use serializer::SerializeOptions;
pub use stats::TreeStats;
pub use tree::{Attribute, Document, NodeId, NodeKind};
