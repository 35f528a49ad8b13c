//! **rUID** — the multilevel recursive UID structural numbering scheme of
//! Kha, Yoshikawa and Uemura (*A Structural Numbering Scheme for XML Data*,
//! EDBT 2002 Workshops).
//!
//! # The scheme in one paragraph
//!
//! The XML tree is partitioned into **UID-local areas** — induced subtrees
//! whose roots form a **frame**. The frame is numbered with the original UID
//! scheme using its own fan-out κ (**global index**); the inside of each
//! area is numbered with the original UID scheme using that area's *local*
//! fan-out (**local index**). A node's identifier is the triple
//! `(global, local, root-indicator)` ([`Ruid2`]). A small in-memory table
//! ([`KTable`]: one row per area with its root's local index in the upper
//! area and its local fan-out) plus κ let every structural operation —
//! parent, ancestors, children, siblings, document order — run on labels
//! alone, with no I/O. Because fan-outs are *graded and localized*,
//! identifiers stay machine-word sized, and a node insertion relabels only
//! within one area instead of cascading across the document.
//!
//! # Crate layout
//!
//! * [`Ruid2`] / [`Ruid2Scheme`] — the 2-level scheme: construction
//!   ([`Ruid2Scheme::build`]), the `rparent` algorithm of the paper's
//!   Fig. 6, and localized structural updates (Section 3.2).
//! * [`axes`] — the XPath axis routines of Section 3.5 (`rchildren`,
//!   `rdescendant`, `rpsibling`, `rfsibling`, preceding/following order via
//!   Lemmas 2–3, and the LCA routine of Fig. 10).
//! * [`partition`] — area selection strategies and the fan-out adjustment
//!   of Section 2.3 (which guarantees κ never exceeds the source fan-out).
//! * [`multilevel`] — the l-level recursive construction of Section 2.4
//!   ([`MultiRuidScheme`]), for documents whose frame is itself too large.
//!
//! # Quick start
//!
//! ```
//! use ruid_core::{PartitionConfig, Ruid2Scheme};
//! use schemes::NumberingScheme;
//! use xmldom::Document;
//!
//! let doc = Document::parse("<a><b><c/><d/></b><e/></a>").unwrap();
//! let scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(2));
//! let c = doc.descendants(doc.root_element().unwrap())
//!     .find(|&n| doc.tag_name(n) == Some("c")).unwrap();
//! let label = scheme.label_of(c);
//! // Parent identifiers are computed from the label alone:
//! let parent = scheme.parent_label(&label).unwrap();
//! assert_eq!(scheme.node_of(&parent), doc.parent(c));
//! ```

#![forbid(unsafe_code)]

pub mod axes;
pub mod multilevel;
pub mod partition;

mod label;
mod scheme;
mod table;
mod update;

pub use label::Ruid2;
pub use multilevel::{MultiRuid, MultiRuidScheme};
pub use partition::{Partition, PartitionConfig, PartitionStrategy};
pub use scheme::{rparent_with, BuildError, Ruid2Scheme};
pub use table::{AreaEntry, KTable};
