//! Baseline structural numbering schemes for XML trees.
//!
//! The rUID paper positions its contribution against a family of earlier
//! schemes; this crate implements the ones the paper builds on or cites so
//! the workspace's experiments can compare against them:
//!
//! * [`uid`] — the **original UID** scheme of Lee, Yoo, Yoon, Berra (1996):
//!   the tree is embedded in a complete k-ary tree and numbered level by
//!   level, so `parent(i) = (i-2)/k + 1`. Identifiers are big integers
//!   ([`ubig::Uint`]) because they grow like `k^depth` — exactly the overflow
//!   problem Section 1 of the paper describes.
//! * [`dewey`] — Dewey order labels (path of sibling ordinals), the classic
//!   prefix scheme the related-work section contrasts with.
//! * [`prepost`] — Dietz's preorder/postorder pairs (paper citation \[3\]).
//! * [`containment`] — (start, end, level) containment intervals as used for
//!   relational containment joins (paper citation \[11\]).
//!
//! Two post-paper engines widen the design space the experiments sweep:
//!
//! * [`interval`] — nested-set `[rank, last_descendant]` labels with
//!   stack-based edge reconstruction from flat markers (Tropashko's
//!   nested-set model; also the `LOADSTREAM` ingestion format).
//! * [`ancestry`] — compact ancestry labels in the Dahlgaard et al.
//!   `lg n + 2 lg lg n` style, with a small-depth specialization.
//!
//! All schemes implement [`NumberingScheme`], which exposes label lookup,
//! label-only relationship tests, and structural-update relabelling with
//! cost accounting ([`RelabelStats`]) — the quantity experiment E1 measures.

#![forbid(unsafe_code)]

pub mod ancestry;
pub mod containment;
pub mod dewey;
pub mod interval;
pub mod kary;
pub mod prepost;
pub mod uid;

mod traits;

pub use traits::{NumberingScheme, RelabelStats};
