//! Deterministic synthetic XML workloads.
//!
//! The paper evaluates on "several sample XML documents" that are not
//! available; this crate generates seeded equivalents covering the shape
//! regimes the paper's observations depend on:
//!
//! * [`random_tree`] — parameterized random element trees with controllable
//!   size, fan-out distribution and depth skew (the fan-out *disparity* is
//!   what makes the original UID's single global k wasteful, Section 3.1);
//! * [`deep_tree`] — "trees having a high degree of recursion"
//!   (Observation 1): a deep spine where every level has full fan-out, the
//!   worst case for identifier growth;
//! * [`xmark::generate`] — an XMark-style auction-site document with text
//!   and attributes, the standard XML benchmark shape of the period;
//! * [`dblp::generate`] — a DBLP-style bibliography: shallow and extremely
//!   wide at the root, the opposite regime from `deep_tree`.
//!
//! All generators take an explicit seed and are fully deterministic, so
//! every experiment in the workspace is reproducible.

#![forbid(unsafe_code)]

pub mod dblp;
pub mod prng;
pub mod random;
pub mod xmark;

pub use prng::SplitMix64;
pub use random::{deep_tree, random_tree, FanoutDist, NameStrategy, TreeGenConfig};
