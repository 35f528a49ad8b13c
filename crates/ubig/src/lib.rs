//! Arbitrary-precision unsigned integers for numbering-scheme identifiers.
//!
//! The original UID numbering scheme (Lee et al. 1996) embeds an XML tree in a
//! complete k-ary tree, so identifiers grow like `k^depth` and overflow any
//! machine word even for modest documents. The rUID paper (Kha, Yoshikawa,
//! Uemura; EDBT 2002 Workshops) points out that the original scheme therefore
//! needs "additional purpose-specific libraries ... to deal with the oversized
//! values". This crate is that library: a small, dependency-free unsigned
//! big-integer tailored to the arithmetic the UID family of schemes needs —
//! `parent(i) = (i - 2) / k + 1`, child-range computation
//! `[(p-1)k + 2, pk + 1]`, powers for capacity analysis, and ordering.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limbs
//! (`0` is the empty limb vector). All operations keep values normalized.

#![forbid(unsafe_code)]

mod uint;

pub use uint::{ParseUintError, Uint};

#[cfg(test)]
mod tests;
