//! Catalog substrate: attributes, relations, indexes, and a TPC-H subset.
//!
//! The order-optimization framework (the paper's contribution, in
//! `ofw-core`) operates purely on interned attribute ids. This crate owns
//! the mapping between human-readable schema objects and those ids, plus
//! the physical metadata (cardinalities, indexes) the plan generator needs.

#![forbid(unsafe_code)]

pub mod attr;
pub mod schema;
pub mod tpch;

pub use attr::{AttrId, RelId};
pub use schema::{Catalog, Index, Relation};
