//! # ofw-query — query model and order-optimization input extraction
//!
//! The preparation phase of the paper (§5.2) starts from "the set of
//! interesting orders and the sets of functional dependencies for each
//! algebraic operator", both determined from the query. This crate owns
//! that step:
//!
//! * [`graph`] — a select-project-join query model: relations, equi-join
//!   edges, constant and filter predicates, `group by` / `order by`;
//! * [`builder`] — a fluent, catalog-aware way to construct queries;
//! * [`extract()`] — derivation of the [`InputSpec`](ofw_core::InputSpec)
//!   (produced/tested interesting orders) and of one
//!   [`FdSetId`](ofw_core::FdSetId) per operator, following the paper's
//!   recipe for TPC-R Query 8 (§6.2): join and grouping attributes become
//!   interesting orders; join predicates become equations; constant
//!   predicates become `∅ → a` dependencies.

#![forbid(unsafe_code)]

pub mod builder;
pub mod extract;
pub mod graph;

pub use builder::QueryBuilder;
pub use extract::{extract, extract_traced, ExtractedQuery};
pub use graph::{
    AggCall, AggFunc, ConstPred, FilterPred, JoinEdge, JoinGraph, Query, CONST_VALUE, FILTER_BOUND,
};
