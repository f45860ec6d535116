//! Shared infrastructure for the `ofw` order-optimization workspace.
//!
//! This crate deliberately contains no order-optimization logic. It provides
//! the performance-oriented substrate the other crates are built on:
//!
//! * [`hash`] — an FxHash implementation and `HashMap`/`HashSet` aliases
//!   using it (the default SipHash is too slow for the hot interning and
//!   memoization paths; see the Rust Performance Book).
//! * [`bitset`] — the one bit set (relation sets, applied-FD masks,
//!   NFSM state subsets): one inline word, spilling to the heap past 64.
//! * [`bitmatrix`] — a dense 2-D bit matrix used for the precomputed
//!   `contains` table (DFSM state × interesting order).
//! * [`horn`] — incremental forward chaining over dense ids with entry
//!   levels (the constant closures of the admission filters).
//! * [`interner`] — a generic value interner handing out dense `u32`
//!   handles so hot-path comparisons are integer comparisons, and an
//!   arena-backed one for tagged slices that allocates nothing per key.
//! * [`mem`] — a byte-accurate, thread-shareable memory meter used to
//!   reproduce the paper's memory-consumption experiments (Fig. 14).
//! * [`exec`] — the morsel partitioner [`morsel_ranges`] behind the
//!   serial morsel-driven executor, and the ordered chunk-execution
//!   trait ([`OrderedExecutor`]), kept only for the frozen benchmark's
//!   pooled runs and `PlanGen::run_with`.
//! * [`alloc`] (feature `count-allocs`) — a counting global allocator
//!   so benchmark binaries can report allocation pressure as a
//!   deterministic, trend-gated `allocs` column — the one module
//!   allowed `unsafe` code; the rest of the crate denies it.

#![deny(unsafe_code)]

#[cfg(feature = "count-allocs")]
#[allow(unsafe_code)]
pub mod alloc;
pub mod bitmatrix;
pub mod bitset;
pub mod exec;
pub mod hash;
pub mod horn;
pub mod interner;
pub mod mem;

pub use bitmatrix::BitMatrix;
pub use bitset::BitSet;
pub use exec::{morsel_ranges, OrderedExecutor, SerialExecutor};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use interner::{Interner, SliceInterner};
pub use mem::MemoryMeter;
