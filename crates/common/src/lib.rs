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
//! * [`exec`] — the ordered chunk-execution seam ([`OrderedExecutor`])
//!   between the DP drivers and the `ofw-parallel` thread pool, plus the
//!   deterministic block partitioner [`chunk_ranges`] and the
//!   thread-count-independent morsel partitioner [`morsel_ranges`].
//! * [`alloc`] (feature `count-allocs`) — a counting global allocator
//!   so benchmark binaries can report allocation pressure as a
//!   deterministic, trend-gated `allocs` column.

#[cfg(feature = "count-allocs")]
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
pub use exec::{chunk_ranges, morsel_ranges, OrderedExecutor, SerialExecutor};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use interner::{Interner, SliceInterner};
pub use mem::MemoryMeter;
