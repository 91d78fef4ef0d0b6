//! # muri-matching
//!
//! Maximum-weight matching in general graphs — the algorithmic substrate
//! of Muri's job-grouping step (§4.1 of the paper: "finding the optimal
//! plan can be converted to finding the maximum weighted matching of the
//! graph … Blossom algorithm is a polynomial algorithm that can find a
//! maximum weighted matching in `O(|V|³)` time").
//!
//! Three implementations with one interface:
//!
//! * [`maximum_weight_matching`] — the `O(n³)` Blossom algorithm (the one
//!   the scheduler uses);
//! * [`exact_maximum_weight_matching`] — an `O(2ⁿ·n)` subset-DP oracle,
//!   the testing ground truth;
//! * [`greedy_matching`] — the ½-approximation baseline.
//!
//! [`pruned_maximum_weight_matching`] wraps the Blossom solver with
//! bounded top-m edge pruning and an a-posteriori loss certificate — the
//! cold-start fast path (see [`sparse`]). Its dense and CSR entry points
//! share one prune pass that solves the kept edges in CSR form.
//!
//! [`SparseGraph`] (see [`sparse_graph`]) carries candidate graphs in CSR
//! form — `O(E)` memory instead of the n×n matrix — through the same
//! three solvers bit-identically; the sharded cold-start planner builds
//! its per-shard graphs on it directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blossom;
pub mod graph;
pub mod greedy;
pub mod oracle;
pub mod sparse;
pub mod sparse_graph;

pub use blossom::maximum_weight_matching;
pub use graph::{weight_from_f64, DenseGraph, Matching, WEIGHT_SCALE};
pub use greedy::{greedy_matching, greedy_matching_on_edges};
pub use oracle::{exact_maximum_weight_matching, ORACLE_MAX_NODES};
pub use sparse::{
    loss_certificate_holds, pruned_maximum_weight_matching, PruneCertificate, PruneConfig,
    PruneOutcome, DEFAULT_PRUNE_LOSS_BOUND, DEFAULT_PRUNE_TOP_M,
};
pub use sparse_graph::{
    greedy_matching_sparse, maximum_weight_matching_sparse, pruned_maximum_weight_matching_sparse,
    SparseGraph,
};
