//! # muri-core
//!
//! The Muri scheduler — the paper's primary contribution:
//!
//! * [`policy`] — the queue-ordering policies of the evaluation (FIFO,
//!   SJF, SRTF, SRSF, LAS, 2D-LAS, Tiresias, Themis, AntMan, Muri-S,
//!   Muri-L) with their preemption / interleaving / sharing descriptors;
//! * [`grouping`] — the multi-round Blossom grouping algorithm
//!   (Algorithm 1) plus the paper's ablation variants (priority packing,
//!   greedy matching, group-size caps);
//! * [`scheduler`] — per-pass planning: admission, GPU-count buckets,
//!   grouping, and descending-GPU placement order;
//! * [`shard`] — the sharded cold-start planner for 10k–100k-job pools;
//! * [`planner`] — the [`Planner`] that owns one config's planning
//!   state across passes: the bounded γ memo ([`gamma_cache`]), the
//!   round memo of round-1 graphs, matchings and final groups
//!   ([`round_cache`]), and the dirty GPU classes of incremental
//!   re-planning for the always-on daemon (a certified stranding
//!   fallback and a provable utility bound vs the full re-plan).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gamma_cache;
pub mod gittins;
pub mod grouping;
pub mod planner;
pub mod policy;
pub mod round_cache;
pub mod scheduler;
pub mod shard;

pub use gittins::gittins_index;
pub use grouping::{
    merged_efficiency, multi_round_grouping, GroupingConfig, GroupingMode, GroupingTimings,
};
pub use planner::{IncrementalOutcome, IncrementalStats, PlanMode, Planner};
pub use policy::{PendingJob, PolicyKind, PriorityKey};
pub use scheduler::{plan_schedule, PlannedGroup, SchedulerConfig};
pub use shard::{ShardBy, ShardCounters};
