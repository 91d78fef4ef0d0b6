//! The two workloads: seeded traces and the scheduler configuration
//! each one runs under.
//!
//! Every workload goes through both user surfaces of the system: the
//! batch simulator (`muri sim`) over seeded traces, and the durable
//! daemon (`muri serve --state`, then `muri serve --recover`). The
//! workloads differ in the scheduler configuration and scenario, which
//! decide the layer each one stresses.

use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::SimConfig;
use muri_workload::{GpuDistribution, SimDuration, SynthConfig, Trace};

/// Machines in the CLI-default cluster (`muri sim` / `muri serve`).
pub const MACHINES: u32 = 8;

/// Jobs in trace 1 of the paper's Philly-like traces at scale 1.
const TRACE1_JOBS: f64 = 992.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Muri-S with full planning passes: the planner (grouping and
    /// Blossom matching) dominates the run.
    SimOnline,
    /// Tiresias, which never groups, under every hostile scenario plus
    /// machine faults and checkpointing: the engine dominates.
    SimHostile,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 2] = [Workload::SimOnline, Workload::SimHostile];

    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimOnline => "sim-online",
            Workload::SimHostile => "sim-hostile",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scheduling policy of both surfaces.
    pub fn policy(self) -> PolicyKind {
        match self {
            Workload::SimOnline => PolicyKind::MuriS,
            Workload::SimHostile => PolicyKind::Tiresias,
        }
    }

    /// The `muri serve` policy flag value.
    pub fn policy_flag(self) -> &'static str {
        match self {
            Workload::SimOnline => "muri-s",
            Workload::SimHostile => "tiresias",
        }
    }

    /// Size of the simulated traces as a multiple of trace 1's 992 jobs.
    /// Under Tiresias an overloaded trace's backlog, and with it every
    /// simulated-time figure, swings widely from seed to seed; many
    /// trace-1-sized traces average that out where a few large ones
    /// cannot.
    pub fn trace_scale(self) -> f64 {
        match self {
            Workload::SimOnline => 4.0,
            Workload::SimHostile => 1.0,
        }
    }

    /// The configuration `muri serve --machines 8 --policy P` boots with.
    /// The daemon's CLI has no scenario flags, so the daemon of every
    /// workload runs without them.
    pub fn serve_config(self) -> SimConfig {
        SimConfig {
            cluster: muri_cluster::ClusterSpec::with_machines(MACHINES),
            ..SimConfig::testbed(SchedulerConfig::preset(self.policy()))
        }
    }

    /// The batch simulator's configuration for the trace drawn with
    /// `seed`: the daemon's configuration plus, on `sim-hostile`, the
    /// hostile scenarios seeded from the same seed.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        let mut cfg = self.serve_config();
        if self == Workload::SimHostile {
            let f = &mut cfg.faults;
            f.seed = seed;
            f.mtbf = Some(SimDuration::from_secs(36_000));
            f.machine_mtbf = Some(SimDuration::from_secs(43_200));
            f.machine_mttr = SimDuration::from_secs(300);
            f.transient_fraction = 0.5;
            f.spot_machines = 2;
            f.spot_mtbe = Some(SimDuration::from_secs(14_400));
            f.spot_warning = SimDuration::from_secs(60);
            f.spot_downtime = SimDuration::from_secs(600);
            f.gpu_generations = 2;
            f.generation_gap = 0.25;
            f.elastic_fraction = 0.25;
            f.elastic_interval = Some(SimDuration::from_secs(7_200));
            f.slo_fraction = 0.3;
            f.slo_slack = 2.0;
            cfg.checkpoint.interval = Some(SimDuration::from_secs(1_800));
            cfg.checkpoint.cost = SimDuration::from_secs(5);
        }
        cfg
    }
}

/// Trace 1's Philly-like parameters (992 jobs at scale 1, offered load
/// 1.6, median duration 2400 s, the Philly GPU-count skew), drawn from
/// `seed` instead of the fixed seed `philly_like_trace` uses.
pub fn philly_trace1(seed: u64, scale: f64) -> Trace {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let num_jobs = ((TRACE1_JOBS * scale).round() as usize).max(8);
    SynthConfig {
        name: format!("trace-1-seed-{seed}"),
        num_jobs,
        seed,
        duration_median_secs: 2400.0,
        duration_sigma: 1.2,
        target_load: 1.6,
        gpu_dist: GpuDistribution {
            weights: vec![
                (1, 0.70),
                (2, 0.13),
                (4, 0.09),
                (8, 0.05),
                (16, 0.02),
                (32, 0.01),
            ],
        },
        ..SynthConfig::default()
    }
    .generate()
}

/// SplitMix64 of `seed` and `k`: independent seeds for the traces of one
/// run, all determined by the run's seed.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
