//! The three benchmark workloads and the `ParallelConfig` each generates.
//!
//! All three are closed loops: inside a shard, a device sends its next
//! request only after its previous exchange completes, and the driver
//! interleaves devices round-robin. The seed is the only input that
//! varies between runs of one workload.

use trust_core::parallel::ParallelConfig;
use trust_core::server::journal::CrashProfile;
use trust_core::server::storage::DiskFaultProfile;

/// Shard count for every workload.
pub const SHARDS: usize = 16;

/// Fleets per timed run, each from its own seed derived from the run's
/// seed, so one seed's crash or risk pattern does not set a run's figures.
pub const FLEETS: u64 = 4;

/// Domain every shard world serves (the same constant `run_shard` uses, so
/// account routing matches).
pub const DOMAIN: &str = "www.xyz.com";

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Many short lifecycles: account binding and login dominate.
    SignupStorm,
    /// Few long sessions: the per-touch path dominates.
    ContinuousSession,
    /// Loss, crashes and disk faults on segmented storage, two workers.
    LossyDurable,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SignupStorm,
        Workload::ContinuousSession,
        Workload::LossyDurable,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SignupStorm => "signup_storm",
            Workload::ContinuousSession => "continuous_session",
            Workload::LossyDurable => "lossy_durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fleet configuration for `seed`.
    pub fn config(self, seed: u64) -> ParallelConfig {
        let (accounts, touches, workers) = match self {
            Workload::SignupStorm => (256, 1, 1),
            Workload::ContinuousSession => (32, 256, 1),
            Workload::LossyDurable => (128, 16, 2),
        };
        let mut cfg = ParallelConfig::new(seed, accounts, SHARDS, workers);
        cfg.touches = touches;
        if self == Workload::LossyDurable {
            cfg.loss = 0.10;
            cfg.crash = Some(CrashProfile::uniform(0.01));
            cfg.disk = Some(DiskFaultProfile::uniform(0.01));
        }
        cfg
    }

    /// The timed run's fleets for `seed`; the traced run uses the first.
    pub fn configs(self, seed: u64) -> Vec<ParallelConfig> {
        (0..FLEETS)
            .map(|k| self.config(seed.wrapping_mul(FLEETS).wrapping_add(k)))
            .collect()
    }

    /// Interactions the configuration plans: accounts × touches.
    pub fn planned(cfg: &ParallelConfig) -> u64 {
        (cfg.accounts * cfg.touches) as u64
    }
}
