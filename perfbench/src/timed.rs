//! The timed run: `parallel::run_parallel` measured from outside with
//! tracing off, repeated until the run's time is spent, every repetition
//! checked.

use std::hint::black_box;
use std::time::{Duration, Instant};

use btd_crypto::sha256::Digest;
use trust_core::device::DeviceError;
use trust_core::messages::Reject;
use trust_core::parallel::{run_parallel, ParallelConfig, ParallelRun};
use trust_core::registration::FlowError;

use crate::alloc::{self, AllocCount};
use crate::report::{median, Report};
use crate::workload::Workload;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Timed repetitions of each fleet made even when the deadline has
/// already passed: two, so every fleet's outcome is checked for repeating.
const MIN_REPS: usize = 2;

/// What every checked run of one configuration must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Outcome {
    pub digest: Digest,
    pub served: u64,
}

/// Whether a conclusive lifecycle failure is a refusal the protocol makes
/// by design: the matcher's false-reject rate now and then refuses a
/// genuine owner's explicit touch, the server's risk policy can end a
/// session on a run of unverified touches, and a shard whose sealed
/// segment an injected disk fault corrupted is quarantined read-only.
/// Their lost interactions show in `served_ratio`; every other failure is
/// a wrong output.
pub fn is_designed_refusal(err: &FlowError) -> bool {
    matches!(
        err,
        FlowError::Device(DeviceError::BiometricRejected)
            | FlowError::Server(Reject::RiskTerminated | Reject::ShardQuarantined)
    )
}

/// Checks one run's outputs: no replay accepted, no lifecycle failed
/// except by a designed refusal, the trace re-derives the
/// live metrics, the telemetry series reconciles, and the run reproduces
/// `expected`, the first checked outcome of the same configuration
/// (recorded here when `None`).
///
/// # Errors
///
/// Names the first check that failed.
pub fn check_run(run: &ParallelRun, expected: &mut Option<Outcome>) -> Result<(), String> {
    let replays = run.replays_accepted();
    if replays != 0 {
        return Err(format!("{replays} replays accepted"));
    }
    if let Some((account, err)) = run.failures().find(|(_, e)| !is_designed_refusal(e)) {
        return Err(format!("lifecycle {account} failed: {err}"));
    }
    if run.derived_metrics() != run.fleet_metrics() {
        return Err("metrics derived from the trace differ from the live metrics".into());
    }
    run.verify_series_reconciles()
        .map_err(|e| format!("telemetry series does not reconcile: {e}"))?;
    let outcome = Outcome {
        digest: run.state_digest(),
        served: run.total_served(),
    };
    if outcome.served == 0 {
        return Err("no interaction served".into());
    }
    match *expected.get_or_insert(outcome) {
        e if e == outcome => Ok(()),
        e => Err(format!("repeat diverged: {outcome:?}, first run {e:?}")),
    }
}

/// A shrunken copy of `cfg` that touches every code path the timed call
/// will, to warm lazy statics and the allocator.
pub fn warmup_config(cfg: &ParallelConfig) -> ParallelConfig {
    ParallelConfig {
        accounts: 2 * cfg.workers,
        shards: cfg.workers,
        touches: cfg.touches.min(4),
        ..cfg.clone()
    }
}

/// One fleet configuration's checked repetitions.
#[derive(Default)]
struct Fleet {
    expected: Option<Outcome>,
    walls: Vec<f64>,
    allocs: Vec<f64>,
    bytes: Vec<f64>,
    /// Simulated makespan at the configured worker count, seconds.
    makespan: f64,
}

/// Runs `workload` for `seed` until `seconds` have passed, cycling through
/// its fleets, and reports the end-to-end metrics. Rates pool the fleets:
/// total work over the sum of each fleet's median wall time.
///
/// # Errors
///
/// Fails if no fleet has a repetition that passed its checks, or the RSS
/// is unreadable.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut cfgs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        cfgs = workload.configs(seed);
        black_box(run_parallel(&warmup_config(&cfgs[0])));
        setups.push(start.elapsed().as_secs_f64());
    }

    let mut report = Report::default();
    let mut fleets: Vec<Fleet> = cfgs.iter().map(|_| Fleet::default()).collect();
    let mut reps = 0;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while reps < MIN_REPS * cfgs.len() || Instant::now() < deadline {
        let (cfg, fleet) = (&cfgs[reps % cfgs.len()], &mut fleets[reps % cfgs.len()]);
        reps += 1;
        let heap = AllocCount::now();
        let start = Instant::now();
        let run = run_parallel(black_box(cfg));
        let wall = start.elapsed().as_secs_f64();
        let heap = heap.elapsed();
        let checked = check_run(&run, &mut fleet.expected);
        let ok = checked.is_ok();
        report.check(cfg.accounts as u64, checked);
        if ok {
            fleet.walls.push(wall);
            fleet.allocs.push(heap.allocs as f64);
            fleet.bytes.push(heap.bytes as f64);
            fleet.makespan = run.makespan(cfg.workers).as_secs_f64();
        }
    }

    let (mut accounts, mut planned, mut served) = (0.0, 0.0, 0.0);
    let (mut wall, mut allocs, mut bytes, mut makespan) = (0.0, 0.0, 0.0, 0.0);
    for (cfg, fleet) in cfgs.iter().zip(&fleets) {
        // A fleet that failed every check has no timing to report; its
        // lifecycles already count as failed.
        let Some(outcome) = fleet.expected else {
            continue;
        };
        accounts += cfg.accounts as f64;
        planned += Workload::planned(cfg) as f64;
        served += outcome.served as f64;
        wall += median(&fleet.walls);
        allocs += median(&fleet.allocs);
        bytes += median(&fleet.bytes);
        makespan += fleet.makespan;
    }
    if served == 0.0 {
        return Err(format!("no fleet passed its checks in {reps} repetitions"));
    }
    report.push("lifecycles_per_s", accounts / wall, "1/s");
    report.push("interactions_per_s", served / wall, "1/s");
    report.push("served_ratio", served / planned, "ratio");
    report.push("allocs_per_interaction", allocs / served, "count");
    report.push("alloc_bytes_per_interaction", bytes / served, "B");
    report.push("peak_rss_mib", alloc::peak_rss_mib()?, "MiB");
    report.push("setup_s", median(&setups), "s");
    report.push("sim_interactions_per_s", served / makespan, "1/sim_s");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_core::server::journal::CrashProfile;
    use trust_core::server::storage::DiskFaultProfile;

    /// Allocation counts around `run_parallel` for one seed repeat exactly
    /// at a fixed worker count, at 1 and at 2 workers. This is the only
    /// test in the binary, so no other test thread allocates meanwhile.
    #[test]
    fn allocation_counts_repeat_exactly_per_worker_count() {
        for workers in [1, 2] {
            let cfg = ParallelConfig {
                touches: 3,
                loss: 0.10,
                crash: Some(CrashProfile::uniform(0.01)),
                disk: Some(DiskFaultProfile::uniform(0.01)),
                ..ParallelConfig::new(0x5EED, 8, 4, workers)
            };
            black_box(run_parallel(&warmup_config(&cfg)));
            let counts: Vec<AllocCount> = (0..3)
                .map(|_| {
                    let before = AllocCount::now();
                    let run = run_parallel(&cfg);
                    let heap = before.elapsed();
                    drop(run);
                    heap
                })
                .collect();
            assert!(counts[0].allocs > 0);
            assert_eq!(counts[0], counts[1], "workers={workers}");
            assert_eq!(counts[1], counts[2], "workers={workers}");
        }
    }
}
