//! The traced run: spans around the public calls of each layer on the
//! Fig. 10 path, and the layer counters, reported as per-layer metrics.
//! It runs separately from the timed runs and checks its outputs too.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use trust_core::parallel::{run_parallel, run_shard, ParallelConfig, ParallelRun};

use crate::calls;
use crate::probes;
use crate::report::{median, Report};
use crate::spans::Recorder;
use crate::stage;
use crate::timed::{check_run, warmup_config};
use crate::workload::Workload;

/// Every span name the traced run reports, grouped by level.
pub const SPAN_NAMES: [&str; 26] = [
    // Shard level.
    "parallel.run_shard",
    "parallel.merge",
    "trace.export_jsonl",
    // Stage level.
    "scenario.add_server",
    "scenario.add_device",
    "chaos.register",
    "chaos.login",
    "chaos.interact",
    "chaos.close",
    // Call level.
    "server.hello",
    "device.begin_registration",
    "server.handle_registration",
    "device.begin_login",
    "server.handle_login",
    "device.observe_touch",
    "device.build_interaction",
    "server.handle_interaction",
    "device.accept_content",
    "server.close_session",
    // Probes.
    "sensor.capture",
    "fingerprint.verify",
    "crypto.pow_mod",
    "crypto.schnorr_sign",
    "crypto.schnorr_verify",
    "crypto.hmac_sha256",
    "server.recover_in_place",
];

/// Share of the traced window the stage spans must cover.
const MIN_STAGE_COVERAGE: f64 = 0.90;

/// Untraced runs at each of 1 and 2 workers for the speed-up, at least;
/// more are made until the run's seconds are spent.
const SPEEDUP_REPS: usize = 2;

fn is_stage(name: &str) -> bool {
    name.starts_with("chaos.") || name.starts_with("scenario.add_")
}

/// Runs the traced passes of `workload` for `seed`, then compares 1 and 2
/// workers until `seconds` have passed; writes the spans as JSON Lines
/// into `spans_dir` when given.
///
/// # Errors
///
/// Fails if a span never fired or the spans cannot be written.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    spans_dir: Option<&Path>,
) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let cfg = workload.configs(seed).swap_remove(0);
    let accounts = cfg.accounts as u64;
    let mut rec = Recorder::new();
    let mut report = Report::default();
    black_box(run_parallel(&warmup_config(&cfg)));

    // Shard level: the public shard runner, the merge and the export.
    let mut shard_runs = Vec::with_capacity(cfg.shards);
    let mut shard_ns = Vec::with_capacity(cfg.shards);
    for s in 0..cfg.shards {
        let id = rec.open("parallel.run_shard", None);
        shard_runs.push(run_shard(&cfg, s));
        rec.close(id);
        shard_ns.push(rec.spans()[id].duration_ns() as f64);
    }
    let run = rec.time("parallel.merge", None, || {
        ParallelRun::merge(cfg.clone(), shard_runs)
    });
    black_box(rec.time("trace.export_jsonl", None, || run.export_jsonl()));
    let mut expected = None;
    report.check(accounts, check_run(&run, &mut expected));
    let served = run.total_served().max(1) as f64;
    let fleet = run.fleet_metrics();

    // Stage level, then the call-level sample: the traced window. The
    // stage level alone does the shard level's work on the same thread, one
    // span per step instead of one per shard, so the two give the tracing
    // overhead.
    let window = Instant::now();
    let mut shards = Vec::with_capacity(cfg.shards);
    for reference in &run.shard_runs {
        let s = reference.shard;
        let events = run.merged.iter().filter(|(sh, _)| *sh == s).count();
        let checked = stage::drive_shard(&cfg, s, &mut rec).and_then(|st| {
            if (st.digest, st.served, st.events) == (reference.digest, reference.served, events) {
                Ok(st)
            } else {
                Err(format!("stage-level shard {s} diverged from run_shard"))
            }
        });
        match checked {
            Ok(st) => {
                report.check(reference.accounts as u64, Ok(()));
                shards.push(st);
            }
            Err(e) => report.check(reference.accounts as u64, Err(e)),
        }
    }
    let stage_s = window.elapsed().as_secs_f64();
    report.check(calls::SAMPLE as u64, calls::drive_sample(&cfg, &mut rec));
    let traced_s = window.elapsed().as_secs_f64();
    let stage_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && is_stage(s.name))
        .map(|s| s.duration_ns())
        .sum();
    let coverage = stage_ns as f64 / 1e9 / traced_s;
    report.check(
        1,
        if coverage >= MIN_STAGE_COVERAGE {
            Ok(())
        } else {
            Err(format!(
                "stage spans cover only {:.1}% of the traced window",
                coverage * 100.0
            ))
        },
    );

    let journal_bytes: usize = shards
        .iter()
        .map(|sh| sh.world.server(sh.server).journal_bytes())
        .sum();
    let (mut verified, mut touched) = (0u64, 0u64);
    for sh in &shards {
        for &d in &sh.devices {
            let stats = sh.world.device(d).flock().auth().stats();
            verified += stats.verified;
            touched += stats.touches;
        }
    }

    // Probes, after the run, on what it left behind.
    let probe_ops = shards.iter().map(|sh| sh.probe_touches.len() as u64).sum();
    report.check(probe_ops, probes::run(&mut shards, seed, &mut rec));

    // Untraced wall clock at 1 and 2 workers, alternating which goes first.
    let mut walls = [Vec::new(), Vec::new()];
    let mut rep = 0;
    while rep < SPEEDUP_REPS || Instant::now() < deadline {
        rep += 1;
        for k in [rep % 2, 1 - rep % 2] {
            let c = ParallelConfig {
                workers: k + 1,
                ..cfg.clone()
            };
            let start = Instant::now();
            let r = run_parallel(&c);
            walls[k].push(start.elapsed().as_secs_f64());
            report.check(accounts, check_run(&r, &mut expected));
        }
    }

    let stats = rec.stats();
    for name in SPAN_NAMES {
        let s = stats
            .get(name)
            .ok_or_else(|| format!("span {name} was never recorded"))?;
        report.push(format!("{name}.count"), s.count as f64, "count");
        report.push(format!("{name}.p50_us"), s.p50_us, "us");
        report.push(format!("{name}.p99_us"), s.p99_us, "us");
        report.push(format!("{name}.self_ms"), s.self_ms, "ms");
    }
    let shard_mean = shard_ns.iter().sum::<f64>() / shard_ns.len() as f64;
    let shard_max = shard_ns.iter().copied().fold(0.0, f64::max);
    report.push(
        "trace.events_per_interaction",
        run.merged.len() as f64 / served,
        "count",
    );
    report.push("trace.stage_coverage", coverage, "ratio");
    report.push(
        "channel.sends_per_interaction",
        fleet.sends as f64 / served,
        "count",
    );
    report.push(
        "channel.retries_per_interaction",
        fleet.retries as f64 / served,
        "count",
    );
    report.push(
        "channel.useful_ratio",
        served / fleet.sends.max(1) as f64,
        "ratio",
    );
    report.push(
        "journal.bytes_per_interaction",
        journal_bytes as f64 / served,
        "B",
    );
    report.push(
        "flock.verified_ratio",
        verified as f64 / touched.max(1) as f64,
        "ratio",
    );
    report.push("parallel.shard_imbalance", shard_max / shard_mean, "ratio");
    report.push(
        "parallel.wall_speedup",
        median(&walls[0]) / median(&walls[1]),
        "ratio",
    );
    report.push(
        "parallel.modeled_speedup",
        run.makespan(1).as_secs_f64() / run.makespan(2).as_secs_f64(),
        "ratio",
    );
    report.push(
        "chaos.interact_allocs_p50",
        stats["chaos.interact"].allocs_p50,
        "count",
    );
    report.push(
        "chaos.register_allocs_p50",
        stats["chaos.register"].allocs_p50,
        "count",
    );
    report.push(
        "tracing_overhead_pct",
        100.0 * (stage_s / (shard_ns.iter().sum::<f64>() / 1e9) - 1.0),
        "%",
    );

    if let Some(dir) = spans_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-{seed}.jsonl", workload.name()));
        rec.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(report)
}
