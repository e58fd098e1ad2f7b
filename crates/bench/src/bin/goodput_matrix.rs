//! The goodput matrix: pipelined window ablation under loss patterns.
//!
//! Sweeps RetryPolicy x window size x loss pattern through the
//! event-driven windowed engine and reports, per cell: sessions
//! completed, interactions served, selective retransmits, replays
//! accepted (must stay 0), goodput (served interactions per simulated
//! second), and the speedup over the window-1 stop-and-wait baseline of
//! the same policy and loss pattern. A lock-step `run_session` row rides
//! along per pattern as the non-event-loop reference.
//!
//! ```sh
//! cargo run -p btd-bench --bin goodput_matrix            # smoke table
//! cargo run -p btd-bench --bin goodput_matrix -- --full  # full ablation
//! cargo run -p btd-bench --bin goodput_matrix -- --json  # canonical JSON
//! ```
//!
//! The `--json` output is deterministic and is checked in as
//! `BENCH_goodput.json`; `scripts/check.sh` re-runs it and diffs, so a
//! protocol change that moves goodput must re-bless the file.

use btd_bench::report::{banner, Table};
use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::metrics::RetryPolicy;
use trust_core::scenario::World;

const DOMAIN: &str = "www.xyz.com";
const SESSIONS: u64 = 4;
const TOUCHES: usize = 24;
const WINDOWS: [u64; 4] = [1, 4, 8, 16];

fn policies(full: bool) -> Vec<(&'static str, RetryPolicy)> {
    let mut out = vec![("default", RetryPolicy::default())];
    if full {
        out.push((
            "impatient",
            RetryPolicy {
                max_attempts: 6,
                timeout: btd_sim::time::SimDuration::from_millis(150),
                backoff_base: btd_sim::time::SimDuration::from_millis(25),
                backoff_cap: btd_sim::time::SimDuration::from_secs(5),
            },
        ));
    }
    out
}

fn patterns(full: bool) -> Vec<(&'static str, Adversary)> {
    let mut out = vec![
        ("none", Adversary::None),
        ("random-0.10", Adversary::RandomLoss { loss: 0.10 }),
    ];
    if full {
        out.push((
            "burst-0.05x3",
            Adversary::BurstLoss {
                start: 0.05,
                burst: 3,
            },
        ));
        out.push((
            "reorder-5x200",
            Adversary::Reorderer {
                period: 5,
                extra_ms: 200,
            },
        ));
    }
    out
}

#[derive(Default)]
struct Cell {
    completed: u64,
    served: u64,
    retries: u64,
    replays_accepted: u64,
    elapsed_nanos: u128,
}

impl Cell {
    fn goodput(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.served as f64 / (self.elapsed_nanos as f64 / 1e9)
        }
    }
}

fn cell_seed(pi: usize, li: usize, window: u64, session: u64) -> u64 {
    1 + session * 1009 + pi as u64 * 131_071 + li as u64 * 8191 + window * 127
}

/// Provisions a registered, logged-in world, or `None` when the channel
/// ate the bounded setup handshakes (the next seed is tried instead:
/// setup is not what this bench measures).
fn setup(
    policy: &RetryPolicy,
    adversary: &Adversary,
    window: u64,
    seed: u64,
) -> Option<(World, usize, SimRng)> {
    let mut rng = SimRng::seed_from(seed);
    let mut world = World::with_adversary(adversary.clone(), &mut rng);
    world.policy = *policy;
    world.add_server(DOMAIN, &mut rng);
    let device = world.add_device("phone-1", 7, &mut rng);
    world.register(device, DOMAIN, "alice", &mut rng).ok()?;
    if window == 0 {
        world.login(device, DOMAIN, &mut rng).ok()?;
    } else {
        world
            .login_windowed(device, DOMAIN, window, &mut rng)
            .ok()?;
    }
    Some((world, device, rng))
}

fn run_cell(
    policy: &RetryPolicy,
    adversary: &Adversary,
    window: u64,
    pi: usize,
    li: usize,
) -> Cell {
    let mut cell = Cell::default();
    let mut ran = 0u64;
    for session in 0.. {
        let seed = cell_seed(pi, li, window, session);
        let Some((mut world, device, mut rng)) = setup(policy, adversary, window, seed) else {
            continue;
        };
        let report = world
            .run_windowed_session(device, DOMAIN, TOUCHES, window, &mut rng)
            .expect("windowed session");
        cell.completed += u64::from(report.completed);
        cell.served += report.served;
        cell.retries += report.metrics.retries;
        cell.replays_accepted += report.metrics.replays_accepted;
        cell.elapsed_nanos += u128::from(report.elapsed.as_nanos());
        ran += 1;
        if ran == SESSIONS {
            break;
        }
    }
    cell
}

/// The lock-step `run_session` reference for a loss pattern: no event
/// timeline, so it contributes served/retry counts and RTT quantiles. It
/// runs on the window-1 row's seeds, so the two rows face the same loss
/// pattern and differ only in the protocol driver.
fn run_lockstep(
    policy: &RetryPolicy,
    adversary: &Adversary,
    pi: usize,
    li: usize,
) -> (Cell, String) {
    let mut cell = Cell::default();
    let mut latency = trust_core::metrics::LatencyHistogram::default();
    let mut ran = 0u64;
    for session in 0.. {
        let seed = cell_seed(pi, li, 1, session);
        let Some((mut world, device, mut rng)) = setup(policy, adversary, 0, seed) else {
            continue;
        };
        // A lock-step session that exhausts its retry budget mid-run is
        // an incomplete session, not a bench failure: stop-and-wait has
        // no re-arm rounds, and that fragility is part of the comparison.
        if let Ok(report) = world.run_session(device, DOMAIN, TOUCHES, &mut rng) {
            cell.completed += 1;
            cell.served += report.served;
            cell.retries += report.metrics.retries;
            cell.replays_accepted += report.metrics.replays_accepted;
            latency.merge(&report.metrics.interaction);
        }
        ran += 1;
        if ran == SESSIONS {
            break;
        }
    }
    let p50 = latency
        .quantile(0.50)
        .map(|d| format!("{}", d.as_millis()))
        .unwrap_or_else(|| "-".into());
    (cell, p50)
}

/// The canonical deterministic JSON document (the blessed bytes).
fn json_output(rows: &[String], full: bool) -> String {
    format!(
        "{{\n  \"bench\": \"goodput_matrix\",\n  \"mode\": \"{}\",\n  \
         \"sessions_per_cell\": {SESSIONS},\n  \"touches_per_session\": {TOUCHES},\n  \
         \"cells\": [\n    {}\n  ]\n}}",
        if full { "full" } else { "smoke" },
        rows.join(",\n    "),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let json = args.iter().any(|a| a == "--json");

    let mut table = Table::new([
        "policy",
        "loss",
        "window",
        "completed",
        "served",
        "retries",
        "replays accepted",
        "goodput/s",
        "vs w=1",
    ]);
    let mut rows = Vec::new();

    for (pi, (pname, policy)) in policies(full).iter().enumerate() {
        for (li, (lname, adversary)) in patterns(full).iter().enumerate() {
            let (lockstep, p50) = run_lockstep(policy, adversary, pi, li);
            table.row([
                (*pname).to_string(),
                (*lname).to_string(),
                "lock-step".into(),
                format!("{}/{SESSIONS}", lockstep.completed),
                lockstep.served.to_string(),
                lockstep.retries.to_string(),
                lockstep.replays_accepted.to_string(),
                format!("p50 {p50} ms"),
                "-".into(),
            ]);
            rows.push(format!(
                "{{\"policy\":\"{pname}\",\"loss\":\"{lname}\",\"window\":0,\
                 \"completed\":{},\"served\":{},\"retries\":{},\
                 \"replays_accepted\":{},\"goodput_per_s\":null}}",
                lockstep.completed, lockstep.served, lockstep.retries, lockstep.replays_accepted,
            ));

            let mut baseline = None;
            for window in WINDOWS {
                let cell = run_cell(policy, adversary, window, pi, li);
                assert_eq!(
                    cell.replays_accepted, 0,
                    "in-window duplicate detection must hold in every cell"
                );
                let goodput = cell.goodput();
                if window == 1 {
                    baseline = Some(goodput);
                }
                let speedup = baseline
                    .filter(|b| *b > 0.0)
                    .map(|b| goodput / b)
                    .unwrap_or(0.0);
                if *lname == "random-0.10" && window >= 4 {
                    assert!(
                        speedup >= 2.0,
                        "window {window} must at least double stop-and-wait \
                         goodput under 10% random loss (got {speedup:.3}x)"
                    );
                }
                table.row([
                    (*pname).to_string(),
                    (*lname).to_string(),
                    window.to_string(),
                    format!("{}/{SESSIONS}", cell.completed),
                    cell.served.to_string(),
                    cell.retries.to_string(),
                    cell.replays_accepted.to_string(),
                    format!("{goodput:.3}"),
                    format!("{speedup:.2}x"),
                ]);
                rows.push(format!(
                    "{{\"policy\":\"{pname}\",\"loss\":\"{lname}\",\"window\":{window},\
                     \"completed\":{},\"served\":{},\"retries\":{},\
                     \"replays_accepted\":{},\"goodput_per_s\":{goodput:.3},\
                     \"speedup_vs_w1\":{speedup:.3}}}",
                    cell.completed, cell.served, cell.retries, cell.replays_accepted,
                ));
            }
        }
    }

    if json {
        println!("{}", json_output(&rows, full));
        return;
    }

    banner("goodput matrix: retry policy x window x loss pattern");
    table.print();
    println!(
        "\nEvery engine cell drives {SESSIONS} sessions of {TOUCHES} pipelined \
         interactions on the deterministic event timeline; goodput is served \
         interactions per simulated second, and window 1 is the stop-and-wait \
         baseline the speedup column divides by."
    );
}
