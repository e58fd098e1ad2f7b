//! Trace-driven postmortem for a chaos run.
//!
//! Replays a small shard-parallel fleet under loss and crash injection
//! with a fixed seed ([`trust_core::parallel::run_parallel`]), prints one
//! indented timeline per account from the merged trace (every span,
//! fault, retry, crash, and recovery in total order), and then
//! cross-checks the trace against the live counters:
//! [`trust_core::trace::derive_metrics`] re-derives the whole fleet's
//! `ProtocolMetrics` from trace events alone and must match the fleet's
//! live accounting exactly. Exits non-zero on any disagreement, so CI can
//! pin the trace/metrics consistency contract.
//!
//! ```sh
//! cargo run -p btd-bench --bin trace_explain -- [seed]
//! ```

use btd_bench::report::banner;
use trust_core::parallel::{run_parallel, ParallelConfig};
use trust_core::server::journal::CrashProfile;
use trust_core::trace::{TraceEvent, TraceQuery};

const ACCOUNTS: usize = 3;
const SHARDS: usize = 2;
const TOUCHES: usize = 6;
const LOSS: f64 = 0.05;
const CRASH_PROB: f64 = 0.1;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(7);
    banner(&format!("trace explain: chaos postmortem, seed {seed}"));

    let run = run_parallel(&ParallelConfig {
        touches: TOUCHES,
        loss: LOSS,
        crash: Some(CrashProfile::uniform(CRASH_PROB)),
        ..ParallelConfig::new(seed, ACCOUNTS, SHARDS, 1)
    });

    let events: Vec<TraceEvent> = run.merged.iter().map(|(_, e)| e.event.clone()).collect();
    let query = TraceQuery::new(&events);
    for account in query.accounts() {
        println!("--- timeline: {account} ---");
        print!("{}", query.render_timeline(account));
        println!();
    }

    println!(
        "{} trace events; fleet served {} interactions across {} crash(es).",
        events.len(),
        run.total_served(),
        run.shard_runs.iter().map(|r| r.crashes).sum::<u64>()
    );

    let derived = run.derived_metrics();
    let live = run.fleet_metrics();
    if derived == live {
        println!("trace-derived metrics match the live counters exactly.");
    } else {
        eprintln!(
            "MISMATCH between trace-derived metrics and live counters\n\
             derived: {derived:?}\n\
             live:    {live:?}"
        );
        std::process::exit(1);
    }
}
