//! Golden pin of the telemetry outputs: the SHA-256 of the series JSONL
//! export, of the rendered health report and of the folded span stacks,
//! for two fleet configs, folded into one `u64`.
//!
//! The pin is a refactoring guard: a change to how the sampler keeps its
//! counters, gauges and histograms must leave every exported byte, and so
//! this value, unchanged.

use btd_crypto::sha256::sha256;
use trust_core::parallel::{run_parallel, ParallelConfig, ParallelRun};
use trust_core::server::journal::CrashProfile;
use trust_core::server::storage::DiskFaultProfile;

/// The folded value at the time the pin was taken.
const GOLDEN: u64 = 0xa635_da4f_4572_f3df;

/// `fleet_top`'s config at 16 accounts.
fn fleet_top() -> ParallelConfig {
    ParallelConfig {
        touches: 6,
        loss: 0.03,
        crash: Some(CrashProfile::uniform(0.0005)),
        sample_interval: 4,
        ..ParallelConfig::new(0xF1EE7, 16, 8, 1)
    }
}

/// The loss + crash + disk-fault composition of `prop_telemetry`.
fn chaos() -> ParallelConfig {
    ParallelConfig {
        touches: 5,
        loss: 0.10,
        crash: Some(CrashProfile::uniform(0.02)),
        disk: Some(DiskFaultProfile {
            torn_append: 0.20,
            sync_fail: 0.20,
            bitrot_seal: 0.0,
        }),
        sample_interval: 3,
        ..ParallelConfig::new(0x7E1E, 16, 4, 1)
    }
}

/// FNV-1a over the three output digests of `run`.
fn fold(mut acc: u64, run: &ParallelRun) -> u64 {
    for text in [
        run.export_series_jsonl(),
        run.health_report().render(),
        run.span_profile().folded_stacks(),
    ] {
        for b in sha256(text.as_bytes()).as_bytes() {
            acc ^= u64::from(*b);
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

/// Fleet-wide `risk_verified_pct` counts at the end of the run: the sum
/// of each shard's final point.
fn final_risk_counts(run: &ParallelRun) -> Vec<u64> {
    let mut finals = std::collections::BTreeMap::new();
    for p in run.merged_series() {
        finals.insert(p.shard, p);
    }
    let mut counts = Vec::new();
    for p in finals.values() {
        let (_, c) = p.dist("risk_verified_pct").expect("risk histogram sampled");
        counts.resize(c.len(), 0);
        for (acc, v) in counts.iter_mut().zip(c) {
            *acc += v;
        }
    }
    counts
}

#[test]
fn telemetry_outputs_match_the_golden_pin() {
    let mut acc = 0xcbf2_9ce4_8422_2325;
    for cfg in [fleet_top(), chaos()] {
        let run = run_parallel(&cfg);
        let risk = final_risk_counts(&run);
        assert!(
            risk.iter().filter(|c| **c > 0).count() >= 2,
            "risk histogram too sparse to pin its hook: {risk:?}"
        );
        acc = fold(acc, &run);
    }
    assert_eq!(acc, GOLDEN, "telemetry outputs drifted: {acc:#018x}");
}
