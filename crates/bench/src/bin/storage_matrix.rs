//! The storage matrix: account volume x shard count over log-structured
//! segmented storage.
//!
//! Sweeps synthesized account volume against shard count and reports, per
//! cell: journal footprint before and after checkpoint compaction, sealed
//! segment counts, snapshot size, and — the headline — records replayed by
//! a cold recovery (the full history) versus a warm recovery after
//! compaction (near zero). Recovery work is O(live state), not O(history):
//! the warm column stays flat as the appended history grows.
//!
//! Records are synthesized `Registered` entries appended straight to the
//! shard journals with a group-commit `sync` every `BATCH` appends,
//! bypassing the crypto handshakes — this binary measures the storage
//! engine, not Schnorr.
//!
//! ```sh
//! cargo run -p btd-bench --bin storage_matrix            # smoke table
//! cargo run -p btd-bench --bin storage_matrix -- --full  # adds the 100k row
//! cargo run -p btd-bench --bin storage_matrix -- --json  # canonical JSON
//! ```
//!
//! Standard output is deterministic: the recovery timings and the crc32
//! throughput are wall-clock and go to standard error. The `--json` output
//! (counts and byte sizes only) is checked in as `BENCH_storage.json`;
//! `scripts/check.sh` re-runs it and diffs, so a storage-format change
//! that moves footprint or replay counts must re-bless the file.

use std::time::Instant;

use btd_bench::report::{banner, Table};
use btd_crypto::nonce::Nonce;
use btd_crypto::sha256::sha256;
use btd_sim::rng::SimRng;
use trust_core::scenario::World;
use trust_core::server::journal::{crc32, crc32_reference, JournalRecord};
use trust_core::server::storage::DiskFaultProfile;

const DOMAIN: &str = "www.xyz.com";
/// Appends between group-commit sync barriers, per shard.
const BATCH: usize = 64;
/// Segment rotation target: small enough that every cell seals segments.
const SEGMENT_TARGET: usize = 256 * 1024;

/// One synthesized registration bound for `account`. Every account reuses
/// `public_key` (a real group element — `apply_record` validates
/// membership) so the cell pays for storage, not for 100k key
/// generations; the account, nonce, password, and frame hash still vary.
fn synth_record(account: &str, i: u64, public_key: &[u8]) -> JournalRecord {
    let tag = sha256(account.as_bytes());
    let mut nonce = [0u8; 16];
    nonce[..8].copy_from_slice(&i.to_be_bytes());
    nonce[8..].copy_from_slice(&(!i).to_be_bytes());
    JournalRecord::Registered {
        account: account.into(),
        public_key: public_key.to_vec(),
        reset_password: format!("reset-{i}"),
        nonce: Nonce(nonce),
        signature: vec![0x5a; 512],
        frame_hash: tag,
    }
}

struct Row {
    accounts: usize,
    shards: usize,
    journal_bytes_before: usize,
    segments_sealed: usize,
    cold_replayed: usize,
    cold_ms: f64,
    journal_bytes_after: usize,
    snapshot_bytes: usize,
    warm_replayed: usize,
    warm_ms: f64,
}

fn run_cell(accounts: usize, shards: usize, seed: u64) -> Row {
    let mut rng = SimRng::seed_from(seed);
    let mut world = World::new(&mut rng);
    let sidx = world.add_server_with_storage(
        DOMAIN,
        shards,
        DiskFaultProfile::uniform(0.0),
        None,
        SEGMENT_TARGET,
        seed ^ 0x570A,
        &mut rng,
    );
    let server = world.server_mut(sidx);
    let public_key = server.public_key().to_bytes();

    // Populate: journal-then-apply, exactly like the live handlers, with
    // a group-commit barrier every BATCH appends per shard.
    let mut pending = vec![0usize; shards];
    for i in 0..accounts as u64 {
        let account = format!("acct-{i}");
        let rec = synth_record(&account, i, &public_key);
        let idx = server.shard_for(&account);
        server.journal_mut(idx).append(&rec);
        server.apply_record(&rec);
        pending[idx] += 1;
        if pending[idx] >= BATCH {
            server.journal_mut(idx).sync().expect("faultless sync");
            pending[idx] = 0;
        }
    }
    for idx in 0..shards {
        server.journal_mut(idx).sync().expect("final sync");
    }
    assert_eq!(server.account_count(), accounts);

    let journal_bytes_before = server.journal_bytes();
    let segments_sealed: usize = (0..shards)
        .map(|i| server.journal(i).segment_count().saturating_sub(1))
        .sum();
    let digest = server.state_digest();

    // Cold recovery replays the entire appended history.
    let started = Instant::now();
    let cold = server.recover_in_place(&mut rng);
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.records_skipped(), 0, "faultless storage loses nothing");
    assert_eq!(cold.quarantined_shards(), 0);
    let server = world.server_mut(sidx);
    assert_eq!(
        server.state_digest(),
        digest,
        "cold recovery reproduces state"
    );

    // Checkpoint: fold the history into per-shard snapshots.
    server.compact_journal();
    let journal_bytes_after = server.journal_bytes();
    let snapshot_bytes: usize = (0..shards).map(|i| server.journal(i).snapshot_len()).sum();

    // Warm recovery restores the snapshot and replays only what landed
    // after it — nothing did, so the replay column must collapse.
    let started = Instant::now();
    let warm = server.recover_in_place(&mut rng);
    let warm_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm.records_skipped(), 0);
    let server = world.server_mut(sidx);
    assert_eq!(
        server.state_digest(),
        digest,
        "warm recovery reproduces state"
    );
    assert!(
        warm.records_replayed() < accounts / 10 + BATCH,
        "post-snapshot replay must be O(live state), not O(history)"
    );

    Row {
        accounts,
        shards,
        journal_bytes_before,
        segments_sealed,
        cold_replayed: cold.records_replayed(),
        cold_ms,
        journal_bytes_after,
        snapshot_bytes,
        warm_replayed: warm.records_replayed(),
        warm_ms,
    }
}

/// Checksum throughput: the slice-by-4 table walk vs the bitwise
/// reference it replaced, over the same buffer.
fn crc_throughput() -> (f64, f64) {
    let buf: Vec<u8> = (0..4 * 1024 * 1024u32)
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let mb = buf.len() as f64 / (1024.0 * 1024.0);
    let started = Instant::now();
    let fast = crc32(&buf);
    let fast_mbps = mb / started.elapsed().as_secs_f64();
    let started = Instant::now();
    let slow = crc32_reference(&buf);
    let slow_mbps = mb / started.elapsed().as_secs_f64();
    assert_eq!(fast, slow, "the two CRC implementations must agree");
    (fast_mbps, slow_mbps)
}

/// The canonical deterministic JSON document (the blessed bytes).
fn json_output(rows: &[String]) -> String {
    format!(
        "{{\n  \"bench\": \"storage_matrix\",\n  \"batch\": {BATCH},\n  \
         \"segment_target\": {SEGMENT_TARGET},\n  \"cells\": [\n    {}\n  ]\n}}",
        rows.join(",\n    "),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let json = args.iter().any(|a| a == "--json");

    let mut accounts = vec![1_000usize, 10_000];
    if full || json {
        accounts.push(100_000);
    }
    let shard_counts = [4usize, 16];

    let mut table = Table::new([
        "accounts",
        "shards",
        "journal MB",
        "sealed segs",
        "cold replay",
        "compacted MB",
        "snapshot MB",
        "warm replay",
    ]);
    let mut wall = Table::new(["accounts", "shards", "cold ms", "warm ms"]);
    let mut rows = Vec::new();

    for &n in &accounts {
        for &shards in &shard_counts {
            let row = run_cell(n, shards, 0xBEEF + n as u64 * 7 + shards as u64);
            table.row([
                row.accounts.to_string(),
                row.shards.to_string(),
                format!("{:.2}", row.journal_bytes_before as f64 / 1e6),
                row.segments_sealed.to_string(),
                row.cold_replayed.to_string(),
                format!("{:.2}", row.journal_bytes_after as f64 / 1e6),
                format!("{:.2}", row.snapshot_bytes as f64 / 1e6),
                row.warm_replayed.to_string(),
            ]);
            wall.row([
                row.accounts.to_string(),
                row.shards.to_string(),
                format!("{:.1}", row.cold_ms),
                format!("{:.1}", row.warm_ms),
            ]);
            rows.push(format!(
                "{{\"accounts\":{},\"shards\":{},\"journal_bytes_before\":{},\
                 \"segments_sealed\":{},\"records_replayed_cold\":{},\
                 \"journal_bytes_after\":{},\"snapshot_bytes\":{},\
                 \"records_replayed_warm\":{}}}",
                row.accounts,
                row.shards,
                row.journal_bytes_before,
                row.segments_sealed,
                row.cold_replayed,
                row.journal_bytes_after,
                row.snapshot_bytes,
                row.warm_replayed,
            ));
        }
    }

    if json {
        println!("{}", json_output(&rows));
        return;
    }

    banner("storage matrix: accounts x shards over segmented storage");
    table.print();
    println!(
        "\nEach cell appends its synthesized registrations with a sync barrier \
         every {BATCH} records, recovers cold (replaying the full history), \
         checkpoints, and recovers warm: the warm replay column is the \
         O(live-state) claim — snapshot restore plus only the records that \
         landed after the checkpoint. Recovery times and crc32 throughput \
         are wall-clock and go to standard error."
    );
    eprint!("\nrecovery wall clock, this machine:\n{}", wall.render());
    let (fast_mbps, slow_mbps) = crc_throughput();
    eprintln!(
        "\nframe crc32: slice-by-4 {fast_mbps:.0} MB/s vs bitwise reference \
         {slow_mbps:.0} MB/s ({:.1}x); identical digests on a 4 MiB buffer.",
        fast_mbps / slow_mbps
    );
}
