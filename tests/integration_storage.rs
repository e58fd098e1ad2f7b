//! Disk-fault tolerance, end to end: the server journals onto
//! log-structured segmented storage whose simulated disk tears appends,
//! fails syncs, rots sealed segments, and runs out of space — composed
//! with the crash-fault schedule and a lossy network.
//!
//! The headline matrix: crash probabilities up to 0.2 per exchange point,
//! 10% message loss, and a seeded disk-fault schedule (torn appends +
//! transient sync failures), 100 lifecycles, every one completing every
//! interaction exactly once with zero replays accepted. Bit-rot and
//! capacity exhaustion are exercised surgically: a rotted seal quarantines
//! exactly its shard with per-skip accounting, and a filling log partition
//! sheds registrations while existing sessions keep working.

use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::messages::Reject;
use trust_core::registration::FlowError;
use trust_core::server::journal::CrashProfile;
use trust_core::server::storage::DiskFaultProfile;
use trust_core::World;

const DOMAIN: &str = "www.xyz.com";
const TOUCHES: usize = 10;

/// Generous log partition: capacity pressure never trips degraded mode in
/// the composed matrix (capacity faults get their own surgical test).
const ROOMY: Option<usize> = Some(1 << 20);

fn storage_chaos_run(
    seed: u64,
    crash_prob: f64,
    loss: f64,
    disk: DiskFaultProfile,
) -> (trust_core::chaos::ChaosReport, btd_crypto::sha256::Digest) {
    let mut rng = SimRng::seed_from(seed);
    let mut world = World::with_adversary(Adversary::RandomLoss { loss }, &mut rng);
    let sidx = world.add_server_with_storage(DOMAIN, 4, disk, ROOMY, 4096, seed ^ 0xD15C, &mut rng);
    let device = world.add_device("phone-1", 7, &mut rng);
    let report = world
        .run_chaos_lifecycle(
            device,
            DOMAIN,
            "alice",
            TOUCHES,
            CrashProfile::uniform(crash_prob),
            &mut rng,
        )
        .expect("chaos lifecycle over faulty storage runs to completion");
    (report, world.server(sidx).state_digest())
}

/// Torn appends and transient sync failures are the recoverable disk
/// faults a crashing server composes with; bit-rot is excluded here
/// because certified corruption is *supposed* to end in quarantine.
fn recoverable_faults() -> DiskFaultProfile {
    DiskFaultProfile {
        torn_append: 0.5,
        sync_fail: 0.05,
        bitrot_seal: 0.0,
    }
}

#[test]
fn storage_chaos_matrix_every_session_completes_with_zero_replays() {
    let mut total_crashes = 0;
    let mut completed = 0;
    let mut runs = 0;
    for crash_prob in [0.05, 0.10, 0.15, 0.20] {
        for seed in 1..=25u64 {
            runs += 1;
            let (report, _) = storage_chaos_run(
                seed * 31 + (crash_prob * 1000.0) as u64,
                crash_prob,
                0.10,
                recoverable_faults(),
            );
            assert_eq!(
                report.attempted, TOUCHES as u64,
                "seed {seed} prob {crash_prob}: every touch attempted"
            );
            assert!(
                report.completed,
                "seed {seed} prob {crash_prob}: served {}/{} rejects {:?}",
                report.served, report.attempted, report.rejects
            );
            assert_eq!(
                report.metrics.replays_accepted, 0,
                "seed {seed} prob {crash_prob}: torn tails must lose only unacknowledged records"
            );
            assert_eq!(report.audit_mismatches, 0, "seed {seed} prob {crash_prob}");
            assert_eq!(
                report.quarantined_shards, 0,
                "recoverable faults never quarantine"
            );
            total_crashes += report.crashes;
            completed += u64::from(report.completed);
        }
    }
    assert_eq!(completed, runs, "all {runs} lifecycles complete");
    assert!(
        total_crashes > 50,
        "the matrix actually exercised crashes (saw {total_crashes})"
    );
}

#[test]
fn same_seed_storage_chaos_runs_are_byte_identical() {
    let (a, digest_a) = storage_chaos_run(42, 0.2, 0.10, recoverable_faults());
    let (b, digest_b) = storage_chaos_run(42, 0.2, 0.10, recoverable_faults());
    assert_eq!(
        digest_a, digest_b,
        "durable server state is bit-for-bit reproducible under disk faults"
    );
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "the whole report — crashes, skips, retries, latency — reproduces"
    );
}

#[test]
fn every_crash_point_composes_with_every_recoverable_fault_kind() {
    // Each crash point in isolation (probability concentrated on one
    // point) composed with each recoverable disk-fault arm: the lifecycle
    // completes exactly-once, and recovering the finished server's
    // journals reproduces its live state digest.
    let points = [
        CrashProfile {
            before_append: 0.25,
            after_append: 0.0,
            before_reply: 0.0,
        },
        CrashProfile {
            before_append: 0.0,
            after_append: 0.25,
            before_reply: 0.0,
        },
        CrashProfile {
            before_append: 0.0,
            after_append: 0.0,
            before_reply: 0.25,
        },
    ];
    let faults = [
        DiskFaultProfile {
            torn_append: 0.8,
            sync_fail: 0.0,
            bitrot_seal: 0.0,
        },
        DiskFaultProfile {
            torn_append: 0.0,
            sync_fail: 0.4,
            bitrot_seal: 0.0,
        },
        DiskFaultProfile {
            torn_append: 0.5,
            sync_fail: 0.2,
            bitrot_seal: 0.0,
        },
    ];
    for (pi, crash) in points.iter().enumerate() {
        for (fi, disk) in faults.iter().enumerate() {
            for seed in 1..=5u64 {
                let mut rng = SimRng::seed_from(seed * 1009 + pi as u64 * 7 + fi as u64);
                let mut world =
                    World::with_adversary(Adversary::RandomLoss { loss: 0.10 }, &mut rng);
                let sidx =
                    world.add_server_with_storage(DOMAIN, 4, *disk, ROOMY, 4096, seed, &mut rng);
                let device = world.add_device("phone-1", 7, &mut rng);
                let report = world
                    .run_chaos_lifecycle(device, DOMAIN, "alice", TOUCHES, *crash, &mut rng)
                    .expect("lifecycle completes");
                assert!(
                    report.completed,
                    "point {pi} fault {fi} seed {seed}: rejects {:?}",
                    report.rejects
                );
                assert_eq!(
                    report.metrics.replays_accepted, 0,
                    "point {pi} fault {fi} seed {seed}"
                );

                // Digest equality: a recovery of the finished journals
                // lands exactly on the live state.
                let digest_live = world.server(sidx).state_digest();
                let rec = world.server_mut(sidx).recover_in_place(&mut rng);
                assert_eq!(rec.quarantined_shards(), 0, "point {pi} fault {fi}");
                assert_eq!(
                    world.server(sidx).state_digest(),
                    digest_live,
                    "point {pi} fault {fi} seed {seed}: recovered state diverges"
                );
            }
        }
    }
}

#[test]
fn rotted_seal_quarantines_exactly_its_shard_with_per_skip_accounting() {
    // bitrot_seal = 1.0 flips one seeded bit in every segment the moment
    // it is certified; a tiny segment target forces rotations so sealed
    // segments exist. Recovery must quarantine exactly alice's shard,
    // count the corrupt segments and the frames they lost, salvage
    // everything else, and serve reads while rejecting writes cleanly.
    let rot_everything = DiskFaultProfile {
        torn_append: 0.0,
        sync_fail: 0.0,
        bitrot_seal: 1.0,
    };
    let mut rng = SimRng::seed_from(31);
    let mut world = World::new(&mut rng);
    let sidx = world.add_server_with_storage(DOMAIN, 4, rot_everything, None, 256, 7, &mut rng);
    let device = world.add_device("phone-1", 7, &mut rng);
    world
        .register(device, DOMAIN, "alice", &mut rng)
        .expect("register");
    world.login(device, DOMAIN, &mut rng).expect("login");
    world
        .run_session(device, DOMAIN, TOUCHES, &mut rng)
        .expect("session");

    let shard = world.server(sidx).shard_for("alice");
    assert!(
        world.server(sidx).journal(shard).segment_count() > 1,
        "the tiny segment target must have forced rotations"
    );

    let report = world.server_mut(sidx).recover_in_place(&mut rng);
    assert!(
        report.shards[shard].quarantined,
        "certified corruption quarantines the shard"
    );
    assert!(
        !report.shards[shard].corrupt_segments.is_empty(),
        "the rotted seals are listed"
    );
    assert!(
        report.records_skipped() >= 1,
        "the frames the rot destroyed are counted, never silent"
    );
    assert_eq!(
        report.quarantined_shards(),
        1,
        "only alice's shard holds sealed segments; the others are clean"
    );
    assert!(world.server(sidx).is_quarantined(shard));

    // Writes to the quarantined shard are rejected conclusively (not a
    // crash, not silence): the operator sees `ShardQuarantined`.
    let err = world
        .server_mut(sidx)
        .reset_identity("alice", "whatever")
        .expect_err("mutations on a quarantined shard must be rejected");
    assert_eq!(err, Reject::ShardQuarantined);

    // The other shards keep serving writes: find an account that hashes
    // elsewhere and register it.
    let other = ["bob", "carol", "dave", "erin", "frank"]
        .into_iter()
        .find(|a| world.server(sidx).shard_for(a) != shard)
        .expect("some candidate lands on another shard");
    let device2 = world.add_device("phone-2", 8, &mut rng);
    world
        .register(device2, DOMAIN, other, &mut rng)
        .expect("healthy shards accept registrations while one is quarantined");
}

#[test]
fn full_log_partition_sheds_registrations_but_keeps_sessions_working() {
    // A small bounded log partition with no other faults: interactions
    // push pressure past the degraded threshold, new registrations are
    // shed with `StorageDegraded`, existing sessions keep being served,
    // and compaction (checkpointing into the reserved area) lifts the
    // degradation so registrations resume.
    let mut rng = SimRng::seed_from(5);
    let mut world = World::new(&mut rng);
    let sidx = world.add_server_with_storage(
        DOMAIN,
        1,
        DiskFaultProfile::uniform(0.0),
        Some(6 * 1024),
        1024,
        11,
        &mut rng,
    );
    let alice = world.add_device("phone-1", 7, &mut rng);
    world
        .register(alice, DOMAIN, "alice", &mut rng)
        .expect("register with a fresh log");
    world.login(alice, DOMAIN, &mut rng).expect("login");

    let mut entered = false;
    for _ in 0..200 {
        world
            .run_session(alice, DOMAIN, 1, &mut rng)
            .expect("interactions keep working while pressure builds");
        if world.server(sidx).is_degraded() {
            entered = true;
            break;
        }
    }
    assert!(entered, "the bounded partition must reach degraded mode");

    // Registrations grow live state permanently: shed them.
    let bob = world.add_device("phone-2", 8, &mut rng);
    let err = world
        .register(bob, DOMAIN, "bob", &mut rng)
        .expect_err("degraded mode sheds new registrations");
    assert!(
        matches!(err, FlowError::Server(Reject::StorageDegraded)),
        "got {err:?}"
    );

    // Existing sessions are bounded load: they keep working.
    world
        .run_session(alice, DOMAIN, 1, &mut rng)
        .expect("degraded mode sheds registrations, not interactions");

    // Checkpointing folds the log into the reserved area; the next sync
    // observes the freed partition and lifts degraded mode.
    world.server_mut(sidx).compact_journal();
    world
        .run_session(alice, DOMAIN, 1, &mut rng)
        .expect("post-compaction interaction");
    assert!(
        !world.server(sidx).is_degraded(),
        "pressure back under the exit threshold lifts degradation"
    );
    world
        .register(bob, DOMAIN, "bob", &mut rng)
        .expect("registrations resume once the partition has room");
}
