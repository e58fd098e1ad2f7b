//! The sharded server under many concurrent devices: per-account shard
//! routing, bounded resident state across session lifecycles, per-shard
//! recovery isolation, and the concurrent multi-device chaos sweep (one
//! world per shard, each interleaving several devices' lifecycles on its
//! server).

use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::parallel::{run_parallel, ParallelConfig, ParallelRun};
use trust_core::server::journal::CrashProfile;
use trust_core::server::WebServer;
use trust_core::trace::{DuplicateVerdict, EventKind, Outcome, SpanKind, TraceEvent, TraceQuery};
use trust_core::World;

const DOMAIN: &str = "www.xyz.com";
const SHARDS: usize = 4;
const DEVICES: usize = 8;
const TOUCHES: usize = 6;

fn account(i: usize) -> String {
    format!("user-{i}")
}

/// Builds a world with one `SHARDS`-shard server and `DEVICES` devices,
/// each owned by a distinct user.
fn sharded_world(adversary: Adversary, rng: &mut SimRng) -> (World, usize, Vec<usize>) {
    let mut world = World::with_adversary(adversary, rng);
    let sidx = world.add_server_with_shards(DOMAIN, SHARDS, rng);
    let devices = (0..DEVICES)
        .map(|i| world.add_device(&format!("phone-{i}"), 100 + i as u64, rng))
        .collect();
    (world, sidx, devices)
}

/// `DEVICES` lifecycles of `TOUCHES` touches spread over `SHARDS` shard
/// worlds under loss and crash injection. Every shard world hosts at
/// least two lifecycles, so devices still interleave on a shared server.
fn concurrent_chaos_run(seed: u64, crash_prob: f64, loss: f64) -> (ParallelRun, Vec<TraceEvent>) {
    let run = run_parallel(&ParallelConfig {
        touches: TOUCHES,
        loss,
        crash: Some(CrashProfile::uniform(crash_prob)),
        ..ParallelConfig::new(seed, DEVICES, SHARDS, 2)
    });
    for shard in &run.shard_runs {
        assert!(
            shard.accounts >= 2,
            "shard {} hosts {} lifecycle(s)",
            shard.shard,
            shard.accounts
        );
    }
    let events = run.merged.iter().map(|(_, e)| e.event.clone()).collect();
    (run, events)
}

/// Successful closes of `span`s matching `kind` in one account's slice.
fn successes(slice: &[&TraceEvent], kind: impl Fn(SpanKind) -> bool) -> usize {
    slice
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::SpanClose { span, outcome: Outcome::Success } if kind(span))
        })
        .count()
}

/// Renders the timelines of the accounts whose trace slice `pick` selects
/// — the evidence a failed assertion dumps so the postmortem starts there.
fn timelines_where(events: &[TraceEvent], pick: impl Fn(&[&TraceEvent]) -> bool) -> String {
    let q = TraceQuery::new(events);
    q.accounts()
        .into_iter()
        .filter(|a| pick(&q.by_account(a)))
        .map(|a| q.render_timeline(a))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn accounts_spread_over_shards_and_routing_is_in_range() {
    let mut rng = SimRng::seed_from(1);
    let (mut world, sidx, devices) = sharded_world(Adversary::None, &mut rng);
    for (i, &d) in devices.iter().enumerate() {
        world.register(d, DOMAIN, &account(i), &mut rng).unwrap();
    }
    let server = world.server(sidx);
    assert_eq!(server.shard_count(), SHARDS);
    assert_eq!(server.account_count(), DEVICES);
    let mut populated = [false; SHARDS];
    for i in 0..DEVICES {
        let shard = server.shard_for(&account(i));
        assert!(shard < SHARDS);
        populated[shard] = true;
        assert!(
            server.journal(shard).log_len() > 0,
            "the owning shard journaled the registration"
        );
    }
    assert!(
        populated.iter().filter(|p| **p).count() >= 2,
        "eight accounts land on more than one shard"
    );
}

#[test]
fn concurrent_chaos_sweep_all_lifecycles_complete_with_zero_replays() {
    let served = |slice: &[&TraceEvent]| successes(slice, |s| matches!(s, SpanKind::Interact(_)));
    let closed = |slice: &[&TraceEvent]| successes(slice, |s| s == SpanKind::Close);
    let mut total_crashes = 0;
    for (i, crash_prob) in [0.1, 0.2].into_iter().enumerate() {
        for seed in 1..=4u64 {
            let (run, events) = concurrent_chaos_run(seed * 131 + i as u64, crash_prob, 0.10);
            let completed: usize = run.shard_runs.iter().map(|r| r.completed).sum();
            let failures: Vec<_> = run.failures().collect();
            assert!(
                completed == DEVICES && failures.is_empty(),
                "crash {crash_prob} seed {seed}: every device's lifecycle completes \
                 ({completed}/{DEVICES}, failures {failures:?}); timelines of the stuck \
                 devices:\n{}",
                timelines_where(&events, |a| {
                    served(a) != TOUCHES || successes(a, |s| s == SpanKind::Lifecycle) != 1
                })
            );
            assert_eq!(
                run.replays_accepted(),
                0,
                "crash {crash_prob} seed {seed}: replay protection holds across restarts; \
                 timelines of the affected devices:\n{}",
                timelines_where(&events, |a| a.iter().any(|e| matches!(
                    e.kind,
                    EventKind::Duplicate {
                        verdict: DuplicateVerdict::AcceptedFresh
                    }
                )))
            );
            let audit_mismatches: u64 = run.shard_runs.iter().map(|r| r.audit_mismatches).sum();
            assert_eq!(audit_mismatches, 0, "crash {crash_prob} seed {seed}");
            let q = TraceQuery::new(&events);
            let closes: usize = q.accounts().iter().map(|a| closed(&q.by_account(a))).sum();
            assert_eq!(
                closes,
                DEVICES,
                "every session was closed; timelines of the open ones:\n{}",
                timelines_where(&events, |a| closed(a) != 1)
            );
            assert_eq!(
                run.total_served(),
                (DEVICES * TOUCHES) as u64,
                "every touch served exactly once; timelines of the short devices:\n{}",
                timelines_where(&events, |a| served(a) != TOUCHES)
            );
            total_crashes += run.shard_runs.iter().map(|r| r.crashes).sum::<u64>();
        }
    }
    assert!(
        total_crashes > 10,
        "the sweep actually exercised crashes (saw {total_crashes})"
    );
}

#[test]
fn same_seed_concurrent_runs_are_byte_identical_per_device() {
    let (a, events_a) = concurrent_chaos_run(42, 0.2, 0.10);
    let (b, events_b) = concurrent_chaos_run(42, 0.2, 0.10);
    assert_eq!(
        a.state_digest(),
        b.state_digest(),
        "durable sharded state is bit-for-bit reproducible"
    );
    assert_eq!(a.export_jsonl(), b.export_jsonl());
    assert_eq!(a.fleet_metrics(), b.fleet_metrics());
    if let Some(d) = trust_core::trace::first_divergence(&events_a, &events_b) {
        panic!("same-seed traces must be identical, but:\n{d}");
    }
}

#[test]
fn resident_state_stays_bounded_across_100_session_lifecycles() {
    let mut rng = SimRng::seed_from(7);
    let mut world = World::new(&mut rng);
    let sidx = world.add_server_with_shards(DOMAIN, SHARDS, &mut rng);
    let d = world.add_device("phone-1", 7, &mut rng);
    world.register(d, DOMAIN, "alice", &mut rng).unwrap();

    let mut replays_accepted = 0;
    let mut halfway = None;
    for lifecycle in 0..100 {
        let login = world.login(d, DOMAIN, &mut rng).unwrap();
        let session = world.run_session(d, DOMAIN, 2, &mut rng).unwrap();
        assert_eq!(session.served, 2);
        replays_accepted += login.metrics.replays_accepted + session.metrics.replays_accepted;
        let closed = world
            .server_mut(sidx)
            .close_session("alice", &login.session_id)
            .unwrap();
        assert!(closed, "the live session closes");
        world.device_mut(d).end_session(DOMAIN);
        if lifecycle == 49 {
            halfway = Some(world.server(sidx).resident_stats());
        }
    }
    assert_eq!(replays_accepted, 0);

    let stats = world.server(sidx).resident_stats();
    assert_eq!(stats.sessions, 0, "every session was evicted");
    // The registration's cache entry and consumed nonce are the only
    // durable residue; session caches and nonces are pruned on close.
    assert!(
        stats.cache_entries <= 4,
        "idempotency caches are bounded, saw {}",
        stats.cache_entries
    );
    assert!(
        stats.consumed_nonces <= 4,
        "consumed-nonce registry is pruned on close, saw {}",
        stats.consumed_nonces
    );
    let halfway = halfway.unwrap();
    assert_eq!(
        (halfway.cache_entries, halfway.consumed_nonces),
        (stats.cache_entries, stats.consumed_nonces),
        "resident state is flat, not linear in completed lifecycles"
    );
    // The offline audit log is the one deliberately append-only store.
    assert_eq!(stats.audit_entries, 1 + 100 * (1 + 2));
}

#[test]
fn pruned_consumed_nonce_presented_again_is_still_rejected() {
    let mut rng = SimRng::seed_from(11);
    let mut world = World::new(&mut rng);
    let sidx = world.add_server_with_shards(DOMAIN, SHARDS, &mut rng);
    let d = world.add_device("phone-1", 7, &mut rng);
    world.register(d, DOMAIN, "alice", &mut rng).unwrap();
    let login = world.login(d, DOMAIN, &mut rng).unwrap();

    // Drive one interaction by hand so we keep the exact wire message.
    let touch = world.touches_for_holder(d, 1, &mut rng).remove(0);
    world.device_mut(d).observe_touch(&touch, &mut rng);
    let request = world
        .device_mut(d)
        .build_interaction(DOMAIN, "/inbox")
        .unwrap();
    let (content, _) = world
        .server_mut(sidx)
        .handle_interaction(&request)
        .expect("honest interaction serves");
    world
        .device_mut(d)
        .accept_content(DOMAIN, &content)
        .unwrap();

    let before = world.server(sidx).resident_stats();
    assert!(before.consumed_nonces > 0, "the session consumed nonces");

    // Closing the session prunes its consumed nonces from the registry…
    assert!(world
        .server_mut(sidx)
        .close_session("alice", &login.session_id)
        .unwrap());
    let after = world.server(sidx).resident_stats();
    assert!(
        after.consumed_nonces < before.consumed_nonces,
        "teardown pruned the session's consumed nonces"
    );

    // …and the pruned nonce presented again is STILL rejected: the nonce
    // is no longer issued and its session no longer exists.
    assert!(
        world.server_mut(sidx).handle_interaction(&request).is_err(),
        "a pruned nonce must never be accepted as fresh"
    );
}

#[test]
fn live_and_recovered_instances_agree_on_state_digest() {
    // Satellite of the snapshot-determinism fix: serialization is sorted
    // canonical, so a *different* server instance recovered from copies
    // of the journal segments reaches the identical digest.
    let (_, digest_live) = {
        let mut rng = SimRng::seed_from(23);
        let (mut world, sidx, devices) = sharded_world(Adversary::None, &mut rng);
        for (i, &d) in devices.iter().enumerate() {
            world.register(d, DOMAIN, &account(i), &mut rng).unwrap();
            world.login(d, DOMAIN, &mut rng).unwrap();
            world.run_session(d, DOMAIN, 3, &mut rng).unwrap();
        }
        let server = world.server(sidx);
        let mut rng2 = SimRng::seed_from(99_999);
        let (recovered, report) =
            WebServer::recover(server.identity(), server.fork_journals(), &mut rng2);
        assert_eq!(report.records_skipped(), 0);
        assert_eq!(
            recovered.state_digest(),
            server.state_digest(),
            "cross-instance digests agree"
        );
        (report, server.state_digest())
    };
    // Same scenario, fresh run: digest is a pure function of the history.
    let digest_replay = {
        let mut rng = SimRng::seed_from(23);
        let (mut world, sidx, devices) = sharded_world(Adversary::None, &mut rng);
        for (i, &d) in devices.iter().enumerate() {
            world.register(d, DOMAIN, &account(i), &mut rng).unwrap();
            world.login(d, DOMAIN, &mut rng).unwrap();
            world.run_session(d, DOMAIN, 3, &mut rng).unwrap();
        }
        world.server(sidx).state_digest()
    };
    assert_eq!(digest_live, digest_replay);
}

#[test]
fn torn_tail_in_one_shard_is_isolated_to_that_shard() {
    let mut rng = SimRng::seed_from(31);
    let (mut world, sidx, devices) = sharded_world(Adversary::None, &mut rng);
    for (i, &d) in devices.iter().enumerate() {
        world.register(d, DOMAIN, &account(i), &mut rng).unwrap();
        world.login(d, DOMAIN, &mut rng).unwrap();
        world.run_session(d, DOMAIN, 2, &mut rng).unwrap();
    }
    let server = world.server_mut(sidx);
    let torn = server.shard_for(&account(0));
    let per_shard_records: Vec<usize> = (0..SHARDS)
        .map(|i| server.journal(i).read().records.len())
        .collect();
    assert!(per_shard_records[torn] >= 2);

    server.journal_mut(torn).tear_tail(1);
    let report = server.recover_in_place(&mut rng);

    assert_eq!(
        report.shards_with_skips(),
        vec![torn],
        "only the torn shard reports a skip"
    );
    for (i, rec) in report.shards.iter().enumerate() {
        let expected = if i == torn {
            per_shard_records[i] - 1
        } else {
            per_shard_records[i]
        };
        assert_eq!(
            rec.records_replayed, expected,
            "shard {i} replays exactly its own records"
        );
    }
}
