//! Integration tests for the deterministic tracing subsystem.
//!
//! Pins the three contracts the trace is useful for:
//!
//! * **Determinism** — two runs from the same seed export byte-identical
//!   JSONL; different seeds diverge at a reported index with the shared
//!   causal prefix attached.
//! * **Consistency** — re-deriving `ProtocolMetrics` from trace events
//!   alone reproduces the live counters exactly, for the clean Fig. 9/10
//!   flows and for a concurrent chaos run with crashes and resumes.
//! * **Queryability** — per-account filters, span queries, and causal
//!   chains slice the one global event stream without losing events.

use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::metrics::ProtocolMetrics;
use trust_core::parallel::{run_parallel, ParallelConfig, ParallelRun};
use trust_core::scenario::World;
use trust_core::server::journal::CrashProfile;
use trust_core::trace::{
    derive_metrics, first_divergence, EventKind, SpanKind, TraceEvent, TraceQuery,
};

const DOMAIN: &str = "www.xyz.com";

/// A traced chaos fleet: `accounts` lifecycles of five touches over two
/// shard worlds, under loss and crash injection.
fn chaos_fleet(seed: u64, accounts: usize) -> ParallelRun {
    run_parallel(&ParallelConfig {
        touches: 5,
        loss: 0.08,
        crash: Some(CrashProfile::uniform(0.15)),
        ..ParallelConfig::new(seed, accounts, 2, 1)
    })
}

/// Runs a traced chaos fleet and returns its merged events plus the
/// fleet's live metrics.
fn chaos_run(seed: u64) -> (Vec<TraceEvent>, ProtocolMetrics) {
    let run = chaos_fleet(seed, 3);
    let events = run.merged.iter().map(|(_, e)| e.event.clone()).collect();
    (events, run.fleet_metrics())
}

/// A smaller chaos fleet, returning the JSONL export.
fn chaos_jsonl(seed: u64) -> String {
    chaos_fleet(seed, 2).export_jsonl()
}

#[test]
fn same_seed_exports_byte_identical_jsonl() {
    let a = chaos_jsonl(7);
    let b = chaos_jsonl(7);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce a byte-identical trace");
}

#[test]
fn different_seeds_diverge_with_causal_context() {
    let (a, _) = chaos_run(7);
    let (b, _) = chaos_run(8);
    let d = first_divergence(&a, &b).expect("different chaos seeds must diverge");
    assert!(d.index > 0, "both runs open the same first lifecycle span");
    assert!(
        !d.context.is_empty(),
        "divergence must carry the shared causal prefix"
    );
    assert!(d.left.is_some() || d.right.is_some());
    // The rendering names the divergence point for postmortems.
    let rendered = d.to_string();
    assert!(rendered.contains(&format!("diverge at event {}", d.index)));

    // Same seed: no divergence at all.
    let (a2, _) = chaos_run(7);
    assert!(first_divergence(&a, &a2).is_none());
}

#[test]
fn derived_metrics_match_live_counters_for_clean_flows() {
    // Fig. 9 registration + Fig. 10 login and browsing on an honest
    // network: the trace must re-derive exactly what the reports counted.
    let mut rng = SimRng::seed_from(11);
    let mut world = World::new(&mut rng);
    world.add_server(DOMAIN, &mut rng);
    let tracer = world.enable_tracing();
    let d = world.add_device("phone-1", 42, &mut rng);

    let mut live = ProtocolMetrics::default();
    let reg = world.register(d, DOMAIN, "alice", &mut rng).unwrap();
    live.absorb(&reg.metrics);
    let login = world.login(d, DOMAIN, &mut rng).unwrap();
    live.absorb(&login.metrics);
    let session = world.run_session(d, DOMAIN, 10, &mut rng).unwrap();
    live.absorb(&session.metrics);

    assert_eq!(derive_metrics(&tracer.events()), live);
}

#[test]
fn derived_metrics_match_live_counters_for_lossy_flows() {
    // Same flows under loss: retries, timeouts, and resyncs must still
    // reconcile exactly.
    let mut rng = SimRng::seed_from(13);
    let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.15 }, &mut rng);
    world.add_server(DOMAIN, &mut rng);
    let tracer = world.enable_tracing();
    let d = world.add_device("phone-1", 42, &mut rng);

    let mut live = ProtocolMetrics::default();
    let reg = world.register(d, DOMAIN, "alice", &mut rng).unwrap();
    live.absorb(&reg.metrics);
    let login = world.login(d, DOMAIN, &mut rng).unwrap();
    live.absorb(&login.metrics);
    let session = world.run_session(d, DOMAIN, 10, &mut rng).unwrap();
    live.absorb(&session.metrics);

    let derived = derive_metrics(&tracer.events());
    assert!(derived.retries > 0 || derived.timeouts > 0 || derived.resyncs > 0);
    assert_eq!(derived, live);
}

#[test]
fn derived_metrics_match_live_counters_under_chaos() {
    for seed in [1, 7, 21, 42] {
        let (events, live) = chaos_run(seed);
        assert_eq!(
            derive_metrics(&events),
            live,
            "trace/live divergence for seed {seed}"
        );
    }
}

#[test]
fn query_slices_and_causal_chains_cover_the_trace() {
    let (events, _) = chaos_run(7);
    let q = TraceQuery::new(&events);

    let accounts = q.accounts();
    assert_eq!(accounts, vec!["par-user-0", "par-user-1", "par-user-2"]);

    // Every account ran a full lifecycle; its slice is non-trivial and
    // renders a timeline line per event.
    for account in &accounts {
        let slice = q.by_account(account);
        assert!(slice.len() > 4, "{account} has a real event slice");
        let timeline = q.render_timeline(account);
        assert_eq!(timeline.lines().count(), slice.len() + 1);
    }

    // Lifecycle spans: one open per account.
    assert_eq!(q.spans(SpanKind::Lifecycle).len(), accounts.len());

    // The causal chain of par-user-0's first interaction contains its
    // span bracket and at least one send.
    let chain = q.causal_chain("par-user-0", 0);
    assert!(chain
        .iter()
        .any(|e| matches!(e.kind, EventKind::SpanOpen { .. })));
    assert!(chain
        .iter()
        .any(|e| matches!(e.kind, EventKind::Send { .. })));

    // Session filters recover every interaction recorded under a session.
    let with_session: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.ctx.session().is_some())
        .collect();
    if let Some(ev) = with_session.first() {
        let sid = ev.ctx.session().unwrap();
        assert!(!q.by_session(sid).is_empty());
    }
}

#[test]
fn tracing_is_off_by_default_and_costs_no_events() {
    let mut rng = SimRng::seed_from(5);
    let mut world = World::new(&mut rng);
    world.add_server(DOMAIN, &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);
    world.register(d, DOMAIN, "alice", &mut rng).unwrap();
    world.login(d, DOMAIN, &mut rng).unwrap();
    world.run_session(d, DOMAIN, 5, &mut rng).unwrap();
    assert!(!world.tracer().is_enabled());
    assert!(world.tracer().is_empty());
    assert_eq!(world.tracer().export_jsonl(), "");
}

#[test]
fn enabling_tracing_does_not_change_protocol_behaviour() {
    // The trace is an observer: enabling it must not perturb the run.
    let run = |trace: bool| {
        let mut rng = SimRng::seed_from(17);
        let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.1 }, &mut rng);
        world.add_server(DOMAIN, &mut rng);
        if trace {
            world.enable_tracing();
        }
        let d = world.add_device("phone-1", 42, &mut rng);
        let reg = world.register(d, DOMAIN, "alice", &mut rng).unwrap();
        let login = world.login(d, DOMAIN, &mut rng).unwrap();
        let session = world.run_session(d, DOMAIN, 8, &mut rng).unwrap();
        (reg.metrics, login.session_id, session.served)
    };
    assert_eq!(run(false), run(true));
}
