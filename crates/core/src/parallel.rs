//! Deterministic shard-parallel runtime: N shard workers on OS threads
//! *outside* the sim-deterministic core.
//!
//! Accounts already route to exactly one shard (`fnv1a(account) %
//! shards`, [`crate::server::shard_index`]), so shards are ready-made
//! units of real parallelism. This module makes the **shard** the unit of
//! simulation: every shard runs its own [`World`] — its own RNG stream
//! (seeded from `mix(seed, shard)`), its own journal segments and storage
//! partition, its own logical clock, and its own trace buffer. A worker
//! owns a disjoint set of shards (`shard % workers == worker`) and simply
//! runs them back to back, so what a shard computes can never depend on
//! which worker ran it or on how OS threads interleaved.
//!
//! Determinism contract — the same one the single-threaded harnesses pin:
//!
//! * **Same seed, any worker count, byte-identical output.** N=1 must
//!   equal N=8 bit-for-bit in [`ParallelRun::export_jsonl`] and
//!   [`ParallelRun::state_digest`]. Workers finish in nondeterministic
//!   order; the merge recombines per-shard results by a stable sort on
//!   `(logical time, shard id, sequence)`, a pure function of the
//!   per-shard data.
//! * **Logical clocks, not wall clocks.** Each shard's clock ticks once
//!   per round-robin sweep of its lifecycles; events drained after a step
//!   are stamped with the current tick. Sequence numbers are the shard
//!   tracer's own monotonic event ids, so ordering inside a tick is the
//!   recording order.
//! * **Modeled throughput, not wall time.** Speedup is computed from the
//!   simulated makespan: a worker's cost is the sum of its shards'
//!   simulated protocol time, and the makespan is the maximum over
//!   workers ([`ParallelRun::makespan`]). Wall-clock numbers stay in the
//!   bench binary's human output, never in blessed JSON.
//!
//! `std::thread` is lint-sanctioned **only here**: trust-lint's
//! `os-thread` rule carves out exactly this file (see
//! `trust_lint::config`), and every sim path keeps the rule with no
//! ad-hoc waivers. The threads never touch sim state concurrently — each
//! worker owns its shard worlds exclusively, and the only shared object
//! is the mutex-guarded result vector, which is sorted before use.

use std::sync::Mutex;
use std::thread::Scope;

use btd_crypto::group::ModexpCounts;
use btd_crypto::sha256::{sha256, Digest};
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;

use crate::channel::Adversary;
use crate::chaos::DeviceLifecycle;
use crate::metrics::{LatencyHistogram, ProtocolMetrics};
use crate::registration::FlowError;
use crate::scenario::{World, DEFAULT_ACTIONS};
use crate::server::journal::{CrashProfile, CrashSchedule};
use crate::server::shard_index;
use crate::server::storage::DiskFaultProfile;
use crate::telemetry::{
    self, profile_spans, HealthEngine, HealthReport, SeriesPoint, ShardSampler, SpanProfile,
};
use crate::trace::{derive_metrics, event_json, TraceEvent, Tracer};
use crate::wire::signing_bytes;

/// Domain every shard world serves; fixed so account → shard routing is
/// a pure function of the account name.
const DOMAIN: &str = "www.xyz.com";

/// Segment rotation target for shard worlds that run on segmented
/// storage (small enough that chaos cells seal segments).
const SEGMENT_TARGET: usize = 64 * 1024;

/// One shard-parallel run: a fleet of accounts partitioned across
/// `shards` by the server's own routing, driven by `workers` OS threads.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Master seed; each shard derives its own stream from it.
    pub seed: u64,
    /// Fleet size. Account `i` is named `par-user-<i>` and lives in shard
    /// `shard_index("par-user-<i>", shards)`.
    pub accounts: usize,
    /// Shard count: the grain of parallelism and of determinism.
    pub shards: usize,
    /// OS threads driving the shards (`shard % workers` ownership).
    pub workers: usize,
    /// Explicit interactions per lifecycle.
    pub touches: usize,
    /// Per-message random loss probability on every shard's channel.
    pub loss: f64,
    /// Seeded server crash injection, if any.
    pub crash: Option<CrashProfile>,
    /// Seeded disk-fault injection (segmented storage), if any.
    pub disk: Option<DiskFaultProfile>,
    /// Telemetry sampling interval in logical ticks: a
    /// [`SeriesPoint`] is cut every `sample_interval` sweeps (plus one
    /// final point). `0` disables sampling entirely — the proptests pin
    /// that either setting produces identical protocol output.
    pub sample_interval: u64,
}

impl ParallelConfig {
    /// A clean-network config: no loss, no crashes, in-memory journals.
    pub fn new(seed: u64, accounts: usize, shards: usize, workers: usize) -> Self {
        ParallelConfig {
            seed,
            accounts,
            shards,
            workers,
            touches: 8,
            loss: 0.0,
            crash: None,
            disk: None,
            sample_interval: 4,
        }
    }
}

/// One trace event stamped by its shard's logical clock: `lt` is the
/// round-robin sweep the event fired in, `seq` the shard tracer's own
/// monotonic id. `(lt, shard, seq)` is the total merge order.
#[derive(Clone, PartialEq, Debug)]
pub struct StampedEvent {
    /// Logical time: the owning shard's sweep counter at drain.
    pub lt: u64,
    /// Shard-local sequence: the tracer-assigned event id.
    pub seq: u64,
    /// The event itself, untouched.
    pub event: TraceEvent,
}

/// Everything one shard's simulation produced. Independent of worker
/// count by construction: the shard's world, RNG, clock, and tracer are
/// all its own.
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// Which global shard this is.
    pub shard: usize,
    /// Accounts routed to this shard.
    pub accounts: usize,
    /// Interactions served exactly once.
    pub served: u64,
    /// Lifecycles that completed every attempted interaction.
    pub completed: usize,
    /// Server crashes observed (each followed by a recovery).
    pub crashes: u64,
    /// Audit-log entries of the shard's lifecycles that matched no
    /// legitimate view.
    pub audit_mismatches: u64,
    /// Conclusive lifecycle failures, by account.
    pub failures: Vec<(String, FlowError)>,
    /// Network/retry accounting summed over the shard's lifecycles.
    pub metrics: ProtocolMetrics,
    /// Sum of the shard's lifecycles' simulated protocol time — the
    /// shard's sequential cost in the makespan model.
    pub elapsed: SimDuration,
    /// SHA-256 of this shard's canonical snapshot bytes.
    pub digest: Digest,
    /// The shard's full stamped trace, in recording order.
    pub events: Vec<StampedEvent>,
    /// The shard's sampled telemetry series, ascending `lt` (empty when
    /// `sample_interval == 0`).
    pub series: Vec<SeriesPoint>,
    /// Modular exponentiations the shard's world ran, set-up included.
    pub modexps: ModexpCounts,
}

/// The merged result of a run: per-shard results in shard order plus the
/// globally merged trace.
#[derive(Clone, Debug)]
pub struct ParallelRun {
    /// The config that produced this run.
    pub config: ParallelConfig,
    /// Per-shard results, ascending shard id. Their `events` have been
    /// moved into `merged`.
    pub shard_runs: Vec<ShardRun>,
    /// Every shard's events, stably sorted by `(lt, shard, seq)`.
    pub merged: Vec<(usize, StampedEvent)>,
}

/// Derives shard `shard`'s RNG seed from the master seed: a SplitMix64
/// finalizer over the pair, so neighboring shards get unrelated streams.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one shard's complete simulation. Pure in `(cfg minus workers,
/// shard)`: the worker that calls this has no influence on the result,
/// which is what makes the merge worker-count invariant.
pub fn run_shard(cfg: &ParallelConfig, shard: usize) -> ShardRun {
    // One thread runs the whole shard, so its counter delta is exact.
    let modexps_before = ModexpCounts::current();
    let mut rng = SimRng::seed_from(shard_seed(cfg.seed, shard));
    let adversary = if cfg.loss > 0.0 {
        Adversary::RandomLoss { loss: cfg.loss }
    } else {
        Adversary::None
    };
    let mut world = World::with_adversary(adversary, &mut rng);
    let tracer = world.enable_tracing();
    // Telemetry rides on the trace: the sampler folds the same drained
    // events the merge stamps (observation, never consumption) and reads
    // the server through `&self`, so turning sampling on cannot perturb
    // the protocol, its RNG draws, or the exported trace bytes.
    let mut sampler =
        (cfg.sample_interval > 0).then(|| ShardSampler::new(shard, cfg.sample_interval));

    // The shard world's server carries the *global* shard count so
    // account routing matches `shard_index(account, cfg.shards)` exactly;
    // only this shard's partition ever holds state.
    let sidx = match cfg.disk {
        Some(profile) => world.add_server_with_storage(
            DOMAIN,
            cfg.shards,
            profile,
            None,
            SEGMENT_TARGET,
            shard_seed(cfg.seed, shard) ^ 0x570A,
            &mut rng,
        ),
        None => world.add_server_with_shards(DOMAIN, cfg.shards, &mut rng),
    };
    if let Some(profile) = cfg.crash {
        let crash_seed = rng.next_u64();
        world
            .server_mut(sidx)
            .arm_crash_schedule(CrashSchedule::seeded(profile, crash_seed));
    }

    // Adopt exactly the accounts the server's own routing places here, in
    // ascending global index order so RNG draws are reproducible.
    let mut owned: Vec<(usize, String, u64)> = Vec::new();
    for i in 0..cfg.accounts {
        let account = format!("par-user-{i}");
        if shard_index(&account, cfg.shards) == shard {
            let holder = 1_000 + i as u64;
            let didx = world.add_device(&format!("par-dev-{i}"), holder, &mut rng);
            owned.push((didx, account, holder));
        }
    }

    // Pre-generate every lifecycle's touches so workload draws are
    // independent of interleaving.
    let touches: Vec<_> = owned
        .iter()
        .map(|&(didx, _, _)| world.touches_for_holder(didx, cfg.touches, &mut rng))
        .collect();
    let mut lifecycles: Vec<DeviceLifecycle> = owned
        .iter()
        .zip(touches)
        .map(|(&(_, ref account, holder), t)| {
            DeviceLifecycle::new(
                DOMAIN,
                account,
                holder,
                &DEFAULT_ACTIONS,
                t,
                world.server(sidx),
            )
        })
        .collect();

    let profile = cfg.crash.unwrap_or(CrashProfile::uniform(0.0));
    let mut events: Vec<StampedEvent> = Vec::new();
    let mut lt = 0u64;
    // Setup events (enrollment, lifecycle-span opens) land at tick 0.
    drain_at(lt, &tracer, sampler.as_mut(), &mut events);
    if let Some(s) = sampler.as_mut() {
        s.tick(lt, world.server(sidx), lifecycles.len() as u64);
    }

    // Round-robin sweeps: the logical clock ticks once per sweep, and
    // every live lifecycle advances one unit inside the tick.
    let mut live = lifecycles.len();
    while live > 0 {
        live = 0;
        lt += 1;
        for (i, lc) in lifecycles.iter_mut().enumerate() {
            if lc.is_done() {
                continue;
            }
            if world.step_lifecycle(lc, owned[i].0, sidx, profile, &mut rng) {
                live += 1;
            }
            drain_at(lt, &tracer, sampler.as_mut(), &mut events);
        }
        if let Some(s) = sampler.as_mut() {
            s.tick(lt, world.server(sidx), live as u64);
        }
    }
    // Span closes recorded by the final steps are already drained; catch
    // any stragglers at one tick past the last sweep.
    drain_at(lt + 1, &tracer, sampler.as_mut(), &mut events);
    // A final forced point at the straggler tick carries the run's
    // cumulative totals (what `telemetry::reconcile` checks against the
    // live metrics).
    let series = sampler.map_or_else(Vec::new, |s| s.finish(lt + 1, world.server(sidx)));

    let mut shard_run = ShardRun {
        shard,
        accounts: owned.len(),
        served: 0,
        completed: 0,
        crashes: 0,
        audit_mismatches: 0,
        failures: Vec::new(),
        metrics: ProtocolMetrics::default(),
        elapsed: SimDuration::ZERO,
        digest: sha256(&world.server(sidx).shard_snapshot_bytes(shard)),
        events,
        series,
        modexps: ModexpCounts::current().since(&modexps_before),
    };
    for lc in &lifecycles {
        let r = &lc.report;
        shard_run.served += r.served;
        shard_run.completed += usize::from(r.completed);
        shard_run.crashes += r.crashes;
        shard_run.audit_mismatches += r.audit_mismatches;
        shard_run.metrics.absorb(&r.metrics);
        shard_run.elapsed += r.latency;
        if let Some(err) = lc.failure() {
            shard_run.failures.push((lc.account().to_owned(), err));
        }
    }
    shard_run
}

/// One drain step: takes everything `tracer` recorded since the last
/// drain, folds each event into `sampler` in recording order, and stamps
/// the batch at logical time `lt`.
fn drain_at(
    lt: u64,
    tracer: &Tracer,
    sampler: Option<&mut ShardSampler>,
    events: &mut Vec<StampedEvent>,
) {
    let drained = tracer.drain();
    if let Some(s) = sampler {
        for ev in &drained {
            s.observe_event(ev);
        }
    }
    events.extend(drained.into_iter().map(|event| StampedEvent {
        lt,
        seq: event.id,
        event,
    }));
}

/// Runs every shard across `cfg.workers` OS threads and merges the
/// results deterministically.
///
/// Worker `w` owns shards `{s : s % workers == w}` and runs them back to
/// back on its own thread. Workers push finished [`ShardRun`]s into a
/// shared vector in completion order — the only nondeterminism in the
/// whole run — and the merge immediately sorts by shard id, then by
/// `(lt, shard, seq)` for the event stream, erasing it.
///
/// # Panics
///
/// Panics if `cfg.shards == 0` or `cfg.workers == 0`, or if a worker
/// thread panics.
pub fn run_parallel(cfg: &ParallelConfig) -> ParallelRun {
    assert!(cfg.shards > 0, "need at least one shard");
    assert!(cfg.workers > 0, "need at least one worker");
    let results: Mutex<Vec<ShardRun>> = Mutex::new(Vec::with_capacity(cfg.shards));
    let workers = cfg.workers.min(cfg.shards);
    std::thread::scope(|scope| {
        let first = scope.spawn(|| run_worker(scope, cfg, &results, 0, workers));
        first.join().expect("worker panicked");
    });
    let mut shard_runs = results.into_inner().expect("worker poisoned results");
    shard_runs.sort_by_key(|r| r.shard);
    ParallelRun::merge(cfg.clone(), shard_runs)
}

/// Worker `w`: starts worker `w + 1` on a thread of `scope`, runs shards
/// `w, w + workers, ...`, then joins worker `w + 1`. Leaving a scope does
/// not wait for its threads to exit and hand back their malloc arenas;
/// the joins do, and make workers exit last to first, so each worker of
/// the next call takes the arena its index had and the peak resident
/// size does not hang on thread timing.
fn run_worker<'s, 'e>(
    scope: &'s Scope<'s, 'e>,
    cfg: &'e ParallelConfig,
    results: &'e Mutex<Vec<ShardRun>>,
    w: usize,
    workers: usize,
) {
    let next = (w + 1 < workers)
        .then(|| scope.spawn(move || run_worker(scope, cfg, results, w + 1, workers)));
    let mut mine = Vec::new();
    for s in (w..cfg.shards).step_by(workers) {
        mine.push(run_shard(cfg, s));
    }
    results.lock().expect("results poisoned").extend(mine);
    if let Some(next) = next {
        next.join().expect("worker panicked");
    }
}

impl ParallelRun {
    /// Merges per-shard runs (ascending shard id) into the global trace
    /// order: a stable sort by `(lt, shard, seq)`. Pure in the shard-run
    /// set, so any worker schedule producing the same shards merges to
    /// the same bytes.
    pub fn merge(config: ParallelConfig, mut shard_runs: Vec<ShardRun>) -> ParallelRun {
        let mut merged: Vec<(usize, StampedEvent)> = Vec::new();
        for run in shard_runs.iter_mut() {
            let events = std::mem::take(&mut run.events);
            merged.extend(events.into_iter().map(|e| (run.shard, e)));
        }
        merged.sort_by_key(|(shard, e)| (e.lt, *shard, e.seq));
        ParallelRun {
            config,
            shard_runs,
            merged,
        }
    }

    /// The merged trace as JSON Lines: each line wraps the event's
    /// canonical serialization ([`crate::trace::event_json`]) in an
    /// envelope carrying the merge key. Byte-identical for the same seed
    /// at any worker count.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for (shard, e) in &self.merged {
            out.push_str(&format!(
                "{{\"lt\":{},\"worker_shard\":{},\"seq\":{},\"event\":{}}}\n",
                e.lt,
                shard,
                e.seq,
                event_json(&e.event)
            ));
        }
        out
    }

    /// A single digest over the run: the per-shard snapshot digests, in
    /// shard order, under a domain-separation label. Equal digests mean
    /// every shard ended in identical durable state.
    pub fn state_digest(&self) -> Digest {
        let bytes = signing_bytes("trust-parallel-digest-v1", |w| {
            w.u64(self.config.shards as u64);
            for run in &self.shard_runs {
                w.u64(run.shard as u64).bytes(run.digest.as_bytes());
            }
        });
        sha256(&bytes)
    }

    /// Network/retry accounting summed across every shard.
    pub fn fleet_metrics(&self) -> ProtocolMetrics {
        let mut m = ProtocolMetrics::default();
        for run in &self.shard_runs {
            m.absorb(&run.metrics);
        }
        m
    }

    /// Re-derives the fleet metrics from the merged trace alone — must
    /// equal [`ParallelRun::fleet_metrics`] (trace/metrics parity).
    pub fn derived_metrics(&self) -> ProtocolMetrics {
        let events: Vec<TraceEvent> = self.merged.iter().map(|(_, e)| e.event.clone()).collect();
        derive_metrics(&events)
    }

    /// Round-trip latency of every served interaction, fleet-wide.
    pub fn fleet_interaction_latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for run in &self.shard_runs {
            h.merge(&run.metrics.interaction);
        }
        h
    }

    /// Interactions served exactly once, fleet-wide.
    pub fn total_served(&self) -> u64 {
        self.shard_runs.iter().map(|r| r.served).sum()
    }

    /// Replays accepted fleet-wide; the exactly-once invariant requires
    /// this to be zero under any fault mix.
    pub fn replays_accepted(&self) -> u64 {
        self.shard_runs
            .iter()
            .map(|r| r.metrics.replays_accepted)
            .sum()
    }

    /// Conclusive lifecycle failures across every shard.
    pub fn failures(&self) -> impl Iterator<Item = &(String, FlowError)> {
        self.shard_runs.iter().flat_map(|r| r.failures.iter())
    }

    /// The modeled parallel makespan at `workers`: each worker's cost is
    /// the sum of its shards' simulated protocol time (`shard % workers`
    /// ownership, matching [`run_parallel`]), and the makespan is the
    /// slowest worker. Deterministic — it is a function of sim time only
    /// — so it can live in blessed bench JSON, unlike wall clocks.
    pub fn makespan(&self, workers: usize) -> SimDuration {
        assert!(workers > 0, "need at least one worker");
        let lanes = workers.min(self.config.shards).max(1);
        let mut per_worker = vec![SimDuration::ZERO; lanes];
        for run in &self.shard_runs {
            per_worker[run.shard % lanes] += run.elapsed;
        }
        per_worker.into_iter().max().unwrap_or(SimDuration::ZERO)
    }

    /// Modeled throughput at `workers`: interactions served per simulated
    /// second of makespan.
    pub fn modeled_throughput(&self, workers: usize) -> f64 {
        let makespan = self.makespan(workers);
        if makespan == SimDuration::ZERO {
            return 0.0;
        }
        self.total_served() as f64 / makespan.as_secs_f64()
    }

    /// The fleet's telemetry series: every shard's sampled points merged
    /// by `(lt, shard)` — the same key (and the same worker-count
    /// invariance argument) as the event merge. Empty when the run was
    /// configured with `sample_interval == 0`.
    pub fn merged_series(&self) -> Vec<SeriesPoint> {
        telemetry::merge_series(self.shard_runs.iter().map(|r| r.series.clone()))
    }

    /// The merged series as canonical JSON Lines
    /// ([`telemetry::export_series_jsonl`]): byte-identical for the same
    /// seed at any worker count.
    pub fn export_series_jsonl(&self) -> String {
        telemetry::export_series_jsonl(&self.merged_series())
    }

    /// Evaluates the standard SLOs ([`HealthEngine::standard`]) over the
    /// merged series. Deterministic: same seed, same verdicts, any
    /// worker count.
    pub fn health_report(&self) -> HealthReport {
        HealthEngine::standard().evaluate(&self.merged_series())
    }

    /// Aggregates the merged trace's spans into a deterministic cost
    /// profile ([`telemetry::profile_spans`]).
    pub fn span_profile(&self) -> SpanProfile {
        profile_spans(self.merged.iter().map(|(shard, e)| (*shard, &e.event)))
    }

    /// Checks that the series' final cumulative values reconcile exactly
    /// with the live fleet metrics ([`telemetry::reconcile`]); trivially
    /// true when sampling was disabled.
    pub fn verify_series_reconciles(&self) -> Result<(), String> {
        if self.config.sample_interval == 0 {
            return Ok(());
        }
        telemetry::reconcile(&self.merged_series(), &self.fleet_metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(workers: usize) -> ParallelConfig {
        ParallelConfig {
            touches: 3,
            ..ParallelConfig::new(0xA11CE, 8, 4, workers)
        }
    }

    #[test]
    fn modexps_per_honest_lifecycle_are_pinned_at_one_and_two_workers() {
        // The world's set-up: CA and server key generation, server
        // certificate.
        const WORLD: ModexpCounts = ModexpCounts {
            variable_base: 0,
            g_table: 3,
            key_table: 0,
            table_builds: 0,
        };
        // One honest lifecycle, device set-up included. Variable base:
        // the device-certificate signature (device key), the login
        // signature (fresh account key) and `open`'s shared secret.
        // Key tables: the CA key (two hellos and the device certificate)
        // and the server key (two hellos and the seal), three each. Each
        // hello is verified once, by the retry loop's check, and the
        // subgroup tests are Jacobi symbols. Before per-key tables a
        // lifecycle ran 14 variable-base exponentiations and 20 g-table
        // ones.
        const LIFECYCLE: ModexpCounts = ModexpCounts {
            variable_base: 3,
            g_table: 16,
            key_table: 6,
            table_builds: 0,
        };
        for workers in [1, 2] {
            let run = run_parallel(&ParallelConfig {
                touches: 1,
                ..ParallelConfig::new(7, 6, 2, workers)
            });
            assert_eq!(run.total_served(), 6);
            for shard in &run.shard_runs {
                let n = shard.accounts as u64;
                assert!(n > 0, "every shard runs a lifecycle");
                // The CA key and the server key are the shard's two
                // reused keys: the first use of each is variable-base,
                // the second builds its one table.
                let expected = ModexpCounts {
                    variable_base: WORLD.variable_base + n * LIFECYCLE.variable_base + 2,
                    g_table: WORLD.g_table + n * LIFECYCLE.g_table,
                    key_table: WORLD.key_table + n * LIFECYCLE.key_table - 2,
                    table_builds: 2,
                };
                assert_eq!(
                    shard.modexps, expected,
                    "{workers} workers, shard {}",
                    shard.shard
                );
            }
        }
    }

    #[test]
    fn worker_counts_merge_to_identical_bytes() {
        let one = run_parallel(&small_cfg(1));
        let four = run_parallel(&small_cfg(4));
        assert_eq!(one.export_jsonl(), four.export_jsonl());
        assert_eq!(one.state_digest(), four.state_digest());
        assert!(one.total_served() > 0);
        assert!(one.failures().next().is_none());
    }

    #[test]
    fn every_account_lands_in_its_routed_shard() {
        let run = run_parallel(&small_cfg(2));
        let placed: usize = run.shard_runs.iter().map(|r| r.accounts).sum();
        assert_eq!(placed, run.config.accounts);
        for (i, shard_run) in run.shard_runs.iter().enumerate() {
            assert_eq!(shard_run.shard, i, "shard runs are in shard order");
        }
    }

    #[test]
    fn merged_trace_derives_the_fleet_metrics() {
        let run = run_parallel(&small_cfg(3));
        assert_eq!(run.derived_metrics(), run.fleet_metrics());
    }

    #[test]
    fn merge_order_is_by_logical_time_then_shard_then_seq() {
        let run = run_parallel(&small_cfg(2));
        let keys: Vec<_> = run
            .merged
            .iter()
            .map(|(shard, e)| (e.lt, *shard, e.seq))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn telemetry_series_is_worker_count_invariant_and_reconciles() {
        let one = run_parallel(&small_cfg(1));
        let four = run_parallel(&small_cfg(4));
        assert_eq!(one.export_series_jsonl(), four.export_series_jsonl());
        assert_eq!(one.health_report(), four.health_report());
        assert!(one.health_report().healthy());
        one.verify_series_reconciles().expect("series reconcile");
        assert_eq!(one.span_profile(), four.span_profile());
        assert!(!one.merged_series().is_empty());
    }

    #[test]
    fn disabling_sampling_does_not_perturb_the_run() {
        let with = run_parallel(&small_cfg(2));
        let without = run_parallel(&ParallelConfig {
            sample_interval: 0,
            ..small_cfg(2)
        });
        assert_eq!(with.export_jsonl(), without.export_jsonl());
        assert_eq!(with.state_digest(), without.state_digest());
        assert!(without.merged_series().is_empty());
    }

    #[test]
    fn makespan_shrinks_with_workers_and_throughput_scales() {
        let run = run_parallel(&ParallelConfig {
            touches: 3,
            ..ParallelConfig::new(0xBEE, 24, 8, 1)
        });
        assert!(run.makespan(4) < run.makespan(1));
        assert!(run.modeled_throughput(4) > run.modeled_throughput(1));
    }
}
