//! Stage level: a bench-owned round-robin over `World::step_lifecycle`,
//! set up through the same public calls `parallel::run_shard` makes and
//! in the same order, so a shard driven here draws the same random
//! numbers and ends in the same durable state as `run_shard`'s.

use btd_crypto::sha256::{sha256, Digest};
use btd_sim::rng::SimRng;
use btd_workload::session::TouchSample;
use trust_core::channel::Adversary;
use trust_core::chaos::{ChaosReport, DeviceLifecycle};
use trust_core::parallel::ParallelConfig;
use trust_core::scenario::{World, DEFAULT_ACTIONS};
use trust_core::server::journal::{CrashProfile, CrashSchedule};
use trust_core::server::shard_index;

use crate::spans::Recorder;
use crate::timed::is_designed_refusal;
use crate::workload::DOMAIN;

/// Segment rotation target `run_shard` gives segmented storage.
const SEGMENT_TARGET: usize = 64 * 1024;

/// Touches per shard kept for the probes.
const PROBE_TOUCHES: usize = 8;

/// One shard after its stage-level run, kept for the probes.
pub struct StageShard {
    pub shard: usize,
    pub world: World,
    pub server: usize,
    pub devices: Vec<usize>,
    /// `(device index, touch)` pairs the probes replay.
    pub probe_touches: Vec<(usize, TouchSample)>,
    pub served: u64,
    /// Trace events the shard's tracer recorded.
    pub events: usize,
    pub digest: Digest,
}

/// The per-shard seed `run_shard` derives: a SplitMix64 finalizer over
/// `(seed, shard)`.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Names the stage a step works on, from what the server, the device and
/// the lifecycle's report show before it.
fn stage_of(
    registered: bool,
    in_session: bool,
    report: &ChaosReport,
    touches: usize,
) -> &'static str {
    let touches_resolved = report.attempted == touches as u64
        && report.served + report.rejects.len() as u64 == report.attempted;
    if !registered {
        "chaos.register"
    } else if !in_session {
        "chaos.login"
    } else if report.terminated || touches_resolved {
        "chaos.close"
    } else {
        "chaos.interact"
    }
}

/// Drives shard `shard` of `cfg` to completion, one stage span per
/// lifecycle step.
///
/// # Errors
///
/// Fails if a lifecycle ends in a conclusive failure.
pub fn drive_shard(
    cfg: &ParallelConfig,
    shard: usize,
    rec: &mut Recorder,
) -> Result<StageShard, String> {
    let mut rng = SimRng::seed_from(shard_seed(cfg.seed, shard));
    let adversary = if cfg.loss > 0.0 {
        Adversary::RandomLoss { loss: cfg.loss }
    } else {
        Adversary::None
    };
    let mut world = World::with_adversary(adversary, &mut rng);
    let tracer = world.enable_tracing();
    let sidx = rec.time("scenario.add_server", None, || match cfg.disk {
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
    });
    if let Some(profile) = cfg.crash {
        let crash_seed = rng.next_u64();
        world
            .server_mut(sidx)
            .arm_crash_schedule(CrashSchedule::seeded(profile, crash_seed));
    }

    // (device index, account, holder, lifecycle id)
    let mut owned: Vec<(usize, String, u64, u64)> = Vec::new();
    for i in 0..cfg.accounts {
        let account = format!("par-user-{i}");
        if shard_index(&account, cfg.shards) == shard {
            let holder = 1_000 + i as u64;
            let didx = rec.time("scenario.add_device", Some(i as u64), || {
                world.add_device(&format!("par-dev-{i}"), holder, &mut rng)
            });
            owned.push((didx, account, holder, i as u64));
        }
    }
    let touches: Vec<Vec<TouchSample>> = owned
        .iter()
        .map(|o| world.touches_for_holder(o.0, cfg.touches, &mut rng))
        .collect();
    let probe_touches = (0..cfg.touches)
        .flat_map(|j| owned.iter().zip(&touches).map(move |(o, t)| (o.0, t[j])))
        .take(PROBE_TOUCHES)
        .collect();
    let mut lifecycles: Vec<DeviceLifecycle> = owned
        .iter()
        .zip(touches)
        .map(|(o, t)| {
            DeviceLifecycle::new(DOMAIN, &o.1, o.2, &DEFAULT_ACTIONS, t, world.server(sidx))
        })
        .collect();

    let profile = cfg.crash.unwrap_or(CrashProfile::uniform(0.0));
    let mut events = tracer.drain().len();
    let mut live = lifecycles.len();
    while live > 0 {
        live = 0;
        for (lc, (didx, account, _, id)) in lifecycles.iter_mut().zip(&owned) {
            if lc.is_done() {
                continue;
            }
            let stage = stage_of(
                world.server(sidx).has_account(account),
                world.device(*didx).session_id(DOMAIN).is_some(),
                &lc.report,
                cfg.touches,
            );
            let span = rec.open(stage, Some(*id));
            if world.step_lifecycle(lc, *didx, sidx, profile, &mut rng) {
                live += 1;
            }
            events += tracer.drain().len();
            rec.close(span);
        }
    }
    events += tracer.drain().len();

    for lc in &lifecycles {
        if let Some(err) = lc.failure().filter(|e| !is_designed_refusal(e)) {
            return Err(format!(
                "stage-level lifecycle {} failed: {err}",
                lc.account()
            ));
        }
    }
    Ok(StageShard {
        shard,
        digest: sha256(&world.server(sidx).shard_snapshot_bytes(shard)),
        served: lifecycles.iter().map(|lc| lc.report.served).sum(),
        devices: owned.iter().map(|o| o.0).collect(),
        probe_touches,
        events,
        world,
        server: sidx,
    })
}
