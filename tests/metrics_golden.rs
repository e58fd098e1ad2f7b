//! Golden pin of the protocol accounting: every `ProtocolMetrics` counter,
//! every latency histogram, every report latency, every flow error and the
//! SHA-256 of the traced event stream, over each lock-step flow under each
//! adversary, folded into one `u64`.
//!
//! The pin is a refactoring guard: a change to how counters are kept
//! (which code bumps them, in which order it records events) must leave
//! this value unchanged. It also covers identity transfer, whose link is
//! untraced and therefore invisible to the trace/metrics parity tests.

use btd_crypto::sha256::Sha256;
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;
use trust_core::channel::Adversary;
use trust_core::metrics::{LatencyHistogram, ProtocolMetrics};
use trust_core::scenario::World;
use trust_core::server::journal::CrashProfile;
use trust_core::trace::event_json;

/// The folded value at the time the pin was taken.
const GOLDEN: u64 = 0x8128_e3de_7d1f_3eea;

/// FNV-1a over everything fed to it.
struct Fold(u64);

impl Fold {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn latency(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }

    fn histogram(&mut self, h: &LatencyHistogram) {
        for c in h.counts {
            self.u64(c);
        }
        self.u64(h.samples);
        self.latency(h.total);
        self.latency(h.max);
    }

    fn metrics(&mut self, m: &ProtocolMetrics) {
        for v in [
            m.sends,
            m.retries,
            m.timeouts,
            m.duplicates_resent,
            m.replays_accepted,
            m.replays_rejected,
            m.resyncs,
            m.giveups,
            m.corrupt_rejected,
            m.stale_content_ignored,
        ] {
            self.u64(v);
        }
        for h in [&m.hello, &m.submit, &m.interaction, &m.lifecycle] {
            self.histogram(h);
        }
    }

    /// Folds a flow result: `Ok` through `ok`, `Err` by its `Debug` text.
    fn outcome<T, E: std::fmt::Debug>(&mut self, r: &Result<T, E>, ok: impl FnOnce(&mut Self, &T)) {
        match r {
            Ok(v) => {
                self.str("ok");
                ok(self, v);
            }
            Err(e) => self.str(&format!("err {e:?}")),
        }
    }
}

fn adversaries() -> Vec<Adversary> {
    vec![
        Adversary::None,
        Adversary::Replayer,
        Adversary::Dropper { period: 3 },
        Adversary::RandomLoss { loss: 0.15 },
        Adversary::BurstLoss {
            start: 0.1,
            burst: 3,
        },
        Adversary::Jitter { max_extra_ms: 40 },
        Adversary::Reorderer {
            period: 3,
            extra_ms: 400,
        },
        Adversary::Corruptor { period: 4 },
    ]
}

/// Runs every lock-step flow under `adversary` and folds what it reports.
fn fold_flows(fold: &mut Fold, adversary: Adversary, seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut world = World::with_adversary(adversary, &mut rng);
    let tracer = world.enable_tracing();
    world.add_server("bank.com", &mut rng);
    let old = world.add_device("old-phone", 42, &mut rng);

    let reg = world.register(old, "bank.com", "alice", &mut rng);
    fold.outcome(&reg, |f, r| {
        f.latency(r.latency);
        f.metrics(&r.metrics);
    });
    let login = world.login(old, "bank.com", &mut rng);
    fold.outcome(&login, |f, r| {
        f.latency(r.latency);
        f.metrics(&r.metrics);
    });
    let session = world.run_session(old, "bank.com", 10, &mut rng);
    fold.outcome(&session, |f, r| {
        f.latency(r.latency);
        f.metrics(&r.metrics);
    });

    let new = world.add_device("new-phone", 42, &mut rng);
    let password = world
        .server(0)
        .reset_password_for("alice")
        .map(str::to_owned)
        .unwrap_or_default();
    // A wrong fallback password is a conclusive server reject.
    let refused = world.reset_and_rebind("bank.com", "alice", "wrong-password", new, &mut rng);
    fold.outcome(&refused, |f, r| f.latency(r.latency));
    let reset = world.reset_and_rebind("bank.com", "alice", &password, new, &mut rng);
    fold.outcome(&reset, |f, r| {
        f.latency(r.latency);
        f.metrics(&r.metrics);
        f.latency(r.rebind.latency);
        f.metrics(&r.rebind.metrics);
    });

    let spare = world.add_device("spare-phone", 42, &mut rng);
    // A stranger's fingerprint fails authorization after the offer leg.
    let refused = world.transfer(new, spare, 31_337, &mut rng);
    fold.outcome(&refused, |f, r| f.latency(r.latency));
    let transfer = world.transfer(new, spare, 42, &mut rng);
    fold.outcome(&transfer, |f, r| {
        f.latency(r.latency);
        f.metrics(&r.metrics);
    });

    let chaos_dev = world.add_device("chaos-phone", 7, &mut rng);
    let chaos = world.run_chaos_lifecycle(
        chaos_dev,
        "bank.com",
        "carol",
        10,
        CrashProfile::uniform(0.1),
        &mut rng,
    );
    fold.outcome(&chaos, |f, r| {
        f.latency(r.latency);
        f.metrics(&r.metrics);
    });

    let mut trace = Sha256::new();
    for ev in tracer.events() {
        trace.update(event_json(&ev).as_bytes());
        trace.update(b"\n");
    }
    fold.bytes(&trace.finalize().0);
}

#[test]
fn protocol_accounting_matches_the_golden_pin() {
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);
    for (i, adversary) in adversaries().into_iter().enumerate() {
        fold_flows(&mut fold, adversary, 1_000 + i as u64);
    }
    assert_eq!(
        fold.0, GOLDEN,
        "folded accounting drifted: {:#018x}",
        fold.0
    );
}
