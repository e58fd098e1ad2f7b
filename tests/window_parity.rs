//! Lock-step is a window of one: a session opened with window 0 (the
//! Fig. 10 stop-and-wait flow, nonces issued by the server) and one opened
//! with window 1 (nonces derived per slot from the session key) must give
//! the same verdict to every request the server can see — fresh work,
//! retransmits, rebuilds after a lost reply, tampering, stale and future
//! slots, replayed and forged nonces, bad MACs — and count the same
//! rejections. The table runs on a live server, then again after journal
//! recovery and after a snapshot restore.

use btd_crypto::nonce::Nonce;
use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::messages::{ContentPage, Freshness, InteractionRequest, Reject};
use trust_core::World;

const DOMAIN: &str = "www.xyz.com";

type Verdict = Result<Freshness, Reject>;

/// One world with a registered account and a session opened at `window`.
struct Rig {
    world: World,
    server: usize,
    device: usize,
    window: u64,
    rng: SimRng,
    /// The last request the variants served fresh.
    last: Option<InteractionRequest>,
}

impl Rig {
    fn new(window: u64) -> Rig {
        let mut rng = SimRng::seed_from(0x51DE);
        let mut world = World::with_adversary(Adversary::None, &mut rng);
        let server = world.add_server(DOMAIN, &mut rng);
        let device = world.add_device("phone-1", 7, &mut rng);
        world
            .register(device, DOMAIN, "alice", &mut rng)
            .expect("register");
        if window == 0 {
            world.login(device, DOMAIN, &mut rng).expect("login");
        } else {
            world
                .login_windowed(device, DOMAIN, window, &mut rng)
                .expect("windowed login");
        }
        Rig {
            world,
            server,
            device,
            window,
            rng,
            last: None,
        }
    }

    /// The device's request for its current slot.
    fn build(&mut self, action: &str) -> InteractionRequest {
        let device = self.world.device_mut(self.device);
        if self.window == 0 {
            device.build_interaction(DOMAIN, action).expect("build")
        } else {
            let slot = device.session_seq(DOMAIN).expect("session");
            device
                .windowed_request(DOMAIN, action, slot)
                .expect("windowed build")
        }
    }

    fn deliver(&mut self, reply: &ContentPage) {
        let device = self.world.device_mut(self.device);
        if self.window == 0 {
            device.accept_content(DOMAIN, reply).expect("accept");
        } else {
            device
                .accept_windowed_content(DOMAIN, reply)
                .expect("accept windowed");
        }
    }

    fn send(&mut self, req: &InteractionRequest) -> (Verdict, Option<ContentPage>) {
        match self.world.server_mut(self.server).handle_interaction(req) {
            Ok((reply, freshness)) => (Ok(freshness), Some(reply)),
            Err(reject) => (Err(reject), None),
        }
    }

    /// Runs every request variant once, in a fixed order, and returns the
    /// verdicts by name. Leaves the device in sync with the server.
    fn variants(&mut self) -> Vec<(&'static str, Verdict)> {
        let mut out = Vec::new();

        // Fresh work, reply delivered.
        let first = self.build("/inbox");
        let (v, reply) = self.send(&first);
        out.push(("fresh", v));
        self.deliver(&reply.expect("served"));

        // Fresh work whose reply is lost.
        let lost = self.build("/transfer");
        let (v, _) = self.send(&lost);
        out.push(("fresh, reply lost", v));

        let (v, _) = self.send(&lost);
        out.push(("byte-identical resend", v));

        // The device, still one reply behind, builds a new request for the
        // same slot: the server answers from its cache.
        let rebuilt = self.build("/settings");
        let (v, reply) = self.send(&rebuilt);
        out.push(("rebuilt after a lost reply", v));
        self.deliver(&reply.expect("resynced"));

        let mut tampered = lost.clone();
        tampered.action = "/home".into();
        out.push(("tampered copy of the cached slot", self.send(&tampered).0));

        out.push(("two behind", self.send(&first).0));

        let mut ahead = self.build("/home");
        ahead.seq += 1;
        out.push(("one ahead", self.send(&ahead).0));

        let mut consumed = self.build("/home");
        consumed.nonce = lost.nonce;
        out.push(("consumed nonce", self.send(&consumed).0));

        let mut forged = self.build("/home");
        forged.nonce = Nonce([0xAB; 16]);
        out.push(("never-issued nonce", self.send(&forged).0));

        let mut bad_mac = self.build("/home");
        bad_mac.mac.0[0] ^= 1;
        out.push(("bad MAC", self.send(&bad_mac).0));

        // The session still serves after every refusal.
        let last = self.build("/home");
        let (v, reply) = self.send(&last);
        out.push(("fresh after refusals", v));
        self.deliver(&reply.expect("served"));
        self.last = Some(last);
        out
    }

    fn reject_counts(&self) -> Vec<(Reject, u64)> {
        let mut counts: Vec<_> = self
            .world
            .server(self.server)
            .reject_counts()
            .iter()
            .map(|(r, n)| (*r, *n))
            .collect();
        counts.sort_by_key(|(r, _)| format!("{r:?}"));
        counts
    }
}

fn assert_parity(stage: &str, lock_step: &mut Rig, windowed: &mut Rig) {
    // The reply cache came through: the last request is still a resend.
    for rig in [&mut *lock_step, &mut *windowed] {
        let last = rig.last.clone().expect("served before");
        let verdict = rig.send(&last).0;
        assert_eq!(
            verdict,
            Ok(Freshness::Resent),
            "{stage}: window {}",
            rig.window
        );
    }
    let a = lock_step.variants();
    let b = windowed.variants();
    for ((name, va), (_, vb)) in a.iter().zip(&b) {
        assert_eq!(va, vb, "{stage}: {name}: window 0 vs window 1");
    }
    assert_eq!(
        lock_step.reject_counts(),
        windowed.reject_counts(),
        "{stage}: reject counts"
    );
}

#[test]
fn window_zero_and_window_one_give_the_same_verdicts() {
    let mut lock_step = Rig::new(0);
    let mut windowed = Rig::new(1);

    let expected: Vec<(&str, Verdict)> = vec![
        ("fresh", Ok(Freshness::Fresh)),
        ("fresh, reply lost", Ok(Freshness::Fresh)),
        ("byte-identical resend", Ok(Freshness::Resent)),
        ("rebuilt after a lost reply", Ok(Freshness::Resync)),
        ("tampered copy of the cached slot", Err(Reject::BadMac)),
        ("two behind", Err(Reject::Replay)),
        ("one ahead", Err(Reject::UnknownNonce)),
        ("consumed nonce", Err(Reject::Replay)),
        ("never-issued nonce", Err(Reject::UnknownNonce)),
        ("bad MAC", Err(Reject::BadMac)),
        ("fresh after refusals", Ok(Freshness::Fresh)),
    ];
    let live = lock_step.variants();
    assert_eq!(live, expected, "window 0 verdicts");
    assert_eq!(windowed.variants(), expected, "window 1 verdicts");
    assert_eq!(lock_step.reject_counts(), windowed.reject_counts());

    // Journal recovery: every shard replays its records.
    for rig in [&mut lock_step, &mut windowed] {
        let report = rig
            .world
            .server_mut(rig.server)
            .recover_in_place(&mut rig.rng);
        assert_eq!(report.snapshots_restored(), 0);
    }
    assert_parity("after journal recovery", &mut lock_step, &mut windowed);

    // Snapshot restore: compaction folds the records into snapshots.
    for rig in [&mut lock_step, &mut windowed] {
        let server = rig.world.server_mut(rig.server);
        server.compact_journal();
        let report = server.recover_in_place(&mut rig.rng);
        assert!(report.snapshots_restored() > 0);
        assert_eq!(report.records_replayed(), 0);
    }
    assert_parity("after snapshot restore", &mut lock_step, &mut windowed);
}
