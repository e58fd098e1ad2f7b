//! Lock-step is a window of one: a session's nonces are derived per slot
//! from its key, so the verdict the server gives every request it can see
//! — fresh work, retransmits, rebuilds after a lost reply, tampering,
//! stale and future slots, replayed and forged nonces, bad MACs — is
//! pinned in one table, with the rejections it counts. The table runs on
//! a live server, then again after journal recovery and after a snapshot
//! restore.

use btd_crypto::nonce::Nonce;
use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::messages::{ContentPage, Freshness, InteractionRequest, Reject};
use trust_core::World;

const DOMAIN: &str = "www.xyz.com";

type Verdict = Result<Freshness, Reject>;

/// One world with a registered account and a lock-step session.
struct Rig {
    world: World,
    server: usize,
    device: usize,
    rng: SimRng,
    /// The last request the variants served fresh.
    last: Option<InteractionRequest>,
}

impl Rig {
    fn new() -> Rig {
        let mut rng = SimRng::seed_from(0x51DE);
        let mut world = World::with_adversary(Adversary::None, &mut rng);
        let server = world.add_server(DOMAIN, &mut rng);
        let device = world.add_device("phone-1", 7, &mut rng);
        world
            .register(device, DOMAIN, "alice", &mut rng)
            .expect("register");
        world.login(device, DOMAIN, &mut rng).expect("login");
        Rig {
            world,
            server,
            device,
            rng,
            last: None,
        }
    }

    /// The device's request for its current slot.
    fn build(&mut self, action: &str) -> InteractionRequest {
        self.world
            .device_mut(self.device)
            .build_interaction(DOMAIN, action)
            .expect("build")
    }

    fn deliver(&mut self, reply: &ContentPage) {
        self.world
            .device_mut(self.device)
            .accept_content(DOMAIN, reply)
            .expect("accept");
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

    /// The pinned table, and the rejections it counts on a server whose
    /// counters started at zero.
    fn check(&mut self, stage: &str) {
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
        assert_eq!(self.variants(), expected, "{stage}");
        assert_eq!(
            self.reject_counts(),
            vec![
                (Reject::BadMac, 2),
                (Reject::Replay, 2),
                (Reject::UnknownNonce, 2)
            ],
            "{stage}: reject counts"
        );
    }

    /// The reply cache came through a restart: the last request is still
    /// a resend.
    fn last_is_resent(&mut self, stage: &str) {
        let last = self.last.clone().expect("served before");
        assert_eq!(self.send(&last).0, Ok(Freshness::Resent), "{stage}");
    }
}

#[test]
fn lock_step_verdicts_hold_live_after_recovery_and_after_restore() {
    let mut rig = Rig::new();
    rig.check("live");

    // Journal recovery: every shard replays its records. Reject counters
    // are observability state and restart empty.
    let report = rig
        .world
        .server_mut(rig.server)
        .recover_in_place(&mut rig.rng);
    assert_eq!(report.snapshots_restored(), 0);
    rig.last_is_resent("after journal recovery");
    rig.check("after journal recovery");

    // Snapshot restore: compaction folds the records into snapshots.
    let server = rig.world.server_mut(rig.server);
    server.compact_journal();
    let report = server.recover_in_place(&mut rig.rng);
    assert!(report.snapshots_restored() > 0);
    assert_eq!(report.records_replayed(), 0);
    rig.last_is_resent("after snapshot restore");
    rig.check("after snapshot restore");
}

#[test]
fn recovered_server_serves_the_next_lock_step_request_with_nothing_reissued() {
    let mut rig = Rig::new();
    let first = rig.build("/inbox");
    let (verdict, reply) = rig.send(&first);
    assert_eq!(verdict, Ok(Freshness::Fresh));
    rig.deliver(&reply.expect("served"));

    let server = rig.world.server_mut(rig.server);
    server.recover_in_place(&mut rig.rng);
    assert_eq!(
        server.resident_stats().issued_nonces,
        0,
        "recovery issues no challenge"
    );

    // No resume round: the device's next request carries the derived
    // nonce of its slot, and the recovered server serves it fresh.
    let next = rig.build("/settings");
    let (verdict, reply) = rig.send(&next);
    assert_eq!(verdict, Ok(Freshness::Fresh));
    rig.deliver(&reply.expect("served"));
    assert_eq!(
        rig.world.device(rig.device).session_seq(DOMAIN),
        Some(2),
        "both slots applied"
    );
}
