//! The device's reply acceptor, row by row: a lock-step session (a window
//! of one) is fed a table of authentic replies — the login page, the
//! reply to the current request, a reply healed inside a resume ack, a
//! duplicate of the reply just applied, replies one and two slots ahead,
//! one below the base, and a copy with a bad MAC. Each row pins the
//! acceptor's result, the session's sequence number afterwards, and the
//! `ContentAccepted` / `WindowAdvance` events the delivery recorded: the
//! device records no `WindowAdvance` (the pipelined engine does), so a
//! lock-step trace gains none.
//!
//! The same table is run twice: once on the session as login leaves it,
//! driven through `build_interaction`, and once on a session switched to
//! a window of one by hand and driven through `windowed_request`. Both
//! must give every row the same result, since lock-step is a window of
//! one.
//!
//! Every row starts from its own freshly built world, so a row that moves
//! the session cannot shift the rows after it. Replies ahead of the base
//! come from a twin world built from the same seed, which serves a few
//! more slots than the world under test.

use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::messages::ContentPage;
use trust_core::trace::{EventKind, Tracer};
use trust_core::World;

const DOMAIN: &str = "www.xyz.com";
const HOLDER: u64 = 7;
/// Slots served and applied before a row's reply is delivered.
const BASE: usize = 2;

/// One world with a registered account and a lock-step session.
struct Rig {
    world: World,
    server: usize,
    device: usize,
    /// Whether the session is driven through the explicit window-1 calls.
    windowed: bool,
    tracer: Tracer,
}

impl Rig {
    /// Registers the account and opens the session by hand, returning the
    /// login page undelivered.
    fn new(windowed: bool) -> (Rig, ContentPage) {
        let mut rng = SimRng::seed_from(0xACC3);
        let mut world = World::with_adversary(Adversary::None, &mut rng);
        let server = world.add_server(DOMAIN, &mut rng);
        let device = world.add_device("phone-1", HOLDER, &mut rng);
        let tracer = world.enable_tracing();
        world
            .register(device, DOMAIN, "alice", &mut rng)
            .expect("register");
        let hello = world.server_mut(server).hello("/login");
        let submit = world
            .device_mut(device)
            .begin_login(&hello, HOLDER, &mut rng)
            .expect("begin login");
        let (page, _) = world
            .server_mut(server)
            .handle_login(&submit)
            .expect("login served");
        let rig = Rig {
            world,
            server,
            device,
            windowed,
            tracer,
        };
        (rig, page)
    }

    /// A rig whose session has applied the login page and the replies to
    /// `slots` requests; returns those replies in slot order.
    fn at_base(windowed: bool, slots: usize) -> (Rig, Vec<ContentPage>) {
        let (mut rig, page) = Rig::new(windowed);
        rig.deliver(&page).expect("login page");
        if windowed {
            rig.world
                .device_mut(rig.device)
                .enable_window(DOMAIN, 1)
                .expect("enable window");
        }
        let replies = (0..slots)
            .map(|_| {
                let reply = rig.serve("/inbox");
                rig.deliver(&reply).expect("in-order reply");
                reply
            })
            .collect();
        (rig, replies)
    }

    /// Serves the device's request for its current slot, returning the
    /// reply undelivered.
    fn serve(&mut self, action: &str) -> ContentPage {
        let device = self.world.device_mut(self.device);
        let request = if self.windowed {
            let slot = device.session_seq(DOMAIN).expect("session");
            device
                .windowed_request(DOMAIN, action, slot)
                .expect("windowed build")
        } else {
            device.build_interaction(DOMAIN, action).expect("build")
        };
        self.world
            .server_mut(self.server)
            .handle_interaction(&request)
            .expect("served")
            .0
    }

    /// Feeds one reply through the acceptor, rendering its verdict.
    fn deliver(&mut self, reply: &ContentPage) -> Result<String, String> {
        self.world
            .device_mut(self.device)
            .accept_windowed_content(DOMAIN, reply)
            .map(|accept| format!("{accept:?}"))
            .map_err(|e| format!("{e:?}"))
    }

    /// Loses the reply to the current request, then resumes: the ack
    /// carries the lost reply, which the device applies.
    fn resume_healing_the_current_slot(&mut self) -> Result<String, String> {
        let _lost = self.serve("/transfer");
        let request = self
            .world
            .device_mut(self.device)
            .begin_resume(DOMAIN)
            .expect("begin resume");
        let (ack, _) = self
            .world
            .server_mut(self.server)
            .handle_resume(&request)
            .expect("resume served");
        assert!(ack.last_reply.is_some(), "the ack heals the lost reply");
        self.world
            .device_mut(self.device)
            .accept_resume(DOMAIN, &ack)
            .map(|()| "Ok".to_owned())
            .map_err(|e| format!("{e:?}"))
    }
}

/// What one row pins.
#[derive(PartialEq, Debug)]
struct Outcome {
    result: Result<String, String>,
    seq: Option<u64>,
    events: Vec<String>,
}

/// Runs `deliver` on `rig` and pins what it did.
fn pin(mut rig: Rig, deliver: impl FnOnce(&mut Rig) -> Result<String, String>) -> Outcome {
    rig.tracer.drain();
    let result = deliver(&mut rig);
    let events = rig
        .tracer
        .drain()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::ContentAccepted { seq } => Some(format!("accepted {seq}")),
            EventKind::WindowAdvance { base, applied } => {
                Some(format!("advance base={base} applied={applied}"))
            }
            _ => None,
        })
        .collect();
    let seq = rig.world.device(rig.device).session_seq(DOMAIN);
    Outcome {
        result,
        seq,
        events,
    }
}

/// Runs `deliver` on a fresh rig at [`BASE`] and pins what it did.
fn row(windowed: bool, deliver: impl FnOnce(&mut Rig) -> Result<String, String>) -> Outcome {
    pin(Rig::at_base(windowed, BASE).0, deliver)
}

fn outcome(result: Result<&str, &str>, seq: u64, events: &[&str]) -> Outcome {
    Outcome {
        result: result.map(str::to_owned).map_err(str::to_owned),
        seq: Some(seq),
        events: events.iter().map(|e| (*e).to_owned()).collect(),
    }
}

/// The table for a lock-step session: `(row name, observed)`.
fn table(windowed: bool) -> Vec<(&'static str, Outcome)> {
    // Slots 0..BASE are applied; a twin of the rig under test serves
    // three more.
    let (_, replies) = Rig::at_base(windowed, BASE + 3);
    let base_reply = replies[BASE].clone();
    let mut rows = Vec::new();

    let (rig, page) = Rig::new(windowed);
    rows.push(("login page", pin(rig, |rig| rig.deliver(&page))));
    rows.push(("base reply", row(windowed, |rig| rig.deliver(&base_reply))));
    rows.push((
        "healed reply inside a resume ack",
        row(windowed, Rig::resume_healing_the_current_slot),
    ));
    rows.push((
        "duplicate of the reply just applied",
        row(windowed, |rig| rig.deliver(&replies[BASE - 1])),
    ));
    rows.push((
        "one slot ahead",
        row(windowed, |rig| rig.deliver(&replies[BASE + 1])),
    ));
    rows.push((
        "two slots ahead",
        row(windowed, |rig| rig.deliver(&replies[BASE + 2])),
    ));
    rows.push((
        "below base",
        row(windowed, |rig| rig.deliver(&replies[BASE - 2])),
    ));
    let mut bad_mac = base_reply.clone();
    bad_mac.mac.0[0] ^= 1;
    rows.push(("bad MAC", row(windowed, |rig| rig.deliver(&bad_mac))));
    rows
}

/// Checks the table for one way of driving the session against the one
/// expected table.
fn check(windowed: bool) {
    let applied = "Applied { applied: 1 }";
    let expected = vec![
        ("login page", outcome(Ok(applied), 0, &["accepted 0"])),
        ("base reply", outcome(Ok(applied), 3, &["accepted 3"])),
        (
            "healed reply inside a resume ack",
            outcome(Ok("Ok"), 3, &["accepted 3"]),
        ),
        // A credit of one slot: the copies below and past it are stale.
        // No lock-step flow hands these to the device.
        (
            "duplicate of the reply just applied",
            outcome(Ok("Stale"), 2, &[]),
        ),
        ("one slot ahead", outcome(Ok("Stale"), 2, &[])),
        ("two slots ahead", outcome(Ok("Stale"), 2, &[])),
        ("below base", outcome(Ok("Stale"), 2, &[])),
        ("bad MAC", outcome(Err("BadServerMac"), 2, &[])),
    ];
    let observed = table(windowed);
    assert_eq!(observed.len(), expected.len());
    for ((name, got), (want_name, want)) in observed.iter().zip(&expected) {
        assert_eq!(name, want_name);
        assert_eq!(got, want, "windowed {windowed}, row {name:?}");
    }
}

#[test]
fn lock_step_acceptor_table() {
    check(false);
}

#[test]
fn window_one_acceptor_table() {
    check(true);
}
