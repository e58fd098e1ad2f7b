//! Event-driven pipelined protocol engine.
//!
//! The stop-and-wait flows in [`crate::auth`] drive one exchange at a time:
//! the device blocks on each reply, so a lossy link serializes every
//! timeout into the session's critical path. This module replaces that
//! loop with a discrete-event runner on top of
//! [`btd_sim::event::EventQueue`]: device sends, server arrivals, reply
//! deliveries, per-slot retransmission timers, and crash recoveries are
//! all scheduled events on one deterministic timeline, and interactions
//! flow through a sliding window of pipelined sequence numbers
//! ([`MobileDevice::windowed_request`] /
//! [`MobileDevice::accept_windowed_content`] on the device, the
//! reply-window idempotency cache on the server).
//!
//! Selective retransmission: each in-flight slot owns its own timer; only
//! the slot whose reply is missing is retransmitted
//! ([`crate::trace::EventKind::SelectiveRetransmit`]), while replies for
//! later slots are buffered device-side and reconciled when the base slot
//! lands (cumulative ack, surfaced as
//! [`crate::trace::EventKind::WindowAdvance`]). Exactly-once per slot is
//! the server's reply-window membership test, so `replays_accepted` stays
//! zero under loss, duplication, and reordering — same as the lock-step
//! protocol, but without its serial round trips.
//!
//! Metrics parity: every outcome is one emit of the same trace event the
//! lock-step [`crate::auth::exchange`] loop would record, folded into the
//! live [`ProtocolMetrics`] as it is recorded, so
//! [`crate::trace::derive_metrics`] over the event stream reproduces the
//! live counters exactly (pinned by `tests/prop_window.rs`).
//! With `window == 1` the engine degenerates to stop-and-wait on the event
//! timeline, which is the baseline row of the goodput ablation.

use std::collections::{BTreeMap, HashMap};

use btd_sim::event::EventQueue;
use btd_sim::rng::SimRng;
use btd_sim::time::{SimDuration, SimTime};
use btd_workload::session::TouchSample;

use crate::auth::login;
use crate::channel::Channel;
use crate::device::{DeviceError, MobileDevice, WindowAccept};
use crate::messages::{ContentPage, Freshness, InteractionRequest, Reject};
use crate::metrics::{Phase, ProtocolMetrics, RetryPolicy};
use crate::registration::{register, FlowError};
use crate::server::journal::{CrashProfile, CrashSchedule};
use crate::server::WebServer;
use crate::trace::{derive_metrics, DuplicateVerdict, EventKind, Tracer};

/// How many full retry cycles (each `max_attempts` transmissions) a slot
/// is re-armed after a give-up before the run is declared stuck. Mirrors
/// the chaos harness's stage bound.
const MAX_ROUNDS: u32 = 32;

/// How long after a crash is first observed the operator restart fires.
const RECOVERY_DELAY: SimDuration = SimDuration::from_millis(200);

/// Spacing between initial fleet spawns, so 100k lifecycles do not all
/// collide on the same instant.
const SPAWN_STAGGER: SimDuration = SimDuration::from_millis(1);

/// How long after a risk-policy termination the owner re-authenticates
/// (fleet mode): the re-login prompt is a user-visible interruption, not
/// an instant retry.
const REAUTH_DELAY: SimDuration = SimDuration::from_millis(150);

/// Rejects worth retrying with the undamaged original (transit damage);
/// mirrors the lock-step exchange's classification.
fn transit_retryable(reject: Reject) -> bool {
    matches!(reject, Reject::BadMac | Reject::UnknownNonce)
}

/// Flow outcomes a blocking stage (register / login / re-login) survives
/// by running the flow again. Losses burn the round as before; a
/// biometric false rejection or a risk-policy bounce is answered the way
/// a real owner answers it — touch the sensor again and retry, which
/// feeds fresh genuine evidence through the k-of-n window. At fleet scale
/// these tails are guaranteed to appear (FRR is small but not zero), so
/// treating them as conclusive would fail lifecycles for behaving exactly
/// as the paper's continuous-auth model says they should.
fn transient_flow(err: &FlowError) -> bool {
    matches!(
        err,
        FlowError::NetworkDropped
            | FlowError::Device(DeviceError::BiometricRejected)
            | FlowError::Server(Reject::RiskTerminated)
    )
}

/// Everything scheduled on the engine's timeline.
///
/// The `epoch` carried by in-session events is the session generation the
/// event was scheduled under; a risk-policy re-authentication bumps the
/// run's epoch, stranding every in-flight send, arrival, and timer of the
/// terminated session (they drain as no-ops, exactly as if the wire had
/// eaten them).
enum Ev {
    /// Bring lifecycle `dev` up (fleet mode): provision, register, login.
    Spawn { dev: u64 },
    /// The device transmits (or retransmits) the request for `slot`.
    Send {
        dev: u64,
        slot: u64,
        attempt: u32,
        epoch: u32,
    },
    /// One copy of a request reaches the server.
    ServerRx {
        dev: u64,
        req: Box<InteractionRequest>,
        slot: u64,
        attempt: u32,
        sent_at: SimTime,
        dup: bool,
        epoch: u32,
    },
    /// One copy of a reply reaches the device.
    DeviceRx {
        dev: u64,
        reply: Box<ContentPage>,
        slot: u64,
        attempt: u32,
        sent_at: SimTime,
        epoch: u32,
    },
    /// Slot `slot`'s per-attempt retransmission timer fires.
    Timer {
        dev: u64,
        slot: u64,
        attempt: u32,
        epoch: u32,
    },
    /// The operator restarts the crashed server from its journals.
    Recover,
    /// The owner re-authenticates after a risk-policy termination (fleet
    /// mode): a fresh login opens a new session and the unserved slots
    /// ride again under it.
    Reauth { dev: u64 },
}

/// Per-slot device-side protocol state.
#[derive(Clone, Copy, Default)]
struct SlotState {
    /// The slot's touch has been observed (exactly once).
    observed: bool,
    /// An authentic reply for this slot has been accepted (possibly still
    /// buffered out of order); retransmission stops here.
    acked: bool,
    /// The slot is settled: applied to the session, or conclusively dead.
    done: bool,
    /// Current attempt number (stale timers and sends are ignored).
    attempt: u32,
    /// Give-up re-arm cycles consumed.
    round: u32,
}

/// One device's windowed browsing session as the engine tracks it.
struct SessionRun {
    /// Absolute sequence number of slot index 0.
    base0: u64,
    slots: Vec<SlotState>,
    /// Each slot's request, pinned at first build: selective retransmits
    /// resend the *same bytes* (same frame hash, same MAC), so the server
    /// answers them as [`Freshness::Resent`] and the offline audit sees
    /// one committed frame per slot.
    requests: Vec<Option<InteractionRequest>>,
    /// Slots whose first `Send` has been scheduled.
    scheduled: usize,
    touches: Vec<TouchSample>,
    /// Account driving the session (fleet close + audit).
    account: Option<String>,
    attempted: u64,
    served: u64,
    /// Interactions this lifecycle owes in total; survives the slot
    /// rebuild a re-authentication performs.
    total: u64,
    rejects: Vec<Reject>,
    terminated: bool,
    failure: Option<FlowError>,
    /// Session generation: bumped on re-authentication so events from the
    /// terminated session are recognizably stale.
    epoch: u32,
    /// Risk-policy terminations this lifecycle absorbed by logging in
    /// again (bounded by [`MAX_ROUNDS`]).
    terminations: u64,
    /// Owner user id, needed to drive the re-login flow (fleet mode).
    owner: u64,
    /// Whether a risk termination triggers re-authentication (fleet mode)
    /// instead of ending the run (single-session mode).
    reauth: bool,
}

impl SessionRun {
    fn new(base0: u64, touches: Vec<TouchSample>, account: Option<String>) -> Self {
        let total = touches.len() as u64;
        SessionRun {
            base0,
            slots: vec![SlotState::default(); touches.len()],
            requests: vec![None; touches.len()],
            scheduled: 0,
            touches,
            account,
            attempted: 0,
            served: 0,
            total,
            rejects: Vec::new(),
            terminated: false,
            failure: None,
            epoch: 0,
            terminations: 0,
            owner: 0,
            reauth: false,
        }
    }

    fn idx(&self, slot: u64) -> usize {
        (slot - self.base0) as usize
    }

    /// Every slot applied or conclusively dead.
    fn settled(&self) -> bool {
        self.slots.iter().all(|s| s.done)
    }

    /// The run can make no further progress on its own.
    fn finished(&self) -> bool {
        self.terminated || self.failure.is_some() || self.settled()
    }
}

/// Shared engine state: the server, the channel, the clock, the queue,
/// and the run-wide accounting.
struct Core<'a> {
    server: &'a mut WebServer,
    channel: &'a mut Channel,
    policy: &'a RetryPolicy,
    tracer: Tracer,
    domain: String,
    actions: Vec<String>,
    window: u64,
    queue: EventQueue<Ev>,
    now: SimTime,
    metrics: ProtocolMetrics,
    profile: Option<CrashProfile>,
    recover_pending: bool,
    crashes: u64,
    records_skipped: u64,
}

impl Core<'_> {
    /// Schedules the first `Send` for every slot the window now covers.
    fn fill_window(&mut self, dev: u64, run: &mut SessionRun, base: u64) {
        while run.scheduled < run.slots.len()
            && run.base0 + (run.scheduled as u64) < base.saturating_add(self.window)
        {
            let slot = run.base0 + run.scheduled as u64;
            self.queue.schedule(
                self.now,
                Ev::Send {
                    dev,
                    slot,
                    attempt: 0,
                    epoch: run.epoch,
                },
            );
            run.scheduled += 1;
        }
    }

    /// Transmits (or retransmits) `slot`'s request and arms its timer.
    #[allow(clippy::too_many_arguments)]
    fn on_send(
        &mut self,
        dev: u64,
        device: &mut MobileDevice,
        run: &mut SessionRun,
        slot: u64,
        attempt: u32,
        epoch: u32,
        rng: &mut SimRng,
    ) {
        if epoch != run.epoch || run.finished() {
            return;
        }
        let i = run.idx(slot);
        if run.slots[i].done || run.slots[i].acked || run.slots[i].attempt != attempt {
            return;
        }
        if !run.slots[i].observed {
            // The touch is biometric evidence: fed exactly once, however
            // many times the request it produced is retransmitted.
            device.observe_touch(&run.touches[i], rng);
            run.slots[i].observed = true;
            run.attempted += 1;
        }
        self.tracer
            .emit(&mut self.metrics, EventKind::Send { attempt });
        if attempt > 0 || run.slots[i].round > 0 {
            self.tracer
                .record(EventKind::SelectiveRetransmit { seq: slot, attempt });
        }
        if run.requests[i].is_none() {
            let action = self.actions[i % self.actions.len()].clone();
            match device.windowed_request(&self.domain, &action, slot) {
                Ok(request) => run.requests[i] = Some(request),
                Err(err) => {
                    run.slots[i].done = true;
                    run.failure = Some(err.into());
                    return;
                }
            }
        }
        let request = run.requests[i].clone().expect("request pinned above");
        let sent_at = self.now;
        for (copy, arrival) in self.channel.transmit(request).into_iter().enumerate() {
            self.queue.schedule(
                self.now + arrival.delay,
                Ev::ServerRx {
                    dev,
                    req: Box::new(arrival.msg),
                    slot,
                    attempt,
                    sent_at,
                    dup: copy > 0,
                    epoch: run.epoch,
                },
            );
        }
        self.queue.schedule(
            self.now + self.policy.timeout,
            Ev::Timer {
                dev,
                slot,
                attempt,
                epoch: run.epoch,
            },
        );
    }

    /// A request copy reaches the server: serve it, classify duplicates,
    /// and put the reply (if any) on the wire.
    #[allow(clippy::too_many_arguments)]
    fn on_server_rx(
        &mut self,
        dev: u64,
        run: &mut SessionRun,
        req: &InteractionRequest,
        slot: u64,
        attempt: u32,
        sent_at: SimTime,
        dup: bool,
        epoch: u32,
    ) {
        if epoch != run.epoch {
            // A copy from the terminated session still in flight: the
            // re-login already replaced that session, so the request is
            // dead on arrival (as if the wire had eaten it).
            return;
        }
        let result = self.server.handle_interaction(req);
        if dup {
            // Adversary-injected duplicate: the server's verdict on it is
            // the replay-defense scoreboard, exactly as in the lock-step
            // exchange. Its reply (if any) is not transmitted.
            let verdict = match result {
                Ok((_, Freshness::Fresh)) => DuplicateVerdict::AcceptedFresh,
                Ok((_, Freshness::Resent | Freshness::Resync)) => DuplicateVerdict::Resent,
                // A dead server renders no verdict.
                Err(Reject::ServerCrashed) => return,
                Err(_) => DuplicateVerdict::Rejected,
            };
            self.tracer
                .emit(&mut self.metrics, EventKind::Duplicate { verdict });
            return;
        }
        match result {
            Ok((reply, freshness)) => {
                if freshness != Freshness::Fresh {
                    self.tracer.emit(&mut self.metrics, EventKind::Resync);
                }
                let mut arrivals = self.channel.transmit(reply).into_iter();
                if let Some(first) = arrivals.next() {
                    self.queue.schedule(
                        self.now + first.delay,
                        Ev::DeviceRx {
                            dev,
                            reply: Box::new(first.msg),
                            slot,
                            attempt,
                            sent_at,
                            epoch: run.epoch,
                        },
                    );
                    let stale = arrivals.count() as u64;
                    if stale > 0 {
                        self.tracer
                            .emit(&mut self.metrics, EventKind::StaleContent { copies: stale });
                    }
                }
                // Every reply copy destroyed: the slot's timer drives the
                // retransmit, answered from the server's reply window.
            }
            Err(Reject::ServerCrashed) => {
                // No reply will ever come; the attempt burns via its
                // timer. One operator restart is scheduled per outage.
                if !self.recover_pending {
                    self.recover_pending = true;
                    self.queue.schedule(self.now + RECOVERY_DELAY, Ev::Recover);
                }
            }
            Err(reject) if transit_retryable(reject) => {
                let refusal = EventKind::CorruptReject {
                    attempt,
                    reason: reject,
                    backoff_ms: self.policy.backoff(attempt).as_millis(),
                };
                self.tracer.emit(&mut self.metrics, refusal);
                let delay = self.channel.latency + self.policy.backoff(attempt);
                self.burn(dev, run, slot, attempt, delay);
            }
            Err(reject) => {
                if reject == Reject::RiskTerminated
                    && run.reauth
                    && run.terminations < u64::from(MAX_ROUNDS)
                {
                    // The continuous-auth layer pulled the plug on this
                    // session — the honest-user false-rejection tail, which
                    // a fleet-sized run is guaranteed to sample. The owner
                    // answers it the way the paper prescribes: explicit
                    // re-authentication. Strand the dead session's traffic
                    // and schedule a fresh login; unserved slots ride again
                    // under the new session.
                    run.terminations += 1;
                    run.epoch += 1;
                    self.queue
                        .schedule(self.now + REAUTH_DELAY, Ev::Reauth { dev });
                    return;
                }
                let i = run.idx(slot);
                run.slots[i].done = true;
                run.rejects.push(reject);
                if reject == Reject::RiskTerminated {
                    run.terminated = true;
                }
            }
        }
    }

    /// A reply copy reaches the device: reconcile it into the window.
    #[allow(clippy::too_many_arguments)]
    fn on_device_rx(
        &mut self,
        dev: u64,
        device: &mut MobileDevice,
        run: &mut SessionRun,
        reply: &ContentPage,
        slot: u64,
        attempt: u32,
        sent_at: SimTime,
        epoch: u32,
    ) {
        if epoch != run.epoch || run.finished() {
            return;
        }
        match device.accept_windowed_content(&self.domain, reply) {
            Err(_) => {
                // Damaged in transit; the undamaged original is worth
                // resending after the backoff.
                self.tracer
                    .emit(&mut self.metrics, EventKind::ReplyRejected { attempt });
                let delay = self.policy.backoff(attempt);
                self.burn(dev, run, slot, attempt, delay);
            }
            Ok(WindowAccept::Stale) => {
                self.tracer
                    .emit(&mut self.metrics, EventKind::StaleContent { copies: 1 });
            }
            Ok(WindowAccept::Buffered) => {
                // Out-of-order but in-window: the slot is served; only the
                // base slot's reply is still owed.
                self.ack(run, slot, sent_at);
            }
            Ok(WindowAccept::Applied { .. }) => {
                self.ack(run, slot, sent_at);
                let base = device.session_seq(&self.domain).unwrap_or(run.base0);
                for (i, state) in run.slots.iter_mut().enumerate() {
                    if run.base0 + i as u64 <= base.saturating_sub(1) {
                        state.done = true;
                    }
                }
                // The cumulative ack moved the base: new slots have credit.
                self.fill_window(dev, run, base);
            }
        }
    }

    /// Counts a slot as served exactly once and records its RTT.
    fn ack(&mut self, run: &mut SessionRun, slot: u64, sent_at: SimTime) {
        let i = run.idx(slot);
        if run.slots[i].acked || run.slots[i].done {
            return;
        }
        run.slots[i].acked = true;
        run.served += 1;
        let rtt = self.now.saturating_duration_since(sent_at);
        let served = EventKind::Served {
            phase: Phase::Interaction,
            rtt_nanos: rtt.as_nanos(),
        };
        self.tracer.emit(&mut self.metrics, served);
    }

    /// Slot `slot`'s timer fired with no acceptable reply: a timeout.
    fn on_timer(&mut self, dev: u64, run: &mut SessionRun, slot: u64, attempt: u32, epoch: u32) {
        if epoch != run.epoch || run.finished() {
            return;
        }
        let i = run.idx(slot);
        if run.slots[i].done || run.slots[i].acked || run.slots[i].attempt != attempt {
            return;
        }
        let timeout = EventKind::Timeout {
            attempt,
            backoff_ms: self.policy.backoff(attempt).as_millis(),
        };
        self.tracer.emit(&mut self.metrics, timeout);
        let delay = self.policy.backoff(attempt);
        self.burn(dev, run, slot, attempt, delay);
    }

    /// Burns `attempt` on `slot` and schedules the next transmission after
    /// `delay` — or gives up and re-arms the slot, bounded by
    /// [`MAX_ROUNDS`].
    fn burn(
        &mut self,
        dev: u64,
        run: &mut SessionRun,
        slot: u64,
        attempt: u32,
        delay: SimDuration,
    ) {
        let i = run.idx(slot);
        let state = &mut run.slots[i];
        if state.done || state.acked || state.attempt != attempt {
            return;
        }
        let next = attempt + 1;
        if next >= self.policy.max_attempts {
            self.tracer.emit(&mut self.metrics, EventKind::GiveUp);
            state.round += 1;
            if state.round >= MAX_ROUNDS {
                state.done = true;
                run.failure = Some(FlowError::NetworkDropped);
            } else {
                state.attempt = 0;
                self.queue.schedule(
                    self.now + delay,
                    Ev::Send {
                        dev,
                        slot,
                        attempt: 0,
                        epoch: run.epoch,
                    },
                );
            }
        } else {
            state.attempt = next;
            self.queue.schedule(
                self.now + delay,
                Ev::Send {
                    dev,
                    slot,
                    attempt: next,
                    epoch: run.epoch,
                },
            );
        }
    }

    /// The operator restart: recover the server from its journals and
    /// re-arm the crash schedule.
    fn on_recover(&mut self, rng: &mut SimRng) {
        self.recover_pending = false;
        if self.server.is_crashed() {
            self.crashes += 1;
            let rec = self.server.recover_in_place(rng);
            self.records_skipped += rec.records_skipped() as u64;
            if let Some(profile) = self.profile {
                self.server
                    .arm_crash_schedule(CrashSchedule::seeded(profile, rng.next_u64()));
            }
        }
    }
}

/// Outcome of one pipelined windowed session.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct WindowedReport {
    /// Interactions the device attempted.
    pub attempted: u64,
    /// Interactions the server served (each exactly once).
    pub served: u64,
    /// Conclusive server rejections, by reason.
    pub rejects: Vec<Reject>,
    /// Whether the server terminated the session on risk.
    pub terminated: bool,
    /// Whether every interaction was served and applied.
    pub completed: bool,
    /// Simulated wall-clock time from first send to last settled event —
    /// the goodput denominator. Pipelining shrinks this, not the per-slot
    /// RTTs.
    pub elapsed: SimDuration,
    /// Server crashes recovered during the run.
    pub crashes: u64,
    /// Journal records lost across those recoveries.
    pub records_skipped: u64,
    /// Audit-log entries from this session whose frame hash matched no
    /// legitimate view of the served page.
    pub audit_mismatches: u64,
    /// Network/retry accounting (a fold of the emitted trace events, so
    /// [`derive_metrics`] reproduces it).
    pub metrics: ProtocolMetrics,
}

impl WindowedReport {
    /// Served interactions per simulated second.
    pub fn goodput(&self) -> f64 {
        let secs = self.elapsed.as_nanos() as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            self.served as f64 / secs
        }
    }
}

/// Runs `touches.len()` post-login interactions through the pipelined
/// event engine with up to `window` slots in flight.
///
/// The server must have advertised the same window when the session was
/// opened (set [`WebServer::set_interaction_window`] before login, or use
/// [`crate::World::login_windowed`]). With `window == 1` this is
/// stop-and-wait on the event timeline — the ablation baseline. Pass a
/// `profile` to compose seeded server crashes with the channel's faults;
/// recovery is a scheduled event, and the derived per-slot nonces make the
/// restart transparent (no resume round is needed in windowed mode).
///
/// # Errors
///
/// Fails on setup problems (no session), device refusals, or a slot stuck
/// past the re-arm bound; per-interaction rejections are in the report.
#[allow(clippy::too_many_arguments)]
pub fn run_windowed_session(
    device: &mut MobileDevice,
    server: &mut WebServer,
    channel: &mut Channel,
    domain: &str,
    actions: &[&str],
    touches: &[TouchSample],
    policy: &RetryPolicy,
    window: u64,
    profile: Option<CrashProfile>,
    rng: &mut SimRng,
) -> Result<WindowedReport, FlowError> {
    assert!(!actions.is_empty(), "need at least one action");
    assert!(window >= 1, "window must be at least 1");
    device.enable_window(domain, window)?;
    let base0 = device
        .session_seq(domain)
        .ok_or(FlowError::Device(DeviceError::NoSession))?;
    let account = device.account_for(domain).map(str::to_owned);
    let audit_start = account
        .as_deref()
        .map(|a| server.audit_log_for(a).len())
        .unwrap_or(0);
    if let Some(p) = profile {
        server.arm_crash_schedule(CrashSchedule::seeded(p, rng.next_u64()));
    }
    let tracer = server.tracer().clone();
    let mut core = Core {
        server,
        channel,
        policy,
        tracer,
        domain: domain.to_owned(),
        actions: actions.iter().map(|a| (*a).to_owned()).collect(),
        window,
        queue: EventQueue::new(),
        now: SimTime::ZERO,
        metrics: ProtocolMetrics::default(),
        profile,
        recover_pending: false,
        crashes: 0,
        records_skipped: 0,
    };
    let mut run = SessionRun::new(base0, touches.to_vec(), account.clone());
    core.fill_window(0, &mut run, base0);

    while let Some((at, ev)) = core.queue.pop() {
        core.now = at;
        match ev {
            Ev::Send {
                slot,
                attempt,
                epoch,
                ..
            } => core.on_send(0, device, &mut run, slot, attempt, epoch, rng),
            Ev::ServerRx {
                req,
                slot,
                attempt,
                sent_at,
                dup,
                epoch,
                ..
            } => core.on_server_rx(0, &mut run, &req, slot, attempt, sent_at, dup, epoch),
            Ev::DeviceRx {
                reply,
                slot,
                attempt,
                sent_at,
                epoch,
                ..
            } => core.on_device_rx(0, device, &mut run, &reply, slot, attempt, sent_at, epoch),
            Ev::Timer {
                slot,
                attempt,
                epoch,
                ..
            } => core.on_timer(0, &mut run, slot, attempt, epoch),
            Ev::Recover => core.on_recover(rng),
            // Single-session mode never arms re-authentication, so these
            // spawn/re-login events cannot appear on its queue.
            Ev::Spawn { .. } | Ev::Reauth { .. } => {}
        }
        if run.finished() && !core.recover_pending {
            break;
        }
    }

    if let Some(failure) = run.failure {
        return Err(failure);
    }
    let completed = !run.terminated && run.settled() && run.served == run.slots.len() as u64;
    let report = WindowedReport {
        attempted: run.attempted,
        served: run.served,
        rejects: run.rejects,
        terminated: run.terminated,
        completed,
        elapsed: core.now.saturating_duration_since(SimTime::ZERO),
        crashes: core.crashes,
        records_skipped: core.records_skipped,
        audit_mismatches: account
            .as_deref()
            .map(|a| {
                crate::audit::audit_account_from(core.server, a, audit_start)
                    .findings
                    .len() as u64
            })
            .unwrap_or(0),
        metrics: core.metrics,
    };
    Ok(report)
}

/// Configuration for a windowed fleet run.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Total device lifecycles to drive.
    pub lifecycles: usize,
    /// Interactions per lifecycle.
    pub touches: usize,
    /// Pipeline window per session.
    pub window: u64,
    /// Maximum lifecycles live at once (spawn throttle).
    pub max_live: usize,
    /// Seeded crash-fault profile, if any.
    pub profile: Option<CrashProfile>,
}

/// Aggregate outcome of a windowed fleet run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FleetReport {
    /// Lifecycles driven.
    pub lifecycles: u64,
    /// Lifecycles whose every interaction was served and applied.
    pub completed: u64,
    /// Lifecycles whose session was closed (server state evicted).
    pub closed: u64,
    /// Lifecycles that died on a conclusive failure or stuck stage.
    pub failed: u64,
    /// Conclusive failures by kind (`bring-up:` spawn-stage errors,
    /// `session:` mid-run errors) — the postmortem for `failed`.
    pub failures: BTreeMap<String, u64>,
    /// Risk-policy session terminations absorbed mid-run: each forced the
    /// owner through a fresh login, and the lifecycle continued under the
    /// new session.
    pub terminated: u64,
    /// Interactions attempted across the fleet.
    pub attempted: u64,
    /// Interactions served, each exactly once.
    pub served: u64,
    /// Server crashes recovered.
    pub crashes: u64,
    /// Journal records lost across recoveries.
    pub records_skipped: u64,
    /// Simulated time from first spawn to fleet drain.
    pub elapsed: SimDuration,
    /// Fleet-wide network/retry accounting.
    pub metrics: ProtocolMetrics,
    /// [`derive_metrics`] folded chunk-wise over the drained trace while
    /// the run progressed (`Some` only when tracing is enabled); must
    /// equal `metrics`.
    pub derived: Option<ProtocolMetrics>,
}

/// Drives `cfg.lifecycles` full device lifecycles (provision → register →
/// login → windowed interactions → close) through one deterministic event
/// queue against a single server.
///
/// At most `cfg.max_live` devices exist at a time: each completed
/// lifecycle is closed, aggregated, and dropped before the next spawns,
/// so a 100k-lifecycle run holds hundreds — not hundreds of thousands —
/// of device states. Register/login/close are coarse blocking stages at
/// their scheduled instant (their retries still run the full lock-step
/// policy and share the fleet's metrics and trace); interactions are
/// message-granular events. When tracing is enabled the trace buffer is
/// drained after every completed lifecycle and folded through
/// [`derive_metrics`], keeping memory bounded while still proving
/// live-counter parity at fleet scale.
///
/// `spawn` builds each lifecycle's device: it returns the provisioned
/// device, its owner, the account name, and the touch workload.
#[allow(clippy::too_many_arguments)]
pub fn run_windowed_fleet<F>(
    server: &mut WebServer,
    channel: &mut Channel,
    policy: &RetryPolicy,
    domain: &str,
    actions: &[&str],
    cfg: &FleetConfig,
    spawn: &mut F,
    rng: &mut SimRng,
) -> FleetReport
where
    F: FnMut(usize, &mut SimRng) -> (MobileDevice, u64, String, Vec<TouchSample>),
{
    assert!(!actions.is_empty(), "need at least one action");
    assert!(cfg.window >= 1, "window must be at least 1");
    assert!(cfg.max_live >= 1, "need at least one live lifecycle");
    server.set_interaction_window(cfg.window);
    if let Some(p) = cfg.profile {
        server.arm_crash_schedule(CrashSchedule::seeded(p, rng.next_u64()));
    }
    let tracer = server.tracer().clone();
    let mut derived = tracer.is_enabled().then(ProtocolMetrics::default);
    // Drop anything already buffered so the fold starts from zero.
    if derived.is_some() {
        let _ = tracer.drain();
    }
    let mut core = Core {
        server,
        channel,
        policy,
        tracer,
        domain: domain.to_owned(),
        actions: actions.iter().map(|a| (*a).to_owned()).collect(),
        window: cfg.window,
        queue: EventQueue::new(),
        now: SimTime::ZERO,
        metrics: ProtocolMetrics::default(),
        profile: cfg.profile,
        recover_pending: false,
        crashes: 0,
        records_skipped: 0,
    };
    let mut report = FleetReport {
        lifecycles: cfg.lifecycles as u64,
        ..FleetReport::default()
    };
    let mut live: HashMap<u64, (MobileDevice, SessionRun)> = HashMap::new();
    let initial = cfg.max_live.min(cfg.lifecycles);
    for dev in 0..initial {
        core.queue.schedule(
            SimTime::ZERO + SPAWN_STAGGER * dev as u64,
            Ev::Spawn { dev: dev as u64 },
        );
    }
    let mut next_spawn = initial;

    while let Some((at, ev)) = core.queue.pop() {
        core.now = at;
        let touched = match ev {
            Ev::Spawn { dev } => {
                let (mut device, owner, account, touches) = spawn(dev as usize, rng);
                device.set_tracer(core.tracer.clone());
                match bring_up(&mut core, &mut device, owner, &account, rng) {
                    Ok(base0) => {
                        let mut run = SessionRun::new(base0, touches, Some(account));
                        run.owner = owner;
                        run.reauth = true;
                        core.fill_window(dev, &mut run, base0);
                        live.insert(dev, (device, run));
                        Some(dev)
                    }
                    Err(err) => {
                        report.failed += 1;
                        *report
                            .failures
                            .entry(format!("bring-up: {err}"))
                            .or_default() += 1;
                        if next_spawn < cfg.lifecycles {
                            core.queue.schedule(
                                core.now,
                                Ev::Spawn {
                                    dev: next_spawn as u64,
                                },
                            );
                            next_spawn += 1;
                        }
                        None
                    }
                }
            }
            Ev::Send {
                dev,
                slot,
                attempt,
                epoch,
            } => {
                if let Some((device, run)) = live.get_mut(&dev) {
                    core.on_send(dev, device, run, slot, attempt, epoch, rng);
                    Some(dev)
                } else {
                    None
                }
            }
            Ev::ServerRx {
                dev,
                req,
                slot,
                attempt,
                sent_at,
                dup,
                epoch,
            } => {
                if let Some((_, run)) = live.get_mut(&dev) {
                    core.on_server_rx(dev, run, &req, slot, attempt, sent_at, dup, epoch);
                    Some(dev)
                } else {
                    None
                }
            }
            Ev::DeviceRx {
                dev,
                reply,
                slot,
                attempt,
                sent_at,
                epoch,
            } => {
                if let Some((device, run)) = live.get_mut(&dev) {
                    core.on_device_rx(dev, device, run, &reply, slot, attempt, sent_at, epoch);
                    Some(dev)
                } else {
                    None
                }
            }
            Ev::Timer {
                dev,
                slot,
                attempt,
                epoch,
            } => {
                if let Some((_, run)) = live.get_mut(&dev) {
                    core.on_timer(dev, run, slot, attempt, epoch);
                    Some(dev)
                } else {
                    None
                }
            }
            Ev::Recover => {
                core.on_recover(rng);
                None
            }
            Ev::Reauth { dev } => {
                if let Some((device, run)) = live.get_mut(&dev) {
                    match reauth(&mut core, device, run, rng) {
                        Ok(base0) => core.fill_window(dev, run, base0),
                        Err(err) => run.failure = Some(err),
                    }
                    Some(dev)
                } else {
                    None
                }
            }
        };
        if let Some(dev) = touched {
            let finished = live.get(&dev).is_some_and(|(_, run)| run.finished());
            if finished {
                let (mut device, run) = live.remove(&dev).expect("finished lifecycle is live");
                retire(&mut core, &mut device, run, &mut report, rng);
                if let Some(folded) = derived.as_mut() {
                    folded.absorb(&derive_metrics(&core.tracer.drain()));
                }
                if next_spawn < cfg.lifecycles {
                    core.queue.schedule(
                        core.now,
                        Ev::Spawn {
                            dev: next_spawn as u64,
                        },
                    );
                    next_spawn += 1;
                }
            }
        }
    }

    if let Some(folded) = derived.as_mut() {
        folded.absorb(&derive_metrics(&core.tracer.drain()));
    }
    report.elapsed = core.now.saturating_duration_since(SimTime::ZERO);
    report.crashes = core.crashes;
    report.records_skipped = core.records_skipped;
    report.metrics = core.metrics;
    report.derived = derived;
    report
}

/// Blocking spawn stage: register (if needed) and log in, retrying
/// through crashes and losses like the chaos harness, then arm the
/// device's window. Returns the session's base slot.
fn bring_up(
    core: &mut Core<'_>,
    device: &mut MobileDevice,
    owner: u64,
    account: &str,
    rng: &mut SimRng,
) -> Result<u64, FlowError> {
    // Serial protocol latency inside a blocking stage does not advance the
    // fleet clock; the event timeline is the fleet's notion of time.
    let mut scratch = SimDuration::ZERO;
    let mut rounds = 0;
    while !core.server.has_account(account) {
        match register(
            device,
            owner,
            core.server,
            core.channel,
            account,
            core.policy,
            rng,
            &mut core.metrics,
            &mut scratch,
        ) {
            Ok(()) => break,
            Err(err) if transient_flow(&err) => {
                if core.server.is_crashed() {
                    core.on_recover(rng);
                }
                rounds += 1;
                if rounds > MAX_ROUNDS {
                    return Err(err);
                }
            }
            Err(err) => return Err(err),
        }
    }
    relogin(core, device, owner, rng)
}

/// Blocking login stage shared by spawn bring-up and mid-run
/// re-authentication: drive the lock-step login flow until it lands —
/// retrying through losses, crashes (recovering the server first),
/// biometric false rejections, and risk-policy bounces, bounded by
/// [`MAX_ROUNDS`] — then arm the device's window and return the new
/// session's base slot.
fn relogin(
    core: &mut Core<'_>,
    device: &mut MobileDevice,
    owner: u64,
    rng: &mut SimRng,
) -> Result<u64, FlowError> {
    let mut scratch = SimDuration::ZERO;
    let mut rounds = 0;
    loop {
        match login(
            device,
            owner,
            core.server,
            core.channel,
            core.policy,
            rng,
            &mut core.metrics,
            &mut scratch,
        ) {
            Ok(_) => break,
            Err(err) if transient_flow(&err) => {
                if core.server.is_crashed() {
                    core.on_recover(rng);
                }
                rounds += 1;
                if rounds > MAX_ROUNDS {
                    return Err(err);
                }
            }
            Err(err) => return Err(err),
        }
    }
    device.enable_window(&core.domain, core.window)?;
    device
        .session_seq(&core.domain)
        .ok_or(FlowError::Device(DeviceError::NoSession))
}

/// Blocking re-authentication after a risk-policy termination: a fresh
/// login opens a new session, and the run is rebuilt around it — served
/// slots keep their credit, unserved touches become the new session's
/// slots (the owner repeats those gestures), and the epoch bump has
/// already stranded the dead session's in-flight traffic.
fn reauth(
    core: &mut Core<'_>,
    device: &mut MobileDevice,
    run: &mut SessionRun,
    rng: &mut SimRng,
) -> Result<u64, FlowError> {
    let base0 = relogin(core, device, run.owner, rng)?;
    let remaining: Vec<TouchSample> = run
        .slots
        .iter()
        .zip(run.touches.iter())
        .filter(|(state, _)| !state.acked)
        .map(|(_, touch)| *touch)
        .collect();
    run.base0 = base0;
    run.slots = vec![SlotState::default(); remaining.len()];
    run.requests = vec![None; remaining.len()];
    run.scheduled = 0;
    run.touches = remaining;
    Ok(base0)
}

/// Blocking close stage: evict the finished lifecycle's server state and
/// fold its run into the fleet report. The device is dropped by the
/// caller, keeping the live set bounded.
fn retire(
    core: &mut Core<'_>,
    device: &mut MobileDevice,
    run: SessionRun,
    report: &mut FleetReport,
    rng: &mut SimRng,
) {
    report.attempted += run.attempted;
    report.served += run.served;
    report.terminated += run.terminations;
    if let Some(err) = &run.failure {
        report.failed += 1;
        *report
            .failures
            .entry(format!("session: {err}"))
            .or_default() += 1;
    } else if run.served == run.total {
        report.completed += 1;
    } else {
        // Settled with conclusive per-slot rejects (or a re-auth budget
        // exhausted): the lifecycle is over but its work is not done.
        report.failed += 1;
        let why = run
            .rejects
            .first()
            .map(|r| format!("session: rejected: {r:?}"))
            .unwrap_or_else(|| "session: unserved slots".to_owned());
        *report.failures.entry(why).or_default() += 1;
    }
    let session_id = device.session_id(&core.domain).map(str::to_owned);
    if let (Some(account), Some(session_id)) = (run.account.as_deref(), session_id) {
        for _ in 0..MAX_ROUNDS {
            match core.server.close_session(account, &session_id) {
                Ok(_) => {
                    device.end_session(&core.domain);
                    report.closed += 1;
                    break;
                }
                Err(Reject::ServerCrashed) => core.on_recover(rng),
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Adversary;
    use crate::World;

    const DOMAIN: &str = "www.xyz.com";

    fn windowed_world(
        adversary: Adversary,
        window: u64,
        seed: u64,
    ) -> (World, usize, usize, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let mut world = World::with_adversary(adversary, &mut rng);
        let sidx = world.add_server(DOMAIN, &mut rng);
        let didx = world.add_device("phone-1", 7, &mut rng);
        world
            .register(didx, DOMAIN, "alice", &mut rng)
            .expect("register");
        world
            .login_windowed(didx, DOMAIN, window, &mut rng)
            .expect("login");
        (world, sidx, didx, rng)
    }

    #[test]
    fn honest_windowed_session_serves_everything_exactly_once() {
        let (mut world, sidx, didx, mut rng) = windowed_world(Adversary::None, 4, 11);
        let report = world
            .run_windowed_session(didx, DOMAIN, 12, 4, &mut rng)
            .expect("windowed session");
        assert!(report.completed, "rejects: {:?}", report.rejects);
        assert_eq!(report.attempted, 12);
        assert_eq!(report.served, 12);
        assert_eq!(report.metrics.replays_accepted, 0);
        assert_eq!(report.metrics.retries, 0);
        assert_eq!(report.audit_mismatches, 0);
        // The device's window base advanced past every slot: the login
        // reply carries seq 0, so 12 interactions land the base on 12.
        assert_eq!(world.device(didx).session_seq(DOMAIN), Some(12));
        let digest = world.server(sidx).state_digest();
        let report2 = world.server_mut(sidx).recover_in_place(&mut rng);
        assert_eq!(report2.records_skipped(), 0);
        assert_eq!(
            world.server(sidx).state_digest(),
            digest,
            "windowed records replay to the same durable state"
        );
    }

    #[test]
    fn pipelining_beats_stop_and_wait_on_elapsed_time() {
        let (mut world, _, didx, mut rng) = windowed_world(Adversary::None, 8, 13);
        let wide = world
            .run_windowed_session(didx, DOMAIN, 16, 8, &mut rng)
            .expect("windowed");
        let (mut world, _, didx, mut rng) = windowed_world(Adversary::None, 1, 13);
        let narrow = world
            .run_windowed_session(didx, DOMAIN, 16, 1, &mut rng)
            .expect("stop-and-wait");
        assert!(wide.completed && narrow.completed);
        assert!(
            wide.elapsed.as_nanos() * 4 <= narrow.elapsed.as_nanos(),
            "window 8 should cut elapsed time at least 4x on an honest \
             channel ({:?} vs {:?})",
            wide.elapsed,
            narrow.elapsed
        );
    }

    #[test]
    fn lossy_windowed_session_retransmits_selectively_and_stays_exactly_once() {
        let (mut world, _, didx, mut rng) =
            windowed_world(Adversary::RandomLoss { loss: 0.15 }, 4, 17);
        let report = world
            .run_windowed_session(didx, DOMAIN, 24, 4, &mut rng)
            .expect("windowed session");
        assert!(report.completed, "rejects: {:?}", report.rejects);
        assert_eq!(report.served, 24);
        assert_eq!(report.metrics.replays_accepted, 0);
        assert!(
            report.metrics.retries > 0,
            "15% loss must force at least one selective retransmit"
        );
    }

    #[test]
    fn replayer_duplicates_are_all_detected_in_window() {
        let (mut world, _, didx, mut rng) = windowed_world(Adversary::Replayer, 4, 19);
        let report = world
            .run_windowed_session(didx, DOMAIN, 10, 4, &mut rng)
            .expect("windowed session");
        assert!(report.completed);
        assert_eq!(report.metrics.replays_accepted, 0);
        assert!(
            report.metrics.duplicates_resent + report.metrics.stale_content_ignored > 0,
            "the replayer's copies must surface as cache hits, not fresh serves"
        );
    }

    #[test]
    fn windowed_session_survives_crashes_without_resume_rounds() {
        use crate::server::journal::CrashProfile;
        let mut rng = SimRng::seed_from(23);
        let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.05 }, &mut rng);
        let _ = world.add_server(DOMAIN, &mut rng);
        let didx = world.add_device("phone-1", 7, &mut rng);
        world
            .register(didx, DOMAIN, "alice", &mut rng)
            .expect("register");
        world
            .login_windowed(didx, DOMAIN, 4, &mut rng)
            .expect("login");
        let mut crashes = 0;
        for round in 0..8u64 {
            let report = world
                .run_windowed_chaos_session(
                    didx,
                    DOMAIN,
                    8,
                    4,
                    CrashProfile::uniform(0.10),
                    &mut rng,
                )
                .expect("windowed session under crashes");
            assert!(report.completed, "round {round}: {:?}", report.rejects);
            assert_eq!(report.served, 8);
            assert_eq!(report.metrics.replays_accepted, 0);
            assert_eq!(report.records_skipped, 0, "clean crashes tear nothing");
            crashes += report.crashes;
        }
        assert!(crashes > 0, "the profile must actually fire");
    }

    #[test]
    fn fleet_smoke_run_is_exactly_once_with_derive_parity() {
        use crate::server::journal::CrashProfile;
        let mut rng = SimRng::seed_from(29);
        let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.05 }, &mut rng);
        world.enable_tracing();
        let _ = world.add_server_with_shards(DOMAIN, 8, &mut rng);
        let cfg = FleetConfig {
            lifecycles: 12,
            touches: 5,
            window: 4,
            max_live: 4,
            profile: Some(CrashProfile::uniform(0.02)),
        };
        let report = world.run_windowed_fleet(DOMAIN, &cfg, &mut rng);
        assert_eq!(report.lifecycles, 12);
        assert_eq!(report.completed, 12, "failed: {}", report.failed);
        assert_eq!(report.closed, 12);
        assert_eq!(report.served, 12 * 5);
        assert_eq!(report.metrics.replays_accepted, 0);
        let derived = report.derived.as_ref().expect("tracing was on");
        assert_eq!(
            derived, &report.metrics,
            "chunk-folded derive_metrics must equal the live counters"
        );
    }

    #[test]
    fn transient_flow_retries_false_rejections_not_forgeries() {
        assert!(transient_flow(&FlowError::NetworkDropped));
        assert!(transient_flow(&FlowError::Device(
            DeviceError::BiometricRejected
        )));
        assert!(transient_flow(&FlowError::Server(Reject::RiskTerminated)));
        assert!(!transient_flow(&FlowError::Server(Reject::BadSignature)));
        assert!(!transient_flow(&FlowError::Server(Reject::Replay)));
        assert!(!transient_flow(&FlowError::Device(DeviceError::NoSession)));
    }

    #[test]
    fn fleet_lifecycles_survive_risk_terminations_by_reauthenticating() {
        use crate::risk_policy::ServerRiskPolicy;
        let mut rng = SimRng::seed_from(31);
        let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.02 }, &mut rng);
        world.enable_tracing();
        let sidx = world.add_server_with_shards(DOMAIN, 4, &mut rng);
        // Every request under-verifies, and the fifth consecutive step-up
        // terminates. A session can serve at most four interactions (one
        // window) before the risk policy pulls the plug, and each lifecycle
        // owes six — so every lifecycle is forced through at least one
        // mid-run re-authentication to finish.
        world.server_mut(sidx).set_risk_policy(ServerRiskPolicy {
            max_mismatches: u32::MAX,
            min_verified: u32::MAX,
            max_consecutive_stepups: 5,
        });
        let cfg = FleetConfig {
            lifecycles: 8,
            touches: 6,
            window: 4,
            max_live: 4,
            profile: None,
        };
        let report = world.run_windowed_fleet(DOMAIN, &cfg, &mut rng);
        assert!(
            report.terminated >= report.lifecycles,
            "the aggressive policy must terminate sessions mid-run (got {})",
            report.terminated
        );
        assert_eq!(report.completed, 8, "failures: {:?}", report.failures);
        assert_eq!(report.failed, 0, "failures: {:?}", report.failures);
        assert_eq!(
            report.served,
            8 * 6,
            "every touch served exactly once across re-auths"
        );
        assert_eq!(report.metrics.replays_accepted, 0);
        let derived = report.derived.as_ref().expect("tracing was on");
        assert_eq!(
            derived, &report.metrics,
            "re-auth epochs must not break trace/metrics parity"
        );
    }
}
