//! Chaos harness: full register → login → browse → close lifecycles under
//! crash-fault injection composed with network faults.
//!
//! The server is armed with a seeded [`CrashSchedule`]; whenever a handler
//! dies mid-exchange the device sees only silence, exhausts its retries,
//! and the harness restarts the server from its journal segments
//! ([`WebServer::recover_in_place`]) and re-arms the schedule. A live
//! session is then re-joined through the [`Resume`](crate::messages::ResumeRequest)
//! sub-protocol rather than a fresh login, so interactions continue from
//! the last acknowledged sequence number and `replays_accepted` stays
//! zero across every restart.
//!
//! A lifecycle is a [`DeviceLifecycle`] state machine
//! (register → login → interact → close → done) that advances one unit of
//! work per [`DeviceLifecycle::step`]. [`run_chaos_lifecycle`] drives one
//! machine to completion; the shard-parallel runtime
//! ([`run_shard`](crate::parallel::run_shard)) interleaves a shard's
//! machines round-robin over that shard's server and channel, with
//! per-device [`ProtocolMetrics`].

use std::sync::Arc;

use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;
use btd_workload::session::TouchSample;

use crate::auth::{exchange, login, ExchangeFailure, Exchanged};
use crate::channel::Channel;
use crate::device::MobileDevice;
use crate::messages::{ContentPage, Reject, ResumeAck};
use crate::metrics::{Phase, ProtocolMetrics, RetryPolicy};
use crate::registration::{register, FlowError};
use crate::server::journal::{CrashProfile, CrashSchedule};
use crate::server::WebServer;
use crate::trace::{CtxArgs, EventKind, Outcome, SpanKind, Tracer};

/// How many times a single lifecycle stage (a touch, a handshake, a
/// close) is re-driven through crashes and losses before the harness
/// declares it stuck.
const MAX_ROUNDS: usize = 32;

/// Aggregate outcome of a chaos lifecycle run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ChaosReport {
    /// Interactions the device attempted.
    pub attempted: u64,
    /// Interactions the server served (each exactly once).
    pub served: u64,
    /// Server crashes observed (each followed by a recovery).
    pub crashes: u64,
    /// Successful session-resumption handshakes after a restart.
    pub resumes: u64,
    /// Shard snapshots restored across all recoveries.
    pub snapshot_restores: u64,
    /// Journal records replayed across all recoveries.
    pub records_replayed: u64,
    /// Journal records lost to torn writes or corruption across all
    /// recoveries.
    pub records_skipped: u64,
    /// Shards that came back read-only because a sealed segment failed
    /// its certificate check, summed over recoveries.
    pub quarantined_shards: u64,
    /// Corrupt sealed segments found across all recoveries.
    pub corrupt_segments: u64,
    /// Registrations the server shed under storage pressure (degraded
    /// mode); each was retried until the shard had room again.
    pub shed_registrations: u64,
    /// Conclusive server rejections, by reason.
    pub rejects: Vec<Reject>,
    /// Whether the server terminated the session on risk.
    pub terminated: bool,
    /// Whether every attempted interaction was eventually served.
    pub completed: bool,
    /// Whether the session was closed (server-side state evicted).
    pub closed: bool,
    /// Frame-hash audit entries (this account's window) that matched no
    /// legitimate view.
    pub audit_mismatches: u64,
    /// Total protocol latency, including retry timeouts and backoff.
    pub latency: SimDuration,
    /// Network/retry accounting across the whole lifecycle.
    pub metrics: ProtocolMetrics,
}

/// Restarts a crashed server from its journal segments and re-arms the
/// schedule, crediting the recovery to `report`.
fn recover(
    server: &mut WebServer,
    profile: CrashProfile,
    report: &mut ChaosReport,
    rng: &mut SimRng,
) {
    report.crashes += 1;
    let rec = server.recover_in_place(rng);
    report.snapshot_restores += rec.snapshots_restored() as u64;
    report.records_replayed += rec.records_replayed() as u64;
    report.records_skipped += rec.records_skipped() as u64;
    report.quarantined_shards += rec.quarantined_shards() as u64;
    report.corrupt_segments += rec.corrupt_segments() as u64;
    server.arm_crash_schedule(CrashSchedule::seeded(profile, rng.next_u64()));
}

/// Re-joins the device's live session after a server restart, surviving
/// further crashes during the handshake itself.
#[allow(clippy::too_many_arguments)]
fn resume_session(
    device: &mut MobileDevice,
    server: &mut WebServer,
    channel: &mut Channel,
    domain: &str,
    policy: &RetryPolicy,
    profile: CrashProfile,
    report: &mut ChaosReport,
    rng: &mut SimRng,
) -> Result<(), FlowError> {
    let tracer = channel.tracer().clone();
    for _ in 0..MAX_ROUNDS {
        let request = device.begin_resume(domain)?;
        tracer.open(
            SpanKind::Resume,
            CtxArgs {
                account: device.account_for(domain).map(Into::into),
                session: device.shared_session_id(domain).map(Into::into),
                shard: None,
                seq: None,
            },
        );
        match exchange(
            channel,
            policy,
            &mut report.metrics,
            &mut report.latency,
            Phase::Lifecycle,
            &request,
            |m| server.handle_resume(m),
            |ack: &ResumeAck| device.accept_resume(domain, ack).is_ok(),
        ) {
            Ok(_) => {
                tracer.close(SpanKind::Resume, Outcome::Success);
                report.resumes += 1;
                return Ok(());
            }
            Err(ExchangeFailure::GaveUp) => {
                tracer.close(SpanKind::Resume, Outcome::GaveUp);
                if server.is_crashed() {
                    recover(server, profile, report, rng);
                }
                // Pure loss: a fresh handshake (new device nonce) retries.
            }
            Err(ExchangeFailure::Rejected(reject)) => {
                tracer.close(SpanKind::Resume, Outcome::Rejected(reject));
                return Err(FlowError::Server(reject));
            }
        }
    }
    Err(FlowError::NetworkDropped)
}

/// Where a lifecycle currently is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LifecycleState {
    Register,
    Login,
    Interact,
    Close,
    Done,
}

/// One device's register → login → browse → close lifecycle as an
/// explicit state machine. [`DeviceLifecycle::step`] advances one unit of
/// work (one registration or login attempt, one round of one touch, one
/// close attempt), which is what lets a multi-device driver interleave M
/// lifecycles round-robin over a shared server and channel.
#[derive(Debug)]
pub struct DeviceLifecycle {
    domain: String,
    /// Shared with the trace context of every span the lifecycle opens.
    account: Arc<str>,
    owner_user: u64,
    /// Shared with every request built for them.
    actions: Vec<Arc<str>>,
    touches: Vec<TouchSample>,
    state: LifecycleState,
    touch_idx: usize,
    touch_observed: bool,
    /// Rounds spent in the current stage (stuck detection).
    rounds: usize,
    /// Index into the account's audit window where this lifecycle began.
    audit_start: usize,
    failure: Option<FlowError>,
    /// Shared trace handle (cloned from the server at construction).
    tracer: Tracer,
    /// Whether the lifecycle span has been closed (finish is re-entrant).
    span_closed: bool,
    /// The running per-device report.
    pub report: ChaosReport,
}

impl DeviceLifecycle {
    /// Prepares a lifecycle for `account` on `domain`: `touches` explicit
    /// interactions cycling through `actions`.
    pub fn new(
        domain: &str,
        account: &str,
        owner_user: u64,
        actions: &[&str],
        touches: Vec<TouchSample>,
        server: &WebServer,
    ) -> Self {
        assert!(!actions.is_empty(), "need at least one action");
        let tracer = server.tracer().clone();
        // The lifecycle span covers many interleaved `step` calls, so it
        // cannot use the tracer's nesting stack: open/close are recorded
        // with an explicit context instead.
        let account: Arc<str> = Arc::from(account);
        tracer.record_with(
            CtxArgs::account(&account),
            EventKind::SpanOpen {
                span: SpanKind::Lifecycle,
            },
        );
        DeviceLifecycle {
            domain: domain.to_owned(),
            audit_start: server.audit_log_for(&account).len(),
            account,
            owner_user,
            actions: actions.iter().map(|a| Arc::from(*a)).collect(),
            touches,
            state: LifecycleState::Register,
            touch_idx: 0,
            touch_observed: false,
            rounds: 0,
            failure: None,
            tracer,
            span_closed: false,
            report: ChaosReport::default(),
        }
    }

    /// Whether the lifecycle has finished (successfully or not).
    pub fn is_done(&self) -> bool {
        self.state == LifecycleState::Done
    }

    /// The conclusive failure, if the lifecycle died on one.
    pub fn failure(&self) -> Option<FlowError> {
        self.failure
    }

    /// The account this lifecycle drives.
    pub fn account(&self) -> &str {
        &self.account
    }

    fn fail(&mut self, err: FlowError) {
        self.failure = Some(err);
        self.state = LifecycleState::Done;
    }

    fn enter(&mut self, state: LifecycleState) {
        self.state = state;
        self.rounds = 0;
    }

    /// Counts a round in the current stage; true means the stage is stuck
    /// and the lifecycle fails.
    fn stuck(&mut self) -> bool {
        self.rounds += 1;
        if self.rounds > MAX_ROUNDS {
            self.fail(FlowError::NetworkDropped);
            true
        } else {
            false
        }
    }

    /// Finalizes the report (completion flag + this account's audit
    /// window). Idempotent; called once the state machine reaches `Done`.
    fn finish(&mut self, server: &WebServer) {
        self.report.completed = !self.report.terminated
            && self.report.attempted == self.touches.len() as u64
            && self.report.served == self.report.attempted;
        self.report.audit_mismatches =
            crate::audit::audit_account_from(server, &self.account, self.audit_start)
                .findings
                .len() as u64;
        if !self.span_closed {
            self.span_closed = true;
            let outcome = match self.failure {
                None => Outcome::Success,
                Some(FlowError::Server(r)) => Outcome::Rejected(r),
                Some(FlowError::NetworkDropped) => Outcome::GaveUp,
                Some(FlowError::Device(_)) => Outcome::DeviceRefused,
            };
            self.tracer.record_with(
                CtxArgs::account(&self.account),
                EventKind::SpanClose {
                    span: SpanKind::Lifecycle,
                    outcome,
                },
            );
        }
    }

    /// Advances the lifecycle by one unit of work. Returns `true` while
    /// there is more to do, `false` once done.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        device: &mut MobileDevice,
        server: &mut WebServer,
        channel: &mut Channel,
        policy: &RetryPolicy,
        profile: CrashProfile,
        rng: &mut SimRng,
    ) -> bool {
        match self.state {
            LifecycleState::Register => {
                self.step_register(device, server, channel, policy, profile, rng)
            }
            LifecycleState::Login => self.step_login(device, server, channel, policy, profile, rng),
            LifecycleState::Interact => {
                self.step_interact(device, server, channel, policy, profile, rng)
            }
            LifecycleState::Close => self.step_close(device, server, profile, rng),
            LifecycleState::Done => {}
        }
        if self.state == LifecycleState::Done {
            self.finish(server);
            false
        } else {
            true
        }
    }

    /// Registration survives restarts: a crash after the journal append
    /// has durably bound the account, so the retry must not re-register
    /// (the device already holds the matching key record from the same
    /// attempt).
    fn step_register(
        &mut self,
        device: &mut MobileDevice,
        server: &mut WebServer,
        channel: &mut Channel,
        policy: &RetryPolicy,
        profile: CrashProfile,
        rng: &mut SimRng,
    ) {
        if server.has_account(&self.account) {
            self.enter(LifecycleState::Login);
            return;
        }
        match register(
            device,
            self.owner_user,
            server,
            channel,
            &self.account,
            policy,
            rng,
            &mut self.report.metrics,
            &mut self.report.latency,
        ) {
            Ok(()) => {
                self.enter(LifecycleState::Login);
            }
            Err(FlowError::NetworkDropped) => {
                if server.is_crashed() {
                    recover(server, profile, &mut self.report, rng);
                }
                if server.has_account(&self.account) {
                    self.enter(LifecycleState::Login);
                } else {
                    let _ = self.stuck();
                }
            }
            Err(FlowError::Server(Reject::StorageDegraded)) => {
                // Load shedding, not failure: the server is protecting its
                // log partition. Count the shed and retry the registration
                // next round — compaction clears degraded mode.
                self.report.shed_registrations += 1;
                let _ = self.stuck();
            }
            Err(e) => self.fail(e),
        }
    }

    /// Login: a half-open login lost to a crash is abandoned (the
    /// orphaned server session just idles until closed); a fresh login
    /// opens a new session.
    fn step_login(
        &mut self,
        device: &mut MobileDevice,
        server: &mut WebServer,
        channel: &mut Channel,
        policy: &RetryPolicy,
        profile: CrashProfile,
        rng: &mut SimRng,
    ) {
        match login(
            device,
            self.owner_user,
            server,
            channel,
            policy,
            rng,
            &mut self.report.metrics,
            &mut self.report.latency,
        ) {
            Ok(_session_id) => {
                let next = if self.touches.is_empty() {
                    LifecycleState::Close
                } else {
                    LifecycleState::Interact
                };
                self.enter(next);
            }
            Err(FlowError::NetworkDropped) => {
                if server.is_crashed() {
                    recover(server, profile, &mut self.report, rng);
                }
                let _ = self.stuck();
            }
            Err(e) => self.fail(e),
        }
    }

    /// One round of the current touch: build the interaction against the
    /// device's state and drive one exchange. A resync or give-up leaves
    /// the same touch in place for the next step.
    fn step_interact(
        &mut self,
        device: &mut MobileDevice,
        server: &mut WebServer,
        channel: &mut Channel,
        policy: &RetryPolicy,
        profile: CrashProfile,
        rng: &mut SimRng,
    ) {
        let touch = self.touches[self.touch_idx];
        if !self.touch_observed {
            device.observe_touch(&touch, rng);
            self.touch_observed = true;
            self.report.attempted += 1;
        }
        if self.stuck() {
            return;
        }
        let pre_seq = device.session_seq(&self.domain);
        let span = SpanKind::Interact(pre_seq.unwrap_or(0));
        self.tracer.open(
            span,
            CtxArgs {
                account: Some((&self.account).into()),
                session: device.shared_session_id(&self.domain).map(Into::into),
                shard: None,
                seq: Some(pre_seq.unwrap_or(0)),
            },
        );
        let action = Arc::clone(&self.actions[self.touch_idx % self.actions.len()]);
        let request = match device.build_interaction(&self.domain, action) {
            Ok(r) => r,
            Err(e) => {
                self.tracer.close(span, Outcome::DeviceRefused);
                return self.fail(e.into());
            }
        };
        let domain = &self.domain;
        match exchange(
            channel,
            policy,
            &mut self.report.metrics,
            &mut self.report.latency,
            Phase::Interaction,
            &request,
            |m| server.handle_interaction(m),
            |content: &ContentPage| device.accept_content(domain, content).is_ok(),
        ) {
            Ok(Exchanged::Served(_)) => {
                self.tracer.close(span, Outcome::Success);
                self.report.served += 1;
                self.next_touch();
            }
            Ok(Exchanged::Resynced) => {
                self.tracer.close(span, Outcome::Resynced);
            }
            Err(ExchangeFailure::Rejected(reject)) => {
                self.tracer.close(span, Outcome::Rejected(reject));
                self.report.rejects.push(reject);
                if reject == Reject::RiskTerminated {
                    self.report.terminated = true;
                    self.enter(LifecycleState::Close);
                } else {
                    self.next_touch();
                }
            }
            Err(ExchangeFailure::GaveUp) => {
                if server.is_crashed() {
                    recover(server, profile, &mut self.report, rng);
                    if let Err(e) = resume_session(
                        device,
                        server,
                        channel,
                        &self.domain,
                        policy,
                        profile,
                        &mut self.report,
                        rng,
                    ) {
                        self.tracer.close(span, Outcome::GaveUp);
                        return self.fail(e);
                    }
                    // If the interaction was journaled before the crash,
                    // the resume ack replayed its reply into the device;
                    // the touch is served, not re-sent.
                    if device.session_seq(&self.domain) > pre_seq {
                        self.tracer.close(span, Outcome::Success);
                        self.report.served += 1;
                        self.next_touch();
                        return;
                    }
                }
                // Pure loss (or a pre-journal crash): drive the same
                // touch again; the server's cache keeps it exactly-once.
                self.tracer.close(span, Outcome::GaveUp);
            }
        }
    }

    fn next_touch(&mut self) {
        self.touch_idx += 1;
        self.touch_observed = false;
        self.rounds = 0;
        if self.touch_idx >= self.touches.len() {
            self.enter(LifecycleState::Close);
        }
    }

    /// Closes the session server-side (evicting its resident state) and
    /// drops the device's session record. Idempotent across crashes: a
    /// close journaled before a pre-reply crash is observed as
    /// already-closed on retry.
    fn step_close(
        &mut self,
        device: &mut MobileDevice,
        server: &mut WebServer,
        profile: CrashProfile,
        rng: &mut SimRng,
    ) {
        let Some(session_id) = device.shared_session_id(&self.domain).cloned() else {
            // Never logged in (or already ended locally): nothing to close.
            self.enter(LifecycleState::Done);
            return;
        };
        if self.stuck() {
            return;
        }
        self.tracer.open(
            SpanKind::Close,
            CtxArgs {
                account: Some((&self.account).into()),
                session: Some((&session_id).into()),
                shard: None,
                seq: None,
            },
        );
        match server.close_session(&self.account, &session_id) {
            Ok(_) => {
                self.tracer.close(SpanKind::Close, Outcome::Success);
                device.end_session(&self.domain);
                self.report.closed = true;
                self.enter(LifecycleState::Done);
            }
            Err(Reject::ServerCrashed) => {
                self.tracer.close(SpanKind::Close, Outcome::GaveUp);
                if server.is_crashed() {
                    recover(server, profile, &mut self.report, rng);
                }
            }
            Err(e) => {
                self.tracer.close(SpanKind::Close, Outcome::Rejected(e));
                self.fail(FlowError::Server(e));
            }
        }
    }
}

/// Runs register → login → `touches.len()` interactions → close with the
/// server crashing per `profile` on top of whatever the channel's
/// adversary does.
///
/// Registration and login retry across restarts (a bind or login
/// journaled before the crash is detected as durable and not re-sent); a
/// mid-session restart is healed through the resume sub-protocol,
/// crediting a touch whose reply the journal preserved instead of
/// re-sending it; the final close evicts the session's resident state.
///
/// # Errors
///
/// Fails on setup problems (device refusals, conclusive rejections) or if
/// a stage stays stuck for `MAX_ROUNDS` rounds; per-interaction
/// rejections are recorded in the report.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_lifecycle(
    device: &mut MobileDevice,
    owner_user: u64,
    server: &mut WebServer,
    channel: &mut Channel,
    domain: &str,
    account: &str,
    actions: &[&str],
    touches: &[TouchSample],
    policy: &RetryPolicy,
    profile: CrashProfile,
    rng: &mut SimRng,
) -> Result<ChaosReport, FlowError> {
    server.arm_crash_schedule(CrashSchedule::seeded(profile, rng.next_u64()));
    let mut lifecycle = DeviceLifecycle::new(
        domain,
        account,
        owner_user,
        actions,
        touches.to_vec(),
        server,
    );
    while lifecycle.step(device, server, channel, policy, profile, rng) {}
    if let Some(err) = lifecycle.failure() {
        return Err(err);
    }
    Ok(lifecycle.report)
}
