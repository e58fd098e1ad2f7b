//! The end-to-end continuous-authentication flow (Figure 10).
//!
//! Every request/response exchange runs through one lock-step
//! retry/timeout/backoff driver ([`RetryPolicy`]) against the
//! fault-injecting [`Channel`](crate::channel::Channel): dropped, delayed,
//! or corrupted messages are retransmitted, the server answers
//! retransmits from its idempotency cache, and [`ProtocolMetrics`] records
//! exactly what happened — including the one count that must never move,
//! `replays_accepted`. The driver owns the per-attempt accounting; each
//! flow supplies one attempt as a closure. Counters move only by emitting
//! trace events through [`ProtocolMetrics::observe`].

use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;
use btd_workload::session::TouchSample;

use crate::channel::{Channel, NetMessage};
use crate::device::MobileDevice;
use crate::messages::{ContentPage, Freshness, Reject, ServerHello};
use crate::metrics::{Phase, ProtocolMetrics, RetryPolicy};
use crate::registration::FlowError;
use crate::server::WebServer;
use crate::trace::{CtxArgs, DuplicateVerdict, EventKind, Outcome, SpanKind, Tracer};

/// Why a retried exchange ultimately did not get its reply applied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ExchangeFailure {
    /// The server conclusively rejected the request.
    Rejected(Reject),
    /// Every attempt timed out or bounced; the exchange was abandoned.
    GaveUp,
}

impl From<ExchangeFailure> for FlowError {
    fn from(f: ExchangeFailure) -> Self {
        match f {
            ExchangeFailure::Rejected(r) => FlowError::Server(r),
            ExchangeFailure::GaveUp => FlowError::NetworkDropped,
        }
    }
}

/// How a successful exchange concluded.
pub(crate) enum Exchanged<R> {
    /// The request was served (possibly via a cached resend of *this*
    /// request) and the accepted reply is attached.
    Served(R),
    /// The server answered with the cached reply to the *previous*
    /// request ([`Freshness::Resync`]): the device state is healed but
    /// this request still needs rebuilding against the new nonce.
    Resynced,
}

/// Rejects that an honest exchange can produce when a message was damaged
/// in transit — worth retrying with the undamaged original. A corrupted
/// nonce surfaces as `UnknownNonce`, a corrupted MAC as `BadMac`.
/// `BadSignature` is *not* here: transit damage never lands there in this
/// model, so it means a key mismatch, which no retry heals.
fn retryable(reject: Reject) -> bool {
    matches!(reject, Reject::BadMac | Reject::UnknownNonce)
}

/// What one lock-step attempt came to, as reported to [`retry`].
pub(crate) enum Attempt<T, E> {
    /// No acceptable reply arrived before the timeout: the request or the
    /// reply was lost, the reply came late, or the server died.
    Lost,
    /// A retryable refusal, recorded as the given event, after the given
    /// time on the wire.
    Bounced(EventKind, SimDuration),
    /// A conclusive failure after the given time on the wire.
    Failed(E, SimDuration),
    /// Served with the given round trip.
    Served(T, SimDuration),
}

/// The lock-step retry driver shared by every request/reply flow. It owns
/// the per-attempt accounting: `Send` before each attempt, `Timeout` plus
/// backoff for a lost one, backoff after a bounce, `Served` with its
/// round trip, and `GiveUp` (returning `gave_up`) once the policy's
/// attempts are spent. `attempt` runs one attempt and may emit its own
/// mid-attempt events into the metrics it is handed.
pub(crate) fn retry<T, E>(
    policy: &RetryPolicy,
    tracer: &Tracer,
    metrics: &mut ProtocolMetrics,
    latency: &mut SimDuration,
    phase: Phase,
    gave_up: E,
    mut attempt: impl FnMut(u32, &mut ProtocolMetrics) -> Attempt<T, E>,
) -> Result<T, E> {
    for n in 0..policy.max_attempts {
        tracer.emit(metrics, EventKind::Send { attempt: n });
        let backoff = policy.backoff(n);
        match attempt(n, metrics) {
            Attempt::Lost => {
                tracer.emit(
                    metrics,
                    EventKind::Timeout {
                        attempt: n,
                        backoff_ms: backoff.as_millis(),
                    },
                );
                *latency += policy.timeout + backoff;
            }
            Attempt::Bounced(refusal, spent) => {
                tracer.emit(metrics, refusal);
                *latency += spent + backoff;
            }
            Attempt::Failed(error, spent) => {
                *latency += spent;
                return Err(error);
            }
            Attempt::Served(value, rtt) => {
                *latency += rtt;
                tracer.emit(
                    metrics,
                    EventKind::Served {
                        phase,
                        rtt_nanos: rtt.as_nanos(),
                    },
                );
                return Ok(value);
            }
        }
    }
    tracer.emit(metrics, EventKind::GiveUp);
    Err(gave_up)
}

/// Drives one request/response exchange under the retry policy.
///
/// Per attempt: transmit the request, let the server process every copy
/// the adversary delivers (classifying duplicates), transmit the reply,
/// and accept the first copy that arrives in time and validates. Timeouts,
/// drops, and transit corruption burn an attempt and back off; a
/// conclusive server reject returns immediately.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exchange<Req, Resp, S, A>(
    channel: &mut Channel,
    policy: &RetryPolicy,
    metrics: &mut ProtocolMetrics,
    latency: &mut SimDuration,
    phase: Phase,
    request: &Req,
    mut serve: S,
    mut accept: A,
) -> Result<Exchanged<Resp>, ExchangeFailure>
where
    Req: NetMessage,
    Resp: NetMessage,
    S: FnMut(&Req) -> Result<(Resp, Freshness), Reject>,
    A: FnMut(&Resp) -> bool,
{
    let tracer = channel.tracer().clone();
    retry(
        policy,
        &tracer,
        metrics,
        latency,
        phase,
        ExchangeFailure::GaveUp,
        |attempt, metrics| {
            let mut primary = None;
            for (i, arrival) in channel.transmit(request.clone()).into_iter().enumerate() {
                if i == 0 {
                    primary = Some((arrival.delay, serve(&arrival.msg)));
                    continue;
                }
                // Adversary-injected duplicate: the server's verdict on it is
                // the replay-defense scoreboard. A dead server renders no
                // verdict; the duplicate was neither accepted nor rejected.
                let verdict = match serve(&arrival.msg) {
                    Ok((_, Freshness::Fresh)) => DuplicateVerdict::AcceptedFresh,
                    Ok((_, Freshness::Resent | Freshness::Resync)) => DuplicateVerdict::Resent,
                    Err(Reject::ServerCrashed) => continue,
                    Err(_) => DuplicateVerdict::Rejected,
                };
                tracer.emit(metrics, EventKind::Duplicate { verdict });
            }

            // Every copy of the request was destroyed in transit.
            let Some((request_delay, result)) = primary else {
                return Attempt::Lost;
            };
            let (reply, freshness) = match result {
                Ok(served) => served,
                // The server died mid-exchange: no reply will ever arrive, which
                // the device's clock cannot tell from loss.
                Err(Reject::ServerCrashed) => return Attempt::Lost,
                Err(reason) if retryable(reason) => {
                    // In an honest flow this is a message damaged in transit;
                    // the undamaged original is worth resending. (A genuine
                    // forgery also lands here, and simply bounces again.)
                    let refusal = EventKind::CorruptReject {
                        attempt,
                        reason,
                        backoff_ms: policy.backoff(attempt).as_millis(),
                    };
                    return Attempt::Bounced(refusal, request_delay + channel.latency);
                }
                Err(reject) => {
                    let spent = request_delay + channel.latency;
                    return Attempt::Failed(ExchangeFailure::Rejected(reject), spent);
                }
            };
            if freshness != Freshness::Fresh {
                tracer.emit(metrics, EventKind::Resync);
            }

            // A destroyed reply leaves the server advanced, so the retransmit
            // is answered from the idempotency cache.
            let mut arrivals = channel.transmit(reply).into_iter();
            let Some(first) = arrivals.next() else {
                return Attempt::Lost;
            };
            let stale = arrivals.count() as u64;
            if stale > 0 {
                tracer.emit(metrics, EventKind::StaleContent { copies: stale });
            }

            // A reply that arrives after the device stopped waiting is
            // indistinguishable from loss on this attempt.
            let rtt = request_delay + first.delay;
            if rtt > policy.timeout {
                return Attempt::Lost;
            }
            if !accept(&first.msg) {
                return Attempt::Bounced(EventKind::ReplyRejected { attempt }, rtt);
            }
            let exchanged = match freshness {
                Freshness::Resync => Exchanged::Resynced,
                _ => Exchanged::Served(first.msg),
            };
            Attempt::Served(exchanged, rtt)
        },
    )
}

/// Fetches and validates a server hello under the retry policy. Each
/// retry requests a *fresh* hello (nonces are cheap; only consumption is
/// guarded), and a hello damaged in transit is detected by the FLock
/// certificate/signature check and refetched.
pub(crate) fn fetch_hello(
    device: &mut MobileDevice,
    server: &mut WebServer,
    channel: &mut Channel,
    policy: &RetryPolicy,
    metrics: &mut ProtocolMetrics,
    latency: &mut SimDuration,
    path: &str,
) -> Result<ServerHello, ExchangeFailure> {
    let tracer = channel.tracer().clone();
    retry(
        policy,
        &tracer,
        metrics,
        latency,
        Phase::Hello,
        ExchangeFailure::GaveUp,
        |attempt, _| {
            // A dead server answers nothing; the fetch simply times out.
            if server.is_crashed() {
                return Attempt::Lost;
            }
            let hello = server.hello(path);
            // Duplicate copies of a public page carry no state; ignore them.
            let Some(first) = channel.transmit(hello).into_iter().next() else {
                return Attempt::Lost;
            };
            let rtt = channel.latency + first.delay;
            if rtt > policy.timeout {
                return Attempt::Lost;
            }
            if device.check_hello(&first.msg).is_err() {
                return Attempt::Bounced(EventKind::ReplyRejected { attempt }, rtt);
            }
            Attempt::Served(first.msg, rtt)
        },
    )
}

/// What happened during a login run.
#[derive(Clone, Debug, Default)]
pub struct LoginOutcome {
    /// The session id the server opened.
    pub session_id: String,
    /// End-to-end latency, including retry timeouts and backoff.
    pub latency: SimDuration,
    /// Network/retry accounting for the whole login flow.
    pub metrics: ProtocolMetrics,
}

/// Runs the Fig. 10 login (steps 1–3) under the retry policy and returns
/// the opened session id. Accounting accumulates into the caller's
/// `metrics` and `latency`, so a failed attempt's sends and timeouts are
/// not lost with the error.
///
/// # Errors
///
/// Propagates device refusals, conclusive server rejections, or exhausted
/// retries ([`FlowError::NetworkDropped`]).
#[allow(clippy::too_many_arguments)]
pub fn login(
    device: &mut MobileDevice,
    owner_user: u64,
    server: &mut WebServer,
    channel: &mut Channel,
    policy: &RetryPolicy,
    rng: &mut SimRng,
    metrics: &mut ProtocolMetrics,
    latency: &mut SimDuration,
) -> Result<String, FlowError> {
    let tracer = channel.tracer().clone();
    tracer.open(
        SpanKind::SessionEstablish,
        CtxArgs {
            account: device.account_for(server.domain()),
            ..CtxArgs::default()
        },
    );
    let result = login_inner(
        device, owner_user, server, channel, policy, rng, metrics, latency,
    );
    tracer.close(
        SpanKind::SessionEstablish,
        match &result {
            Ok(_) => Outcome::Success,
            Err(FlowError::Server(r)) => Outcome::Rejected(*r),
            Err(FlowError::NetworkDropped) => Outcome::GaveUp,
            Err(FlowError::Device(_)) => Outcome::DeviceRefused,
        },
    );
    result
}

#[allow(clippy::too_many_arguments)]
fn login_inner(
    device: &mut MobileDevice,
    owner_user: u64,
    server: &mut WebServer,
    channel: &mut Channel,
    policy: &RetryPolicy,
    rng: &mut SimRng,
    metrics: &mut ProtocolMetrics,
    latency: &mut SimDuration,
) -> Result<String, FlowError> {
    let hello = fetch_hello(device, server, channel, policy, metrics, latency, "/login")
        .map_err(FlowError::from)?;
    let domain = hello.domain.clone();

    let submit = device.begin_login(&hello, owner_user, rng)?;
    exchange(
        channel,
        policy,
        metrics,
        latency,
        Phase::Submit,
        &submit,
        |m| server.handle_login(m),
        |content: &ContentPage| device.accept_content(&domain, content).is_ok(),
    )
    .map_err(FlowError::from)?;

    Ok(device
        .session_id(&domain)
        .expect("session established")
        .to_owned())
}

/// Aggregate outcome of a post-login browsing session.
#[derive(Clone, Debug, Default)]
pub struct SessionReport {
    /// Interactions the device attempted.
    pub attempted: u64,
    /// Interactions the server served (each exactly once).
    pub served: u64,
    /// Conclusive server rejections, by reason.
    pub rejects: Vec<Reject>,
    /// Whether the server terminated the session on risk.
    pub terminated: bool,
    /// Total protocol latency, including retry timeouts and backoff.
    pub latency: SimDuration,
    /// Audit-log entries written during this session whose frame hash
    /// matched no legitimate view of the served page (offline audit).
    pub audit_mismatches: u64,
    /// Network/retry accounting for the whole session.
    pub metrics: ProtocolMetrics,
}

/// Runs `touches.len()` post-login interactions (Fig. 10, step 4),
/// cycling through `actions`, under the retry policy. Dropped requests
/// and replies are retransmitted until served or the policy gives up; a
/// give-up leaves the device one reply behind, which the next interaction
/// heals through the server's resync path.
///
/// # Errors
///
/// Fails only on setup problems (no session); per-interaction rejections
/// are recorded in the report.
#[allow(clippy::too_many_arguments)]
pub fn run_session(
    device: &mut MobileDevice,
    server: &mut WebServer,
    channel: &mut Channel,
    domain: &str,
    actions: &[&str],
    touches: &[TouchSample],
    policy: &RetryPolicy,
    rng: &mut SimRng,
) -> Result<SessionReport, FlowError> {
    assert!(!actions.is_empty(), "need at least one action");
    let mut report = SessionReport::default();
    let tracer = channel.tracer().clone();
    let account = device.account_for(domain).map(str::to_owned);
    let audit_start = account
        .as_deref()
        .map(|a| server.audit_log_for(a).len())
        .unwrap_or(0);

    'touches: for (i, touch) in touches.iter().enumerate() {
        let action = actions[i % actions.len()];
        device.observe_touch(touch, rng);
        report.attempted += 1;

        let pre_seq = device.session_seq(domain).unwrap_or(0);
        tracer.open(
            SpanKind::Interact(pre_seq),
            CtxArgs {
                account: account.as_deref(),
                session: device.session_id(domain),
                shard: None,
                seq: Some(pre_seq),
            },
        );

        // One resync round: if the exchange reports the device was a
        // reply behind, the request is rebuilt against the healed state
        // and sent once more.
        let mut outcome = Outcome::GaveUp;
        for _round in 0..2 {
            let request = match device.build_interaction(domain, action) {
                Ok(request) => request,
                Err(err) => {
                    tracer.close(SpanKind::Interact(pre_seq), Outcome::DeviceRefused);
                    return Err(err.into());
                }
            };
            match exchange(
                channel,
                policy,
                &mut report.metrics,
                &mut report.latency,
                Phase::Interaction,
                &request,
                |m| server.handle_interaction(m),
                |content: &ContentPage| device.accept_content(domain, content).is_ok(),
            ) {
                Ok(Exchanged::Served(_)) => {
                    report.served += 1;
                    outcome = Outcome::Success;
                    break;
                }
                Ok(Exchanged::Resynced) => continue,
                Err(ExchangeFailure::Rejected(reject)) => {
                    report.rejects.push(reject);
                    outcome = Outcome::Rejected(reject);
                    if reject == Reject::RiskTerminated {
                        report.terminated = true;
                        tracer.close(SpanKind::Interact(pre_seq), outcome);
                        break 'touches;
                    }
                    break;
                }
                Err(ExchangeFailure::GaveUp) => break,
            }
        }
        tracer.close(SpanKind::Interact(pre_seq), outcome);
    }
    report.audit_mismatches = account
        .as_deref()
        .map(|a| {
            crate::audit::audit_account_from(server, a, audit_start)
                .findings
                .len() as u64
        })
        .unwrap_or(0);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::derive_metrics;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// Runs the driver over scripted attempt outcomes; returns the result,
    /// the live metrics, the latency, and the metrics derived from the
    /// trace.
    fn drive(
        script: Vec<Attempt<u8, &'static str>>,
    ) -> (
        Result<u8, &'static str>,
        ProtocolMetrics,
        SimDuration,
        ProtocolMetrics,
    ) {
        let tracer = Tracer::enabled();
        let (mut metrics, mut latency) = (ProtocolMetrics::default(), SimDuration::ZERO);
        let mut script = script.into_iter();
        let result = retry(
            &RetryPolicy::default(),
            &tracer,
            &mut metrics,
            &mut latency,
            Phase::Submit,
            "gave up",
            |_, _| script.next().expect("script covers every attempt"),
        );
        (result, metrics, latency, derive_metrics(&tracer.events()))
    }

    #[test]
    fn retry_accounts_each_outcome_once() {
        // Default policy: 4 attempts, 250 ms timeout, backoff 50 ms * 2^k.
        let bounce = EventKind::ReplyRejected { attempt: 1 };
        let (result, m, latency, derived) = drive(vec![
            Attempt::Lost,
            Attempt::Bounced(bounce, ms(30)),
            Attempt::Served(7, ms(40)),
        ]);
        assert_eq!(result, Ok(7));
        assert_eq!((m.sends, m.retries, m.timeouts), (3, 2, 1));
        assert_eq!((m.corrupt_rejected, m.giveups), (1, 0));
        assert_eq!(m.submit.samples, 1);
        assert_eq!(latency, ms(250 + 50) + ms(30 + 100) + ms(40));
        assert_eq!(derived, m);

        let (result, m, latency, derived) =
            drive(vec![Attempt::Lost, Attempt::Failed("no", ms(9))]);
        assert_eq!(result, Err("no"));
        assert_eq!((m.sends, m.timeouts, m.giveups), (2, 1, 0));
        assert_eq!(latency, ms(250 + 50) + ms(9));
        assert_eq!(derived, m);

        let (result, m, latency, derived) = drive((0..4).map(|_| Attempt::Lost).collect());
        assert_eq!(result, Err("gave up"));
        assert_eq!((m.sends, m.retries, m.timeouts, m.giveups), (4, 3, 4, 1));
        assert_eq!(latency, ms(4 * 250 + 50 + 100 + 200 + 400));
        assert_eq!(derived, m);
    }
}
