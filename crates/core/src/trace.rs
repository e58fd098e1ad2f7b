//! Deterministic protocol tracing: typed spans and point events across
//! every layer of the remote-identity stack.
//!
//! Aggregate [`ProtocolMetrics`] counters
//! say *how often* the network hurt a flow; they cannot say *which*
//! interaction gave up, which crash point it hit, or which resume healed
//! it. [`Tracer`] closes that gap with a causal event journal:
//!
//! * **Deterministic** — events carry only sim-derived data (sequence
//!   numbers, backoff values, simulated round-trip times) plus a
//!   monotonically assigned event id. No wall clock, no host randomness:
//!   two runs from the same seed export byte-identical JSONL.
//! * **Zero-cost when off** — a disabled tracer (the default) is a `None`
//!   behind an `Option`; every record call is a single branch and no
//!   event data is allocated.
//! * **Shared by every layer** — one `Rc<RefCell<…>>` buffer is cloned
//!   into the channel, the server, the devices, and the chaos lifecycles
//!   ([`World::enable_tracing`](crate::scenario::World::enable_tracing)),
//!   so channel faults, retries, journal appends, crash injections, and
//!   recoveries interleave in one causally ordered stream.
//!
//! Spans ([`SpanKind`]) bracket protocol flows and carry a context
//! ([`TraceCtx`]: account, session, shard, sequence number) that every
//! point event recorded inside them inherits. The protocol is lock-step:
//! each exchange completes within one call frame, so the context stack
//! nests strictly even when a round-robin driver interleaves many
//! device lifecycles over one channel.
//!
//! On top of the raw stream:
//!
//! * [`Tracer::export_jsonl`] — one JSON object per line, hand-rolled
//!   (zero dependencies), byte-stable across same-seed runs.
//! * [`TraceQuery`] — filter by account/session/span, pull the causal
//!   chain of one interaction, render a per-account timeline.
//! * [`derive_metrics`] — rebuild [`ProtocolMetrics`] from the event
//!   stream alone. Live counters move only through the same fold
//!   ([`ProtocolMetrics::observe`]) at each emit point, so events and
//!   counters cannot disagree; a consistency test pins it.
//! * [`first_divergence`] — explain where two runs' traces part ways
//!   (mirroring the offline [`audit`](crate::audit)), with the
//!   shared causal prefix as context.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use crate::messages::Reject;
use crate::metrics::{Phase, ProtocolMetrics};
use crate::server::journal::CrashPoint;

/// Context attached to every event: which account/session/shard/sequence
/// number the protocol was working for when the event fired. Each part is
/// optional because layers know different amounts (a channel fault during
/// a hello fetch has no session yet; a journal append knows its shard).
///
/// Packed into 32 bytes, since a fleet run holds one per traced event:
/// the account and session live together in one shared allocation that
/// every event of a span, and every span with the same names, points at;
/// the shard is held in 32 bits.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceCtx {
    names: Option<Arc<CtxNames>>,
    seq: Option<u64>,
    shard: Option<u32>,
}

/// The strings of a [`TraceCtx`], shared by reference count: a fleet
/// run's trace crosses threads.
#[derive(PartialEq, Eq, Debug)]
struct CtxNames {
    account: Option<Arc<str>>,
    session: Option<Arc<str>>,
}

impl TraceCtx {
    /// Account the flow serves, when known.
    pub fn account(&self) -> Option<&str> {
        self.names.as_ref()?.account.as_deref()
    }

    /// Live session id, when one exists.
    pub fn session(&self) -> Option<&str> {
        self.names.as_ref()?.session.as_deref()
    }

    /// Shard the event touched (journal/recovery events).
    pub fn shard(&self) -> Option<usize> {
        self.shard.map(|s| s as usize)
    }

    /// Interaction sequence number, when inside an interaction.
    pub fn seq(&self) -> Option<u64> {
        self.seq
    }
}

/// Borrowed context arguments: call sites hand these to [`Tracer::open`]
/// / [`Tracer::record_with`] so a *disabled* tracer never allocates the
/// owned strings, and an enabled one shares the strings a caller already
/// holds as `Arc<str>` instead of copying them.
///
/// # Panics
///
/// An enabled tracer panics on a `shard` that does not fit in 32 bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct CtxArgs<'a> {
    /// Account the flow serves, when known.
    pub account: Option<CtxStr<'a>>,
    /// Live session id, when one exists.
    pub session: Option<CtxStr<'a>>,
    /// Shard the event touched.
    pub shard: Option<usize>,
    /// Interaction sequence number.
    pub seq: Option<u64>,
}

/// A context string as the caller holds it: borrowed, which an enabled
/// tracer copies, or already shared, which it takes another reference to.
#[derive(Clone, Copy, Debug)]
pub enum CtxStr<'a> {
    /// A borrowed string.
    Borrowed(&'a str),
    /// A shared string.
    Shared(&'a Arc<str>),
}

impl<'a> From<&'a str> for CtxStr<'a> {
    fn from(s: &'a str) -> Self {
        CtxStr::Borrowed(s)
    }
}

impl<'a> From<&'a Arc<str>> for CtxStr<'a> {
    fn from(s: &'a Arc<str>) -> Self {
        CtxStr::Shared(s)
    }
}

impl<'a> CtxStr<'a> {
    fn as_str(self) -> &'a str {
        match self {
            CtxStr::Borrowed(s) => s,
            CtxStr::Shared(s) => s,
        }
    }

    fn to_shared(self) -> Arc<str> {
        match self {
            CtxStr::Borrowed(s) => Arc::from(s),
            CtxStr::Shared(s) => Arc::clone(s),
        }
    }
}

impl<'a> CtxArgs<'a> {
    /// Context naming just an account.
    pub fn account(account: impl Into<CtxStr<'a>>) -> Self {
        CtxArgs {
            account: Some(account.into()),
            ..CtxArgs::default()
        }
    }

    /// Context naming just a shard.
    pub fn shard(shard: usize) -> Self {
        CtxArgs {
            shard: Some(shard),
            ..CtxArgs::default()
        }
    }
}

/// A bracketed protocol flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// One device's whole register → login → browse → close lifecycle.
    Lifecycle,
    /// The Fig. 9 registration flow.
    Register,
    /// The Fig. 10 login (session establishment) flow.
    SessionEstablish,
    /// One post-login interaction, by protocol sequence number.
    Interact(u64),
    /// One session-resumption handshake after a server restart.
    Resume,
    /// Recovery of one journal shard after a crash.
    Recover(usize),
    /// Closing the session (evicting server-resident state).
    Close,
}

impl SpanKind {
    /// The span's stable wire name (the `span` field in JSONL exports
    /// and the frame name in folded-stack profiles).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Lifecycle => "lifecycle",
            SpanKind::Register => "register",
            SpanKind::SessionEstablish => "session_establish",
            SpanKind::Interact(_) => "interact",
            SpanKind::Resume => "resume",
            SpanKind::Recover(_) => "recover",
            SpanKind::Close => "close",
        }
    }
}

/// How a span concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The flow completed.
    Success,
    /// The server conclusively rejected it.
    Rejected(Reject),
    /// Every retry attempt was exhausted.
    GaveUp,
    /// The device refused to proceed.
    DeviceRefused,
    /// The exchange healed device state through the idempotency cache;
    /// the flow will be re-driven against the healed state.
    Resynced,
}

/// Which channel fault the adversary injected on one message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The replayer injected a duplicate copy.
    ReplayDuplicate,
    /// The periodic dropper destroyed the message.
    DropperDrop,
    /// Independent random loss destroyed the message.
    RandomLossDrop,
    /// A loss burst destroyed the message.
    BurstLossDrop,
    /// Congestion jitter delayed the message.
    JitterDelay {
        /// Extra one-way delay, in milliseconds.
        extra_ms: u64,
    },
    /// The reorderer delivered the message late.
    ReorderDelay {
        /// Extra one-way delay, in milliseconds.
        extra_ms: u64,
    },
    /// Bits were flipped in transit.
    Corruption,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::ReplayDuplicate => "replay_duplicate",
            FaultKind::DropperDrop => "dropper_drop",
            FaultKind::RandomLossDrop => "random_loss_drop",
            FaultKind::BurstLossDrop => "burst_loss_drop",
            FaultKind::JitterDelay { .. } => "jitter_delay",
            FaultKind::ReorderDelay { .. } => "reorder_delay",
            FaultKind::Corruption => "corruption",
        }
    }
}

/// The server's verdict on an adversary-injected duplicate delivery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DuplicateVerdict {
    /// Accepted as fresh — a replay-defense failure (must never happen).
    AcceptedFresh,
    /// Answered from the idempotency cache; no state advanced.
    Resent,
    /// Rejected outright.
    Rejected,
}

/// Which bounded cache evicted entries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheKind {
    /// Registration idempotency cache (LRU watermark).
    Registration,
    /// Reset idempotency cache (LRU watermark).
    Reset,
    /// Session-scoped caches evicted by a session close.
    Session,
}

impl CacheKind {
    fn name(self) -> &'static str {
        match self {
            CacheKind::Registration => "registration",
            CacheKind::Reset => "reset",
            CacheKind::Session => "session",
        }
    }
}

/// A typed trace event.
#[derive(Clone, PartialEq, Debug)]
pub enum EventKind {
    /// A span opened.
    SpanOpen {
        /// The flow being bracketed.
        span: SpanKind,
    },
    /// A span closed.
    SpanClose {
        /// The flow being bracketed.
        span: SpanKind,
        /// How it concluded.
        outcome: Outcome,
    },
    /// The channel's adversary injected a fault.
    Fault {
        /// Which fault.
        fault: FaultKind,
    },
    /// The device transmitted a request (attempt 0 is the original;
    /// higher attempts are retries).
    Send {
        /// 0-based attempt number.
        attempt: u32,
    },
    /// An attempt expired with no acceptable reply.
    Timeout {
        /// 0-based attempt number.
        attempt: u32,
        /// Backoff applied before the next attempt, in milliseconds.
        backoff_ms: u64,
    },
    /// The server bounced a request damaged in transit (retryable).
    CorruptReject {
        /// 0-based attempt number.
        attempt: u32,
        /// The server's reject reason.
        reason: Reject,
        /// Backoff applied before the next attempt, in milliseconds.
        backoff_ms: u64,
    },
    /// The device discarded a reply that failed validation (retryable).
    ReplyRejected {
        /// 0-based attempt number.
        attempt: u32,
    },
    /// The server's verdict on an adversary-injected duplicate.
    Duplicate {
        /// The verdict.
        verdict: DuplicateVerdict,
    },
    /// The exchange healed through the idempotency cache after a lost
    /// reply desynchronized device and server.
    Resync,
    /// The exchange was abandoned after exhausting every attempt.
    GiveUp,
    /// The device ignored stale extra copies of a reply.
    StaleContent {
        /// How many extra copies arrived.
        copies: u64,
    },
    /// A round trip was served.
    Served {
        /// Protocol phase of the round trip.
        phase: Phase,
        /// Round-trip time in simulated nanoseconds (exact, so latency
        /// histograms rebuild losslessly from the trace).
        rtt_nanos: u64,
    },
    /// The server rejected a request (the reject-counter mirror).
    ServerReject {
        /// Why.
        reason: Reject,
    },
    /// A record was appended to a shard's journal segment.
    JournalAppend {
        /// Shard index.
        shard: usize,
        /// Framed bytes written (header + payload).
        bytes: usize,
    },
    /// A shard folded its pending records into a fresh snapshot.
    Compaction {
        /// Shard index.
        shard: usize,
        /// Snapshot size in bytes.
        bytes: usize,
    },
    /// A bounded cache evicted entries.
    CacheEviction {
        /// Which cache.
        cache: CacheKind,
        /// Entries evicted.
        evicted: u64,
    },
    /// A crash point fired; the server is dead until recovered.
    CrashInjected {
        /// Which crash point.
        point: CrashPoint,
    },
    /// One shard finished recovery.
    Recovered {
        /// Shard index.
        shard: usize,
        /// Whether a snapshot was restored.
        snapshot_restored: bool,
        /// Records replayed on top of the snapshot.
        replayed: usize,
        /// Records lost to torn writes or corruption.
        skipped: usize,
    },
    /// The device accepted and applied a content page.
    ContentAccepted {
        /// The page's sequence number.
        seq: u64,
    },
    /// The device accepted a resume ack (re-joined its session).
    ResumeAccepted {
        /// Whether the ack carried the reply the device had missed.
        healed_reply: bool,
    },
    /// The device's cumulative-ack base advanced past contiguously applied
    /// windowed replies (recorded by the pipelined engine only, so
    /// lock-step flows carry none). Purely observational —
    /// [`derive_metrics`] ignores it, so trace/metrics parity is unchanged.
    WindowAdvance {
        /// The new base: the lowest slot whose reply is still outstanding.
        base: u64,
        /// Slots applied by this advance (the head plus any buffered
        /// out-of-order replies it unlocked).
        applied: u64,
    },
    /// A per-slot retransmission timer fired and exactly that slot was
    /// resent (pipelined mode only). Also ignored by [`derive_metrics`]:
    /// the accompanying `Send` event carries the retry accounting.
    SelectiveRetransmit {
        /// The slot being retransmitted.
        seq: u64,
        /// 1-based attempt number of the retransmission.
        attempt: u32,
    },
    /// A journal log segment was sealed: rotated out and CRC-certified at
    /// a sync barrier. Storage observability only — [`derive_metrics`]
    /// ignores it, so trace/metrics parity is unchanged.
    SegmentSealed {
        /// The shard whose journal sealed the segment.
        shard: usize,
        /// The sealed segment's file id.
        segment: u64,
        /// Segment size at seal time.
        bytes: usize,
    },
    /// Recovery found a sealed segment whose certificate no longer
    /// verifies; the owning shard quarantines. Ignored by
    /// [`derive_metrics`] (the per-frame skips are accounted through
    /// `Recovered`), so trace/metrics parity is unchanged.
    SegmentCorrupt {
        /// The quarantined shard.
        shard: usize,
        /// The corrupt segment's file id.
        segment: u64,
        /// Frames inside it that failed to salvage.
        skipped: usize,
    },
    /// A journal sync failed transiently and was retried under the sync
    /// policy. Ignored by [`derive_metrics`] (protocol-level retries stay
    /// the `Send`/`Timeout` events), so trace/metrics parity is unchanged.
    SyncRetried {
        /// The shard whose barrier blocked.
        shard: usize,
        /// 1-based retry attempt.
        attempt: u64,
    },
    /// The server entered (or left) degraded mode: shedding new
    /// registrations under storage pressure while existing sessions keep
    /// being served. Ignored by [`derive_metrics`], so trace/metrics
    /// parity is unchanged.
    DegradedMode {
        /// The shard whose barrier tripped the transition.
        shard: usize,
        /// True on entry, false on exit.
        entered: bool,
    },
}

/// One recorded event: a monotonically assigned id, the context it fired
/// under, and the typed payload.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceEvent {
    /// Monotonic id (0-based, assigned at record time).
    pub id: u64,
    /// Context inherited from the enclosing span (or explicit).
    pub ctx: TraceCtx,
    /// The typed payload.
    pub kind: EventKind,
}

#[derive(Debug, Default)]
struct TraceBuf {
    events: VecDeque<TraceEvent>,
    ctx_stack: Vec<TraceCtx>,
    /// The names each account's contexts last used: without a session,
    /// and with its latest one. A context with the same names shares them
    /// instead of allocating its own, so an interaction's span costs no
    /// allocation once its session's first span has made them.
    names: BTreeMap<Arc<str>, AccountNames>,
    next_id: u64,
    /// Ring-buffer bound: at `Some(cap)` the buffer keeps only the most
    /// recent `cap` events, evicting the oldest on overflow. `None` (the
    /// default) grows without bound.
    capacity: Option<usize>,
    /// Events evicted by the ring bound since the buffer was created.
    dropped: u64,
}

impl TraceBuf {
    fn push(&mut self, ctx: TraceCtx, kind: EventKind) {
        let id = self.next_id;
        self.next_id += 1;
        if let Some(cap) = self.capacity {
            while self.events.len() >= cap.max(1) {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(TraceEvent { id, ctx, kind });
    }

    fn current_ctx(&self) -> TraceCtx {
        self.ctx_stack.last().cloned().unwrap_or_default()
    }

    /// The owned context for `args`, sharing the names an earlier context
    /// with the same account and session made.
    fn ctx(&mut self, args: CtxArgs<'_>) -> TraceCtx {
        let shard = args
            .shard
            .map(|s| u32::try_from(s).expect("trace context shard fits in 32 bits"));
        TraceCtx {
            names: self.names(args.account, args.session),
            seq: args.seq,
            shard,
        }
    }

    fn names(
        &mut self,
        account: Option<CtxStr<'_>>,
        session: Option<CtxStr<'_>>,
    ) -> Option<Arc<CtxNames>> {
        let Some(account) = account else {
            return session.map(|s| {
                Arc::new(CtxNames {
                    account: None,
                    session: Some(s.to_shared()),
                })
            });
        };
        if !self.names.contains_key(account.as_str()) {
            let shared = account.to_shared();
            self.names.insert(
                Arc::clone(&shared),
                AccountNames {
                    account: shared,
                    bare: None,
                    with_session: None,
                },
            );
        }
        let known = self
            .names
            .get_mut(account.as_str())
            .expect("inserted above");
        let slot = if session.is_some() {
            &mut known.with_session
        } else {
            &mut known.bare
        };
        match slot {
            Some(names) if names.session.as_deref() == session.map(CtxStr::as_str) => {}
            _ => {
                *slot = Some(Arc::new(CtxNames {
                    account: Some(Arc::clone(&known.account)),
                    session: session.map(CtxStr::to_shared),
                }));
            }
        }
        slot.clone()
    }
}

/// One account's cached context names ([`TraceBuf::names`]).
#[derive(Debug)]
struct AccountNames {
    account: Arc<str>,
    bare: Option<Arc<CtxNames>>,
    with_session: Option<Arc<CtxNames>>,
}

/// A cheap, cloneable handle to a shared trace buffer. Disabled by
/// default ([`Tracer::default`]); every layer holds a clone and records
/// through it. Cloning an *enabled* tracer shares the same buffer.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuf>>>,
}

impl Tracer {
    /// A disabled tracer: every record call is a no-op branch.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A fresh enabled tracer with an empty buffer.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuf::default()))),
        }
    }

    /// A fresh enabled tracer whose buffer is a ring of at most
    /// `capacity` events: the oldest event is evicted on overflow and
    /// counted in [`Tracer::dropped`]. Built for fleet-scale runs that
    /// keep a tracer attached for postmortems without unbounded resident
    /// memory. Event ids keep climbing across evictions, and a bounded
    /// run that never overflows exports byte-identically to an unbounded
    /// one — determinism is unperturbed, only retention changes.
    pub fn enabled_bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be at least 1 event");
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuf {
                capacity: Some(capacity),
                ..TraceBuf::default()
            }))),
        }
    }

    /// Events evicted by the ring bound so far (always 0 for unbounded
    /// or disabled tracers). A fleet harness asserting `dropped() == 0`
    /// has proven its capacity was never the binding constraint.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map(|i| i.borrow().dropped).unwrap_or(0)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The one emit point for protocol outcomes: folds `kind` into the
    /// caller's `metrics` ([`ProtocolMetrics::observe`]) and records it.
    /// A disabled tracer still keeps the counters, so an untraced flow
    /// (the device-to-device transfer link) accounts the same way.
    pub(crate) fn emit(&self, metrics: &mut ProtocolMetrics, kind: EventKind) {
        metrics.observe(&kind);
        self.record(kind);
    }

    /// Records `kind` under the context of the innermost open span.
    pub fn record(&self, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.borrow_mut();
            let ctx = buf.current_ctx();
            buf.push(ctx, kind);
        }
    }

    /// Records `kind` under an explicit context, without touching the
    /// span stack (e.g. lifecycle-level markers from a round-robin
    /// driver, whose spans would not nest).
    pub fn record_with(&self, ctx: CtxArgs<'_>, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.borrow_mut();
            let ctx = buf.ctx(ctx);
            buf.push(ctx, kind);
        }
    }

    /// Opens a span: records [`EventKind::SpanOpen`] and pushes its
    /// context, which subsequent [`Tracer::record`] calls inherit. Must
    /// be paired with [`Tracer::close`] in the same call frame — the
    /// protocol is lock-step, so spans nest strictly.
    pub fn open(&self, span: SpanKind, ctx: CtxArgs<'_>) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.borrow_mut();
            let owned = buf.ctx(ctx);
            buf.push(owned.clone(), EventKind::SpanOpen { span });
            buf.ctx_stack.push(owned);
        }
    }

    /// Closes the innermost span: records [`EventKind::SpanClose`] under
    /// the span's context, then pops it.
    pub fn close(&self, span: SpanKind, outcome: Outcome) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.borrow_mut();
            let ctx = buf.current_ctx();
            buf.push(ctx, EventKind::SpanClose { span, outcome });
            buf.ctx_stack.pop();
        }
    }

    /// A snapshot of every retained event, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|i| i.borrow().events.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.borrow().events.len())
            .unwrap_or(0)
    }

    /// Whether no events have been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every recorded event (the buffer stays enabled and the id
    /// counter keeps climbing, so ids stay unique across clears).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().events.clear();
        }
    }

    /// Takes every recorded event out of the buffer, leaving it empty
    /// with its capacity kept for the next batch (ids keep climbing, so
    /// a later drain never repeats one). This is
    /// the memory-bounded way to consume a huge trace incrementally:
    /// [`derive_metrics`] is additive over any partition of the event
    /// stream, so folding drained chunks with
    /// [`ProtocolMetrics::absorb`](crate::metrics::ProtocolMetrics::absorb)
    /// reproduces the whole-trace derivation without ever holding the
    /// whole trace — the fleet-scale runs depend on it.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len());
        self.drain_each(|ev| out.push(ev));
        out
    }

    /// Takes every recorded event out of the buffer as [`Tracer::drain`]
    /// does, handing each to `sink` in recording order instead of
    /// collecting them, so a caller that keeps its own buffer allocates
    /// nothing per drain. `sink` must not record into this tracer: the
    /// buffer stays borrowed while it runs.
    pub fn drain_each(&self, sink: impl FnMut(TraceEvent)) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().events.drain(..).for_each(sink);
        }
    }

    /// Exports the trace as JSON Lines: one event object per line, keys
    /// in fixed order, values all sim-deterministic — two same-seed runs
    /// export byte-identical strings.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(inner) = &self.inner {
            for ev in &inner.borrow().events {
                write_event_json(&mut out, ev);
                out.push('\n');
            }
        }
        out
    }
}

// --- JSON export (hand-rolled, zero dependencies) -------------------------

/// The single-line JSON object for one event — byte-for-byte the form
/// [`Tracer::export_jsonl`] emits (without the trailing newline). Public
/// so the shard-parallel merge ([`crate::parallel`]) can wrap stamped
/// events in its own envelope while keeping the inner serialization
/// identical across worker counts.
pub fn event_json(ev: &TraceEvent) -> String {
    let mut out = String::new();
    write_event_json(&mut out, ev);
    out
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":\"");
    json_escape(out, value);
    out.push('"');
}

fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Hello => "hello",
        Phase::Submit => "submit",
        Phase::Interaction => "interaction",
        Phase::Lifecycle => "lifecycle",
    }
}

fn crash_point_name(point: CrashPoint) -> &'static str {
    match point {
        CrashPoint::BeforeAppend => "before_append",
        CrashPoint::AfterAppend => "after_append",
        CrashPoint::BeforeReply => "before_reply",
    }
}

fn outcome_json(out: &mut String, outcome: Outcome) {
    match outcome {
        Outcome::Success => json_str_field(out, "outcome", "success"),
        Outcome::Rejected(r) => {
            json_str_field(out, "outcome", "rejected");
            json_str_field(out, "reason", &r.to_string());
        }
        Outcome::GaveUp => json_str_field(out, "outcome", "gave_up"),
        Outcome::DeviceRefused => json_str_field(out, "outcome", "device_refused"),
        Outcome::Resynced => json_str_field(out, "outcome", "resynced"),
    }
}

fn span_json(out: &mut String, span: SpanKind) {
    json_str_field(out, "span", span.name());
    match span {
        SpanKind::Interact(seq) => {
            let _ = write!(out, ",\"span_seq\":{seq}");
        }
        SpanKind::Recover(shard) => {
            let _ = write!(out, ",\"span_shard\":{shard}");
        }
        _ => {}
    }
}

/// Appends [`event_json`]'s line for `ev` to `out`.
pub(crate) fn write_event_json(out: &mut String, ev: &TraceEvent) {
    let _ = write!(out, "{{\"id\":{}", ev.id);
    if let Some(a) = ev.ctx.account() {
        json_str_field(out, "account", a);
    }
    if let Some(s) = ev.ctx.session() {
        json_str_field(out, "session", s);
    }
    if let Some(sh) = ev.ctx.shard() {
        let _ = write!(out, ",\"shard\":{sh}");
    }
    if let Some(seq) = ev.ctx.seq() {
        let _ = write!(out, ",\"seq\":{seq}");
    }
    match &ev.kind {
        EventKind::SpanOpen { span } => {
            json_str_field(out, "type", "span_open");
            span_json(out, *span);
        }
        EventKind::SpanClose { span, outcome } => {
            json_str_field(out, "type", "span_close");
            span_json(out, *span);
            outcome_json(out, *outcome);
        }
        EventKind::Fault { fault } => {
            json_str_field(out, "type", "fault");
            json_str_field(out, "fault", fault.name());
            if let FaultKind::JitterDelay { extra_ms } | FaultKind::ReorderDelay { extra_ms } =
                fault
            {
                let _ = write!(out, ",\"extra_ms\":{extra_ms}");
            }
        }
        EventKind::Send { attempt } => {
            json_str_field(out, "type", "send");
            let _ = write!(out, ",\"attempt\":{attempt}");
        }
        EventKind::Timeout {
            attempt,
            backoff_ms,
        } => {
            json_str_field(out, "type", "timeout");
            let _ = write!(out, ",\"attempt\":{attempt},\"backoff_ms\":{backoff_ms}");
        }
        EventKind::CorruptReject {
            attempt,
            reason,
            backoff_ms,
        } => {
            json_str_field(out, "type", "corrupt_reject");
            json_str_field(out, "reason", &reason.to_string());
            let _ = write!(out, ",\"attempt\":{attempt},\"backoff_ms\":{backoff_ms}");
        }
        EventKind::ReplyRejected { attempt } => {
            json_str_field(out, "type", "reply_rejected");
            let _ = write!(out, ",\"attempt\":{attempt}");
        }
        EventKind::Duplicate { verdict } => {
            json_str_field(out, "type", "duplicate");
            let v = match verdict {
                DuplicateVerdict::AcceptedFresh => "accepted_fresh",
                DuplicateVerdict::Resent => "resent",
                DuplicateVerdict::Rejected => "rejected",
            };
            json_str_field(out, "verdict", v);
        }
        EventKind::Resync => json_str_field(out, "type", "resync"),
        EventKind::GiveUp => json_str_field(out, "type", "give_up"),
        EventKind::StaleContent { copies } => {
            json_str_field(out, "type", "stale_content");
            let _ = write!(out, ",\"copies\":{copies}");
        }
        EventKind::Served { phase, rtt_nanos } => {
            json_str_field(out, "type", "served");
            json_str_field(out, "phase", phase_name(*phase));
            let _ = write!(out, ",\"rtt_nanos\":{rtt_nanos}");
        }
        EventKind::ServerReject { reason } => {
            json_str_field(out, "type", "server_reject");
            json_str_field(out, "reason", &reason.to_string());
        }
        EventKind::JournalAppend { shard, bytes } => {
            json_str_field(out, "type", "journal_append");
            let _ = write!(out, ",\"append_shard\":{shard},\"bytes\":{bytes}");
        }
        EventKind::Compaction { shard, bytes } => {
            json_str_field(out, "type", "compaction");
            let _ = write!(out, ",\"compact_shard\":{shard},\"bytes\":{bytes}");
        }
        EventKind::CacheEviction { cache, evicted } => {
            json_str_field(out, "type", "cache_eviction");
            json_str_field(out, "cache", cache.name());
            let _ = write!(out, ",\"evicted\":{evicted}");
        }
        EventKind::CrashInjected { point } => {
            json_str_field(out, "type", "crash_injected");
            json_str_field(out, "point", crash_point_name(*point));
        }
        EventKind::Recovered {
            shard,
            snapshot_restored,
            replayed,
            skipped,
        } => {
            json_str_field(out, "type", "recovered");
            let _ = write!(
                out,
                ",\"recovered_shard\":{shard},\"snapshot\":{snapshot_restored},\"replayed\":{replayed},\"skipped\":{skipped}"
            );
        }
        EventKind::ContentAccepted { seq } => {
            json_str_field(out, "type", "content_accepted");
            let _ = write!(out, ",\"content_seq\":{seq}");
        }
        EventKind::ResumeAccepted { healed_reply } => {
            json_str_field(out, "type", "resume_accepted");
            let _ = write!(out, ",\"healed_reply\":{healed_reply}");
        }
        EventKind::WindowAdvance { base, applied } => {
            json_str_field(out, "type", "window_advance");
            let _ = write!(out, ",\"base\":{base},\"applied\":{applied}");
        }
        EventKind::SelectiveRetransmit { seq, attempt } => {
            json_str_field(out, "type", "selective_retransmit");
            let _ = write!(out, ",\"seq\":{seq},\"attempt\":{attempt}");
        }
        EventKind::SegmentSealed {
            shard,
            segment,
            bytes,
        } => {
            json_str_field(out, "type", "segment_sealed");
            let _ = write!(
                out,
                ",\"seal_shard\":{shard},\"segment\":{segment},\"bytes\":{bytes}"
            );
        }
        EventKind::SegmentCorrupt {
            shard,
            segment,
            skipped,
        } => {
            json_str_field(out, "type", "segment_corrupt");
            let _ = write!(
                out,
                ",\"corrupt_shard\":{shard},\"segment\":{segment},\"skipped\":{skipped}"
            );
        }
        EventKind::SyncRetried { shard, attempt } => {
            json_str_field(out, "type", "sync_retried");
            let _ = write!(out, ",\"sync_shard\":{shard},\"attempt\":{attempt}");
        }
        EventKind::DegradedMode { shard, entered } => {
            json_str_field(out, "type", "degraded_mode");
            let _ = write!(out, ",\"degraded_shard\":{shard},\"entered\":{entered}");
        }
    }
    out.push('}');
}

// --- Derived metrics -------------------------------------------------------

/// Rebuilds [`ProtocolMetrics`] from a trace alone: the same
/// [`ProtocolMetrics::observe`] fold the live flows apply at each emit
/// point, replayed over the recorded events. `Served` events carry exact
/// nanosecond round trips, so for any traced run `derive_metrics(events)`
/// equals the sum of the live per-flow metrics. It folds borrowed events,
/// so a caller holding them in another layout never copies the trace.
pub fn derive_metrics<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> ProtocolMetrics {
    events
        .into_iter()
        .fold(ProtocolMetrics::default(), |mut m, ev| {
            m.observe(&ev.kind);
            m
        })
}

// --- Trace diff ------------------------------------------------------------

/// Where two traces first part ways.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceDivergence {
    /// Index of the first event that differs (== length of the shared
    /// prefix).
    pub index: usize,
    /// The left run's event at that index (`None` if it ended first).
    pub left: Option<TraceEvent>,
    /// The right run's event at that index (`None` if it ended first).
    pub right: Option<TraceEvent>,
    /// The tail of the shared causal prefix (up to the last 5 common
    /// events), so the report shows what both runs agreed on last.
    pub context: Vec<TraceEvent>,
}

impl std::fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "traces diverge at event {}:", self.index)?;
        for ev in &self.context {
            writeln!(f, "  both: {}", describe(ev))?;
        }
        match &self.left {
            Some(ev) => writeln!(f, "  left:  {}", describe(ev))?,
            None => writeln!(f, "  left:  <trace ended>")?,
        }
        match &self.right {
            Some(ev) => write!(f, "  right: {}", describe(ev)),
            None => write!(f, "  right: <trace ended>"),
        }
    }
}

/// Finds the first index where two traces disagree (ignoring ids, which
/// are positional anyway): `None` means the traces are identical. Mirrors
/// the offline [`crate::audit`]'s findings for protocol runs.
pub fn first_divergence(left: &[TraceEvent], right: &[TraceEvent]) -> Option<TraceDivergence> {
    let common = left
        .iter()
        .zip(right.iter())
        .take_while(|(l, r)| l.ctx == r.ctx && l.kind == r.kind)
        .count();
    if common == left.len() && common == right.len() {
        return None;
    }
    Some(TraceDivergence {
        index: common,
        left: left.get(common).cloned(),
        right: right.get(common).cloned(),
        context: left[common.saturating_sub(5)..common].to_vec(),
    })
}

// --- Query + timeline ------------------------------------------------------

/// Read-only queries over a recorded trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceQuery<'a> {
    events: &'a [TraceEvent],
}

impl<'a> TraceQuery<'a> {
    /// Wraps a slice of events (e.g. [`Tracer::events`] output).
    pub fn new(events: &'a [TraceEvent]) -> Self {
        TraceQuery { events }
    }

    /// Every event, in order.
    pub fn all(&self) -> &'a [TraceEvent] {
        self.events
    }

    /// Events recorded under `account`'s context.
    pub fn by_account(&self, account: &str) -> Vec<&'a TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.ctx.account() == Some(account))
            .collect()
    }

    /// Events recorded under session `session`'s context.
    pub fn by_session(&self, session: &str) -> Vec<&'a TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.ctx.session() == Some(session))
            .collect()
    }

    /// Open events of spans of `kind` (matching on the span name, so
    /// `Interact(_)` matches every interaction).
    pub fn spans(&self, kind: SpanKind) -> Vec<&'a TraceEvent> {
        self.events
            .iter()
            .filter(|e| match &e.kind {
                EventKind::SpanOpen { span } => span.name() == kind.name(),
                _ => false,
            })
            .collect()
    }

    /// The causal chain of one interaction: every event recorded while
    /// `account`'s interaction with protocol sequence number `seq` was
    /// in flight (its sends, faults, timeouts, journal appends, crash
    /// and recovery events).
    pub fn causal_chain(&self, account: &str, seq: u64) -> Vec<&'a TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.ctx.account() == Some(account) && e.ctx.seq() == Some(seq))
            .collect()
    }

    /// Accounts that appear in the trace, sorted and deduplicated.
    pub fn accounts(&self) -> Vec<&'a str> {
        let mut names: Vec<&str> = self.events.iter().filter_map(|e| e.ctx.account()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Renders `account`'s timeline: one line per event, indented by
    /// span depth, in causal order — the postmortem view `trace_explain`
    /// prints.
    pub fn render_timeline(&self, account: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "timeline for {account}:");
        let mut depth: usize = 0;
        for ev in self.by_account(account) {
            if matches!(ev.kind, EventKind::SpanClose { .. }) {
                depth = depth.saturating_sub(1);
            }
            let _ = writeln!(
                out,
                "  {:>5}  {}{}",
                ev.id,
                "  ".repeat(depth),
                describe(ev)
            );
            if matches!(ev.kind, EventKind::SpanOpen { .. }) {
                depth += 1;
            }
        }
        out
    }
}

/// One-line human description of an event (timeline + divergence output).
pub fn describe(ev: &TraceEvent) -> String {
    let mut s = match &ev.kind {
        EventKind::SpanOpen { span } => match span {
            SpanKind::Interact(seq) => format!("open {} seq={seq}", span.name()),
            SpanKind::Recover(shard) => format!("open {} shard={shard}", span.name()),
            _ => format!("open {}", span.name()),
        },
        EventKind::SpanClose { span, outcome } => {
            let o = match outcome {
                Outcome::Success => "success".to_owned(),
                Outcome::Rejected(r) => format!("rejected ({r})"),
                Outcome::GaveUp => "gave up".to_owned(),
                Outcome::DeviceRefused => "device refused".to_owned(),
                Outcome::Resynced => "resynced".to_owned(),
            };
            format!("close {} -> {o}", span.name())
        }
        EventKind::Fault { fault } => match fault {
            FaultKind::JitterDelay { extra_ms } | FaultKind::ReorderDelay { extra_ms } => {
                format!("fault {} +{extra_ms}ms", fault.name())
            }
            _ => format!("fault {}", fault.name()),
        },
        EventKind::Send { attempt } => format!("send attempt={attempt}"),
        EventKind::Timeout {
            attempt,
            backoff_ms,
        } => format!("timeout attempt={attempt} backoff={backoff_ms}ms"),
        EventKind::CorruptReject {
            attempt,
            reason,
            backoff_ms,
        } => format!("corrupt reject ({reason}) attempt={attempt} backoff={backoff_ms}ms"),
        EventKind::ReplyRejected { attempt } => format!("reply rejected attempt={attempt}"),
        EventKind::Duplicate { verdict } => match verdict {
            DuplicateVerdict::AcceptedFresh => "duplicate ACCEPTED FRESH (replay!)".to_owned(),
            DuplicateVerdict::Resent => "duplicate answered from cache".to_owned(),
            DuplicateVerdict::Rejected => "duplicate rejected".to_owned(),
        },
        EventKind::Resync => "resync (healed through cache)".to_owned(),
        EventKind::GiveUp => "GAVE UP (retries exhausted)".to_owned(),
        EventKind::StaleContent { copies } => format!("ignored {copies} stale reply copies"),
        EventKind::Served { phase, rtt_nanos } => format!(
            "served {} rtt={}ms",
            phase_name(*phase),
            rtt_nanos / 1_000_000
        ),
        EventKind::ServerReject { reason } => format!("server reject: {reason}"),
        EventKind::JournalAppend { shard, bytes } => {
            format!("journal append shard={shard} {bytes}B")
        }
        EventKind::Compaction { shard, bytes } => {
            format!("compaction shard={shard} snapshot={bytes}B")
        }
        EventKind::CacheEviction { cache, evicted } => {
            format!("evicted {evicted} {} cache entries", cache.name())
        }
        EventKind::CrashInjected { point } => {
            format!("CRASH injected at {}", crash_point_name(*point))
        }
        EventKind::Recovered {
            shard,
            snapshot_restored,
            replayed,
            skipped,
        } => format!(
            "recovered shard={shard} snapshot={snapshot_restored} replayed={replayed} skipped={skipped}"
        ),
        EventKind::ContentAccepted { seq } => format!("device accepted content seq={seq}"),
        EventKind::ResumeAccepted { healed_reply } => {
            format!("device re-joined session (healed_reply={healed_reply})")
        }
        EventKind::WindowAdvance { base, applied } => {
            format!("window advanced to base={base} (applied {applied})")
        }
        EventKind::SelectiveRetransmit { seq, attempt } => {
            format!("selective retransmit slot={seq} attempt={attempt}")
        }
        EventKind::SegmentSealed {
            shard,
            segment,
            bytes,
        } => format!("sealed segment {segment} shard={shard} {bytes}B"),
        EventKind::SegmentCorrupt {
            shard,
            segment,
            skipped,
        } => format!("CORRUPT segment {segment} shard={shard} (skipped {skipped}): quarantined"),
        EventKind::SyncRetried { shard, attempt } => {
            format!("sync would block shard={shard} retry attempt={attempt}")
        }
        EventKind::DegradedMode { shard, entered } => {
            if *entered {
                format!("DEGRADED: shedding registrations (shard {shard} under storage pressure)")
            } else {
                format!("degraded mode lifted (shard {shard} pressure cleared)")
            }
        }
    };
    if let Some(seq) = ev.ctx.seq() {
        let _ = write!(s, " [seq {seq}]");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_sim::time::SimDuration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record(EventKind::Resync);
        t.open(SpanKind::Register, CtxArgs::account("alice"));
        t.close(SpanKind::Register, Outcome::Success);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.export_jsonl(), "");
    }

    #[test]
    fn shared_context_strings_are_referenced_not_copied() {
        let t = Tracer::enabled();
        let account: Arc<str> = Arc::from("alice");
        let session: Arc<str> = Arc::from("sess-1");
        t.open(
            SpanKind::Interact(0),
            CtxArgs {
                account: Some((&account).into()),
                session: Some((&session).into()),
                shard: None,
                seq: Some(0),
            },
        );
        t.close(SpanKind::Interact(0), Outcome::Success);
        for ev in t.events() {
            assert!(std::ptr::eq(ev.ctx.account().unwrap(), &*account));
            assert!(std::ptr::eq(ev.ctx.session().unwrap(), &*session));
        }
    }

    #[test]
    fn events_inherit_span_context() {
        let t = Tracer::enabled();
        t.open(
            SpanKind::Interact(3),
            CtxArgs {
                account: Some("alice".into()),
                session: Some("sess-1".into()),
                shard: None,
                seq: Some(3),
            },
        );
        t.record(EventKind::Send { attempt: 0 });
        t.close(SpanKind::Interact(3), Outcome::Success);
        t.record(EventKind::Resync);
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].ctx.account(), Some("alice"));
        assert_eq!(events[1].ctx.seq(), Some(3));
        // After the close, the context is popped.
        assert_eq!(events[3].ctx, TraceCtx::default());
        // Ids are monotonic.
        assert_eq!(
            events.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.record(EventKind::GiveUp);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drain_each_hands_over_events_in_order_and_empties_the_buffer() {
        let t = Tracer::enabled();
        t.record(EventKind::Resync);
        t.record(EventKind::GiveUp);
        let mut ids = Vec::new();
        t.drain_each(|ev| ids.push(ev.id));
        assert_eq!(ids, vec![0, 1]);
        assert!(t.is_empty());
        t.record(EventKind::Resync);
        let drained = t.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, 2, "ids keep climbing across drains");
        let mut called = false;
        Tracer::disabled().drain_each(|_| called = true);
        assert!(!called);
    }

    #[test]
    fn jsonl_is_one_valid_looking_object_per_line() {
        let t = Tracer::enabled();
        t.open(SpanKind::Register, CtxArgs::account("alice"));
        t.record(EventKind::Send { attempt: 0 });
        t.close(SpanKind::Register, Outcome::Rejected(Reject::BadMac));
        let jsonl = t.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"type\":\"span_open\""));
        assert!(lines[2].contains("\"reason\":\"bad mac\""));
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut s = String::new();
        json_escape(&mut s, "a\"b\\c\n\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\n\\u0001");
    }

    #[test]
    fn derive_metrics_counts_every_site() {
        let t = Tracer::enabled();
        t.record(EventKind::Send { attempt: 0 });
        t.record(EventKind::Send { attempt: 1 });
        t.record(EventKind::Timeout {
            attempt: 0,
            backoff_ms: 50,
        });
        t.record(EventKind::Duplicate {
            verdict: DuplicateVerdict::Resent,
        });
        t.record(EventKind::Resync);
        t.record(EventKind::StaleContent { copies: 2 });
        t.record(EventKind::Served {
            phase: Phase::Interaction,
            rtt_nanos: 120_000_000,
        });
        t.record(EventKind::GiveUp);
        let m = derive_metrics(&t.events());
        assert_eq!(m.sends, 2);
        assert_eq!(m.retries, 1);
        assert_eq!(m.timeouts, 1);
        assert_eq!(m.duplicates_resent, 1);
        assert_eq!(m.resyncs, 1);
        assert_eq!(m.stale_content_ignored, 2);
        assert_eq!(m.giveups, 1);
        assert_eq!(m.interaction.samples, 1);
        assert_eq!(m.interaction.total, SimDuration::from_millis(120));
    }

    #[test]
    fn first_divergence_reports_index_and_context() {
        let t = Tracer::enabled();
        for i in 0..6 {
            t.record(EventKind::Send { attempt: i });
        }
        let a = t.events();
        let mut b = a.clone();
        b[4].kind = EventKind::GiveUp;
        let div = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(div.index, 4);
        assert_eq!(div.context.len(), 4);
        assert!(matches!(
            div.left.as_ref().unwrap().kind,
            EventKind::Send { attempt: 4 }
        ));
        assert!(matches!(
            div.right.as_ref().unwrap().kind,
            EventKind::GiveUp
        ));
        assert!(first_divergence(&a, &a.clone()).is_none());
        // Prefix case: one trace is a strict prefix of the other.
        let short = &a[..3];
        let div = first_divergence(short, &a).expect("length mismatch diverges");
        assert_eq!(div.index, 3);
        assert!(div.left.is_none());
    }

    #[test]
    fn query_filters_and_chains() {
        let t = Tracer::enabled();
        t.open(
            SpanKind::Interact(0),
            CtxArgs {
                account: Some("alice".into()),
                session: Some("s1".into()),
                shard: None,
                seq: Some(0),
            },
        );
        t.record(EventKind::Send { attempt: 0 });
        t.close(SpanKind::Interact(0), Outcome::Success);
        t.open(
            SpanKind::Interact(0),
            CtxArgs {
                account: Some("bob".into()),
                session: Some("s2".into()),
                shard: None,
                seq: Some(0),
            },
        );
        t.record(EventKind::GiveUp);
        t.close(SpanKind::Interact(0), Outcome::GaveUp);
        let events = t.events();
        let q = TraceQuery::new(&events);
        assert_eq!(q.by_account("alice").len(), 3);
        assert_eq!(q.by_session("s2").len(), 3);
        assert_eq!(q.accounts(), vec!["alice", "bob"]);
        assert_eq!(q.causal_chain("bob", 0).len(), 3);
        assert!(q.causal_chain("bob", 7).is_empty());
        assert_eq!(q.spans(SpanKind::Interact(99)).len(), 2);
        let timeline = q.render_timeline("bob");
        assert!(timeline.contains("GAVE UP"));
    }
}
