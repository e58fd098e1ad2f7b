//! The TRUST web server.
//!
//! Implements the server side of Figures 9 and 10: account ↔ public-key
//! binding, nonce freshness with replay detection, session-key unsealing,
//! per-interaction MAC verification, the risk policy, and the audit log of
//! frame hashes ("the server can store it to a log file. During future
//! audit event, the log can be investigated to discover how the user
//! interacted with the service").
//!
//! The server is crash-fault tolerant: every state-advancing decision is
//! written to a [`journal::Journal`] (write-ahead log + snapshot) before
//! the reply leaves, deterministic [`journal::CrashPoint`]s can kill the
//! process mid-handler, and [`WebServer::recover`] rebuilds exactly the
//! acknowledged state — including the nonce and sequence caches that keep
//! `replays_accepted == 0` across restarts.
//!
//! # Decide, then commit
//!
//! Every entry point runs one frame (DESIGN §22). After admission, a
//! `decide_*` function validates the message over the [`ServerIdentity`]
//! and a read-only shard, changing only never-journaled draws (entropy,
//! challenges, the risk histogram), and returns a `Decision`. One `commit`
//! then journals, syncs and applies its record, trips the before-reply
//! crash point on the way to an `Ok` answer, and counts every refusal.
//!
//! # Sharding
//!
//! Durable state is partitioned by account into [`WebServer::shard_count`]
//! shards. The shard key is `fnv1a(account) % shards`; every
//! [`JournalRecord`] names exactly one account
//! ([`JournalRecord::shard_account`]), so each shard owns an independent
//! journal segment and [`WebServer::recover`] replays the segments
//! independently — a torn tail in one shard's log cannot block the
//! others. `apply_record` remains the single mutation path: it routes the
//! record to its shard, so live handling and per-shard replay share one
//! implementation.
//!
//! Resident state is bounded. Closing a session
//! ([`WebServer::close_session`]) journals a `SessionClosed` record whose
//! application evicts the session entry, its login/resume idempotency
//! cache entries, and every nonce the session consumed; the
//! registration/reset caches are bounded by a journal-deterministic LRU
//! watermark ([`DEFAULT_CACHE_WATERMARK`] entries per shard); and the set
//! of issued but unconsumed challenge nonces is capped at
//! [`ISSUED_NONCE_CAP`].

pub mod journal;
pub mod storage;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use btd_crypto::bignum::U2048;
use btd_crypto::cert::{Certificate, Role};
use btd_crypto::entropy::{ChaChaEntropy, EntropySource};
use btd_crypto::group::DhGroup;
use btd_crypto::hmac::hmac_sha256;
use btd_crypto::nonce::{Nonce, NonceGenerator, ReplayGuard};
use btd_crypto::schnorr::{KeyPair, PublicKey, Signature};
use btd_crypto::sha256::{sha256, Digest};
use btd_sim::rng::SimRng;

use crate::ca::TrustAuthority;
use crate::messages::{
    window_nonce, ContentPage, Freshness, InteractionRequest, LoginSubmit, RegistrationAck,
    RegistrationSubmit, Reject, ResetAck, ResetRequest, ResumeAck, ResumeRequest, ServerHello,
};
use crate::pages::Page;
use crate::risk_policy::{RiskDecision, RiskReport, ServerRiskPolicy};
use crate::telemetry::RISK_BUCKET_PCT;
use crate::trace::{CacheKind, CtxArgs, EventKind, Outcome, SpanKind, Tracer};
use crate::wire::{self, durable, signing_bytes, FieldReader};

use journal::{CorruptSegment, CrashPoint, CrashSchedule, Journal, JournalRecord, StorageError};
use storage::{DiskFaultProfile, SegmentedStorage};

/// Degraded-mode hysteresis: entered when log-partition pressure reaches
/// this fraction of capacity (or `DiskFull` fires outright) ...
pub const DEGRADE_ENTER_PRESSURE: f64 = 0.75;

/// ... and exited once a successful sync observes pressure back below
/// this fraction (compaction freed the log partition).
pub const DEGRADE_EXIT_PRESSURE: f64 = 0.5;

/// Auto-compaction threshold: once this many records accumulate past the
/// last snapshot in a shard, the next request touching that shard folds
/// them into a new snapshot.
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 256;

/// Attempts a journal sync gets against transient storage failures;
/// exhausting them is a fail-stop crash.
const SYNC_ATTEMPTS: u64 = 4;

/// Default number of account shards.
pub const DEFAULT_SHARDS: usize = 4;

/// LRU watermark for the registration/reset idempotency caches (entries
/// per shard). Eviction happens inside `apply_record`, so replay
/// reproduces it deterministically without explicit eviction records.
pub const DEFAULT_CACHE_WATERMARK: usize = 64;

/// Cap on the server-wide set of issued-but-unconsumed challenge nonces.
/// Challenges are ephemeral (never journaled); the oldest are dropped past
/// the cap, which bounds resident state against hello floods.
pub const ISSUED_NONCE_CAP: usize = 4096;

/// FNV-1a, the shard-routing hash: stable, dependency-free, and uniform
/// enough for account names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard (out of `shard_count`) that owns `account`: the routing every
/// [`WebServer`] applies (`fnv1a(account) % shards`). Public so the
/// shard-parallel runtime ([`crate::parallel`]) can partition a fleet of
/// accounts across workers with exactly the server's own placement.
pub fn shard_index(account: &str, shard_count: usize) -> usize {
    (fnv1a(account.as_bytes()) % shard_count as u64) as usize
}

/// A bound account.
#[derive(Clone, Debug)]
struct AccountRecord {
    public_key: PublicKey,
    /// Fallback credential for identity reset ("the user can rely on her
    /// old passwords in order to … reset").
    reset_password: String,
}

/// A reply served in a session, kept so a retransmitted request can be
/// answered without advancing state (at-most-once semantics).
#[derive(Clone, Debug)]
struct CachedInteraction {
    /// Sequence number of the request that produced the reply.
    seq: u64,
    /// MAC of that request — identifies a byte-identical retransmit.
    request_mac: Digest,
    /// The reply to resend.
    reply: ContentPage,
}

durable!(CachedInteraction {
    seq,
    request_mac,
    reply
});

/// A live session.
///
/// Besides protocol state, a session tracks every nonce it has consumed
/// (`login_nonce`, `resume_nonces`, `consumed_nonces`) so that closing it
/// can evict the matching idempotency-cache entries and replay-guard
/// entries in one pass.
#[derive(Clone)]
struct Session {
    account: Arc<str>,
    key: Vec<u8>,
    /// The challenge a lock-step request must echo (window 0 only).
    pending_nonce: Nonce,
    /// The window base: the lowest slot not yet served, advanced past
    /// contiguously served slots on every apply. In lock-step, the
    /// sequence number the next fresh interaction must carry.
    expected_seq: u64,
    current_path: Arc<str>,
    stepups: u32,
    terminated: bool,
    interactions: u64,
    /// The login nonce that opened this session (keys the login cache).
    login_nonce: Nonce,
    /// Resume nonces served for this session (key the resume cache).
    resume_nonces: Vec<Nonce>,
    /// Every nonce this session consumed, in consumption order; forgotten
    /// from the replay guard when the session closes.
    consumed_nonces: Vec<Nonce>,
    /// Negotiated interaction window: 0 is the lock-step stop-and-wait
    /// flow; `w >= 1` lets the pipelined engine keep up to `w`
    /// interactions in flight, authenticated by per-slot derived nonces.
    window: u64,
    /// Served replies, sorted by seq and capped at the session's credit
    /// `max(window, 1)`: a lock-step session keeps its last reply here.
    reply_window: Vec<CachedInteraction>,
}

impl Session {
    /// The cached reply for slot `seq`, if it is still in the window.
    fn window_reply(&self, seq: u64) -> Option<&CachedInteraction> {
        self.reply_window.iter().find(|c| c.seq == seq)
    }

    /// Caches the reply to `slot` and advances the base past every
    /// contiguously served slot. Order-independent on purpose: applying
    /// served slots in any in-window order converges to the same state,
    /// so reply reordering on the wire cannot fork the digest. Returns
    /// false for a slot already cached (exactly-once holds).
    fn cache_reply(&mut self, slot: u64, request_mac: Digest, reply: &ContentPage) -> bool {
        if self.window_reply(slot).is_some() {
            return false;
        }
        // At most `credit - 1` cached slots lie at or above the base (the
        // base itself is unserved), so a full cache holds one below it,
        // older than `slot`: evicting it first keeps the buffer at its
        // reserved size. The device cannot retransmit a slot that old.
        let credit = self.window.max(1) as usize;
        if self.reply_window.len() == credit {
            self.reply_window.remove(0);
        }
        self.reply_window
            .reserve_exact(credit - self.reply_window.len());
        let at = self.reply_window.partition_point(|c| c.seq < slot);
        self.reply_window.insert(
            at,
            CachedInteraction {
                seq: slot,
                request_mac,
                reply: reply.clone(),
            },
        );
        while self.window_reply(self.expected_seq).is_some() {
            self.expected_seq += 1;
        }
        true
    }
}

// `key` is the live session MAC key; a derived Debug would copy it into
// any `{:?}` of the server. Everything else here is safe to show.
impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("account", &self.account)
            .field(
                "key",
                &format_args!("<{}-byte key redacted>", self.key.len()),
            )
            .field("expected_seq", &self.expected_seq)
            .field("current_path", &self.current_path)
            .field("stepups", &self.stepups)
            .field("terminated", &self.terminated)
            .field("interactions", &self.interactions)
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

/// One audit-log entry: what page the server believes the user was seeing,
/// and the frame hash FLock reported. The names are shared with the
/// session and the served record.
#[derive(Clone, Debug)]
pub struct AuditEntry {
    /// Account that acted.
    pub account: Arc<str>,
    /// Path of the page the server had served for this view.
    pub expected_path: Arc<str>,
    /// The frame hash FLock attached to the request.
    pub frame_hash: Digest,
    /// The action requested.
    pub action: Arc<str>,
    /// The risk report attached.
    pub risk: RiskReport,
    /// How many consecutive serves (this entry included, counting
    /// backwards through the account's log) the reported frame may
    /// legitimately lag behind: 1 for lock-step entries, the session's
    /// window for pipelined serves. A device with `w` requests in flight
    /// is still displaying the page applied up to `w` slots ago, so the
    /// audit accepts a view of any of those pages.
    pub lookback: u64,
}

durable!(AuditEntry {
    account,
    expected_path,
    frame_hash,
    action,
    risk,
    lookback
});

/// The server-wide set of issued-but-unconsumed challenge nonces.
///
/// Never journaled: a challenge is ephemeral, and recovery re-issues the
/// pending nonce of every live session. Issue order is kept so the set
/// can be capped at [`ISSUED_NONCE_CAP`] by evicting the oldest — and
/// "oldest" means strict insertion-order FIFO over the *latest* issue of
/// each nonce, never hash-iteration order. Each issue is stamped with a
/// monotonic generation; a deque entry whose generation no longer matches
/// the live map is a tombstone (the nonce was consumed, or re-issued
/// later and therefore moved to the back of the queue) and is skipped at
/// eviction. The previous representation kept a bare `HashSet` plus an
/// untagged deque: re-issuing a consumed nonce pushed a second deque
/// entry, and eviction hitting the stale first entry dropped the *live*
/// re-issue out of order. Deterministic eviction order is load-bearing
/// now that shard workers replay the same seed on any worker count.
#[derive(Debug, Default)]
struct IssuedNonces {
    /// Live nonces mapped to the generation of their latest issue.
    live: HashMap<Nonce, u64>,
    /// Issue history in insertion order. Entries whose generation does
    /// not match `live` are tombstones and are skipped when evicting.
    order: VecDeque<(Nonce, u64)>,
    /// Monotonic issue counter.
    next_gen: u64,
}

impl IssuedNonces {
    fn issue(&mut self, n: Nonce) {
        let gen = self.next_gen;
        self.next_gen += 1;
        // A re-issue moves the nonce to the back of the FIFO: its old
        // deque entry (if any) becomes a tombstone.
        self.live.insert(n, gen);
        self.order.push_back((n, gen));
        // Evict oldest-first past the cap. The order deque keeps
        // tombstones until they reach the front, so it is bounded too:
        // tombstone pressure pops the same front entries.
        while self.live.len() > ISSUED_NONCE_CAP || self.order.len() > 2 * ISSUED_NONCE_CAP {
            let Some((old, g)) = self.order.pop_front() else {
                break;
            };
            // Only the entry carrying a nonce's latest generation may
            // evict it; stale entries are skipped tombstones.
            if self.live.get(&old) == Some(&g) {
                self.live.remove(&old);
            }
        }
    }

    /// Consumes `n` from the issued set; false means it was never issued
    /// (or already consumed, or evicted past the cap).
    fn remove(&mut self, n: Nonce) -> bool {
        self.live.remove(&n).is_some()
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

/// One account shard: the partition of durable state owned by the
/// accounts that hash here, plus its own journal segment.
#[derive(Debug, Default)]
struct Shard {
    accounts: HashMap<Arc<str>, AccountRecord>,
    /// Live sessions, keyed by session id (an account's sessions live in
    /// its shard).
    sessions: HashMap<Arc<str>, Session>,
    /// Idempotency cache for bound registrations, keyed by submission
    /// nonce, bounded by the LRU watermark (`reg_order` is eviction
    /// order).
    reg_cache: HashMap<Nonce, (Signature, RegistrationAck)>,
    reg_order: VecDeque<Nonce>,
    /// Idempotency cache for opened logins, keyed by submission nonce;
    /// evicted when the session closes.
    login_cache: HashMap<Nonce, (Signature, ContentPage)>,
    /// Idempotency cache for served resumes, keyed by the device-chosen
    /// resume nonce; evicted when the session closes.
    resume_cache: HashMap<Nonce, (Digest, ResumeAck)>,
    /// Idempotency cache for served wire resets, keyed by request nonce,
    /// bounded by the LRU watermark (`reset_order` is eviction order).
    reset_cache: HashMap<Nonce, (Digest, ResetAck)>,
    reset_order: VecDeque<Nonce>,
    /// Consumed-nonce registry for this shard's accounts.
    consumed: ReplayGuard,
    /// Audit log, per account (batch audit verifies whole windows).
    audit: HashMap<Arc<str>, Vec<AuditEntry>>,
    /// Sessions ever opened in this shard (drives globally unique ids).
    session_counter: u64,
    /// This shard's journal segment.
    journal: Journal,
    /// Set when recovery found a sealed segment whose certificate no
    /// longer verifies: the shard serves reads but rejects every mutating
    /// operation until the operator intervenes — certified bytes going
    /// bad must never be silently absorbed into new durable state.
    quarantined: bool,
    /// Per-segment skip accounting behind `quarantined` (what recovery
    /// found broken, kept for the trace and operator reports).
    corrupt: Vec<CorruptSegment>,
}

impl Shard {
    fn over(journal: Journal) -> Shard {
        Shard {
            journal,
            ..Shard::default()
        }
    }
}

/// Domain-separation label for sealing session keys into durable state.
const SEAL_LABEL: &[u8] = b"trust-seal-session-key-v1";

/// ChaCha20 stream nonce for sealing: the first 12 bytes of the consumed
/// login nonce, which is unique per login (the replay guard enforces it).
fn seal_stream_nonce(login_nonce: &Nonce) -> [u8; 12] {
    let mut n = [0u8; 12];
    n.copy_from_slice(&login_nonce.as_bytes()[..12]);
    n
}

/// Seals a session MAC key for durable storage (journal records and shard
/// snapshots) under the server's recovery key: ChaCha20 keyed by the
/// recovery key with a per-login stream nonce, then an HMAC-SHA256 tag
/// over label, nonce, and ciphertext. The journal therefore never holds a
/// raw session key; a wrong recovery key or tampered record surfaces as
/// `None` from [`open_session_key`], never as silently garbled state.
fn seal_session_key(recovery_key: &[u8; 32], login_nonce: &Nonce, key: &[u8]) -> Vec<u8> {
    let mut sealed =
        btd_crypto::chacha20::encrypt(recovery_key, &seal_stream_nonce(login_nonce), key);
    let mut tagged = Vec::with_capacity(SEAL_LABEL.len() + 16 + sealed.len());
    tagged.extend_from_slice(SEAL_LABEL);
    tagged.extend_from_slice(login_nonce.as_bytes());
    tagged.extend_from_slice(&sealed);
    let tag = hmac_sha256(recovery_key, &tagged);
    sealed.extend_from_slice(tag.as_bytes());
    sealed
}

/// Opens a key sealed by [`seal_session_key`]; `None` if the tag does not
/// verify under `recovery_key`.
fn open_session_key(
    recovery_key: &[u8; 32],
    login_nonce: &Nonce,
    sealed: &[u8],
) -> Option<Vec<u8>> {
    if sealed.len() < 32 {
        return None;
    }
    let (ciphertext, tag) = sealed.split_at(sealed.len() - 32);
    let mut tagged = Vec::with_capacity(SEAL_LABEL.len() + 16 + ciphertext.len());
    tagged.extend_from_slice(SEAL_LABEL);
    tagged.extend_from_slice(login_nonce.as_bytes());
    tagged.extend_from_slice(ciphertext);
    let expect = hmac_sha256(recovery_key, &tagged);
    if !btd_crypto::hmac::constant_time_eq(expect.as_bytes(), tag) {
        return None;
    }
    Some(btd_crypto::chacha20::decrypt(
        recovery_key,
        &seal_stream_nonce(login_nonce),
        ciphertext,
    ))
}

/// The durable, non-journaled part of a server: keys, certificate, page
/// set, policy, and shard layout. In a real deployment this is the
/// config + key file that survives a crash alongside the journal
/// segments; [`WebServer::recover`] combines the two. Every decision
/// reads it; none changes it.
#[derive(Clone, Debug)]
pub struct ServerIdentity {
    domain: String,
    keys: KeyPair,
    cert: Certificate,
    ca_key: PublicKey,
    pages: HashMap<String, Page>,
    policy: ServerRiskPolicy,
    shard_count: usize,
    /// Symmetric key sealing session keys into journal records and
    /// snapshots. Part of the durable identity: recovery must open what
    /// the dead process sealed.
    recovery_key: [u8; 32],
    /// Interaction window advertised at login: 0 keeps the lock-step
    /// stop-and-wait flow; `w >= 1` enables the pipelined windowed flow.
    interaction_window: u64,
}

impl ServerIdentity {
    /// The serving domain.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// How many shards the journal segments are laid out over.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }
}

/// The state a decision may change: process-local draws that are never
/// journaled. A restarted process starts them over from fresh entropy,
/// except the risk histogram, which `recover_in_place` carries across.
#[derive(Debug)]
struct Ephemeral {
    entropy: ChaChaEntropy,
    nonces: NonceGenerator<ChaChaEntropy>,
    /// Issued, unconsumed challenge nonces (server-wide).
    issued: IssuedNonces,
    /// Cumulative `risk_verified_pct` histogram over [`RISK_BUCKET_PCT`]
    /// (plus overflow). Observability state with the tracer's lifecycle:
    /// never in snapshot bytes or digests.
    risk_verified: [u64; RISK_BUCKET_PCT.len() + 1],
}

impl Ephemeral {
    /// Draws over `entropy`; the nonce generator forks from it first.
    fn new(mut entropy: ChaChaEntropy) -> Ephemeral {
        let nonces = NonceGenerator::new(entropy.fork(b"nonces"));
        Ephemeral {
            entropy,
            nonces,
            issued: IssuedNonces::default(),
            risk_verified: [0; RISK_BUCKET_PCT.len() + 1],
        }
    }

    fn fresh_nonce(&mut self) -> Nonce {
        let n = self.nonces.next_nonce();
        self.issued.issue(n);
        n
    }

    /// Samples one risk report into the `risk_verified_pct` histogram:
    /// the percent of the rolling window's touches that verified, on
    /// every fresh policy evaluation (duplicates answered from cache do
    /// not re-sample).
    fn observe_risk(&mut self, risk: &RiskReport) {
        let pct = u64::from(risk.verified) * 100 / u64::from(risk.window.max(1));
        let bucket = RISK_BUCKET_PCT
            .iter()
            .position(|bound| pct <= *bound)
            .unwrap_or(RISK_BUCKET_PCT.len());
        self.risk_verified[bucket] += 1;
    }

    /// Consumes `nonce` against `shard`: replayed, never issued, or taken
    /// out of the issued set for good, even if the decision later refuses.
    /// The durable consumed-marking happens in `apply_record`.
    fn consume_nonce(&mut self, shard: &Shard, nonce: Nonce) -> Result<(), Reject> {
        if shard.consumed.is_consumed(nonce) {
            Err(Reject::Replay)
        } else if self.issued.remove(nonce) {
            Ok(())
        } else {
            Err(Reject::UnknownNonce)
        }
    }
}

/// What recovering one shard found and rebuilt.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardRecovery {
    /// Whether a snapshot was present and restored.
    pub snapshot_restored: bool,
    /// Journal records replayed on top of the snapshot.
    pub records_replayed: usize,
    /// Records lost to torn writes or corruption (counted, never silent).
    pub records_skipped: usize,
    /// Whether the shard came back quarantined (read-only) because a
    /// sealed segment failed its certificate check.
    pub quarantined: bool,
    /// Sealed segments whose certificate did not match their bytes.
    pub corrupt_segments: usize,
}

/// What a [`WebServer::recover`] pass found and rebuilt, per shard.
/// Shards recover independently: a torn tail in one shard shows up as
/// that shard's `records_skipped` without affecting the others.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RecoveryReport {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardRecovery>,
}

impl RecoveryReport {
    /// Total records replayed across all shards.
    pub fn records_replayed(&self) -> usize {
        self.shards.iter().map(|s| s.records_replayed).sum()
    }

    /// Total records lost to torn writes or corruption, across shards.
    pub fn records_skipped(&self) -> usize {
        self.shards.iter().map(|s| s.records_skipped).sum()
    }

    /// How many shards restored from a snapshot.
    pub fn snapshots_restored(&self) -> usize {
        self.shards.iter().filter(|s| s.snapshot_restored).count()
    }

    /// Indices of shards that skipped at least one record.
    pub fn shards_with_skips(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.records_skipped > 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// How many shards came back quarantined (read-only).
    pub fn quarantined_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.quarantined).count()
    }

    /// Total corrupt sealed segments found across all shards.
    pub fn corrupt_segments(&self) -> usize {
        self.shards.iter().map(|s| s.corrupt_segments).sum()
    }
}

/// Resident (evictable) server state, for boundedness assertions: these
/// numbers must not grow linearly with *completed* lifecycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResidentStats {
    /// Live (unclosed) sessions across all shards.
    pub sessions: usize,
    /// Idempotency-cache entries (reg + login + resume + reset).
    pub cache_entries: usize,
    /// Consumed nonces still held by the replay guards.
    pub consumed_nonces: usize,
    /// Issued-but-unconsumed challenge nonces.
    pub issued_nonces: usize,
    /// Audit-log entries (the one legitimately append-only series).
    pub audit_entries: usize,
}

/// The TRUST web server.
#[derive(Debug)]
pub struct WebServer {
    identity: ServerIdentity,
    ephemeral: Ephemeral,
    /// The account shards (durable state + journal segment each).
    shards: Vec<Shard>,
    reject_counts: HashMap<Reject, u64>,
    /// Structured protocol tracer (disabled unless installed); survives
    /// in-place recovery but, like all observability state, is not
    /// durable — a server recovered from journals alone starts disabled.
    tracer: Tracer,
    /// The active crash-injection schedule.
    crash: CrashSchedule,
    /// Set once a crash point fires: the process is "dead" until recovery.
    crashed: bool,
    /// Set while the log partition is under storage pressure: new
    /// registrations are shed ([`Reject::StorageDegraded`]) so live state
    /// stops growing, while existing sessions keep being served. Cleared
    /// once a successful sync observes the pressure back below
    /// [`DEGRADE_EXIT_PRESSURE`].
    degraded: bool,
}

impl WebServer {
    /// Creates a server for `domain` with [`DEFAULT_SHARDS`] shards, a
    /// CA-issued certificate, and a default page set (registration,
    /// login, reset, home, and a few content pages).
    pub fn new(
        domain: &str,
        group: &'static DhGroup,
        ca: &mut TrustAuthority,
        rng: &mut SimRng,
    ) -> Self {
        WebServer::with_shards(domain, group, ca, rng, DEFAULT_SHARDS)
    }

    /// Creates a server with an explicit shard count (≥ 1).
    pub fn with_shards(
        domain: &str,
        group: &'static DhGroup,
        ca: &mut TrustAuthority,
        rng: &mut SimRng,
        shard_count: usize,
    ) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let mut entropy = ChaChaEntropy::from_seed(seed);
        let keys = KeyPair::generate(group, &mut entropy);
        let cert = ca.issue_server_cert(domain, keys.public_key());
        let mut ephemeral = Ephemeral::new(entropy);
        let mut recovery_key = [0u8; 32];
        ephemeral
            .entropy
            .fork(b"recovery-seal")
            .fill(&mut recovery_key);

        let mut pages = HashMap::new();
        for (path, body) in [
            ("/register", &b"create your account"[..]),
            ("/login", &b"enter"[..]),
            ("/reset", &b"identity reset"[..]),
            ("/home", &b"welcome back"[..]),
            ("/inbox", &b"3 unread messages"[..]),
            ("/transfer", &b"transfer funds"[..]),
            ("/settings", &b"account settings"[..]),
        ] {
            pages.insert(path.to_owned(), Page::new(path, body.to_vec()));
        }

        let identity = ServerIdentity {
            domain: domain.to_owned(),
            keys,
            cert,
            ca_key: ca.public_key().clone(),
            pages,
            policy: ServerRiskPolicy::default(),
            shard_count: shard_count.max(1),
            recovery_key,
            interaction_window: 0,
        };
        let shards = (0..identity.shard_count).map(|_| Shard::default());
        WebServer::assemble(identity, ephemeral, shards.collect())
    }

    /// A live process over `identity` and `shards`: nothing counted,
    /// traced, armed, crashed or degraded yet.
    fn assemble(identity: ServerIdentity, ephemeral: Ephemeral, shards: Vec<Shard>) -> Self {
        WebServer {
            identity,
            ephemeral,
            shards,
            reject_counts: HashMap::new(),
            tracer: Tracer::disabled(),
            crash: CrashSchedule::Never,
            crashed: false,
            degraded: false,
        }
    }

    /// Rebuilds every shard's journal over seeded [`SegmentedStorage`]
    /// (per-shard derived seeds), arming the disk-fault domain. Must be
    /// called on a fresh server: any state already journaled is discarded
    /// with the old storage.
    pub fn use_segmented_storage(
        &mut self,
        profile: DiskFaultProfile,
        capacity: Option<usize>,
        segment_target: usize,
        seed: u64,
    ) {
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            let storage = SegmentedStorage::sim(
                profile,
                capacity,
                segment_target,
                seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            shard.journal = Journal::new(Box::new(storage));
        }
    }

    /// Whether the server is shedding new registrations under storage
    /// pressure.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Whether shard `idx` is quarantined (read-only after a broken seal).
    pub fn is_quarantined(&self, idx: usize) -> bool {
        self.shards[idx].quarantined
    }

    /// Sets the interaction window advertised to sessions opened from now
    /// on: 0 (the default) keeps the lock-step stop-and-wait flow, while
    /// `w >= 1` lets the pipelined engine keep up to `w` interactions in
    /// flight per session. Existing sessions keep the window they were
    /// opened with — it is recorded in their `LoginServed` journal record.
    pub fn set_interaction_window(&mut self, window: u64) {
        self.identity.interaction_window = window;
    }

    /// The serving domain.
    pub fn domain(&self) -> &str {
        &self.identity.domain
    }

    /// The server's public key.
    pub fn public_key(&self) -> &PublicKey {
        self.identity.keys.public_key()
    }

    /// Overrides the risk policy (for the policy-sweep experiments).
    pub fn set_risk_policy(&mut self, policy: ServerRiskPolicy) {
        self.identity.policy = policy;
    }

    /// The page at `path`, if served here.
    pub fn page(&self, path: &str) -> Option<&Page> {
        self.identity.pages.get(path)
    }

    /// Number of account shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `account`.
    pub fn shard_for(&self, account: &str) -> usize {
        shard_index(account, self.shards.len())
    }

    /// Number of bound accounts, across shards.
    pub fn account_count(&self) -> usize {
        self.shards.iter().map(|s| s.accounts.len()).sum()
    }

    /// Whether `account` is bound.
    pub fn has_account(&self, account: &str) -> bool {
        self.shards[self.shard_for(account)]
            .accounts
            .contains_key(account)
    }

    /// The audit log, flattened across shards: accounts in sorted order,
    /// each account's entries in append order.
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        let mut per_account: Vec<(&Arc<str>, &Vec<AuditEntry>)> =
            self.shards.iter().flat_map(|s| s.audit.iter()).collect();
        per_account.sort_by(|a, b| a.0.cmp(b.0));
        per_account
            .into_iter()
            .flat_map(|(_, entries)| entries.iter().cloned())
            .collect()
    }

    /// Accounts that have audit entries, in sorted order (the batch-audit
    /// iteration order).
    pub fn audit_accounts(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .shards
            .iter()
            .flat_map(|s| s.audit.keys().map(|k| &**k))
            .collect();
        names.sort_unstable();
        names
    }

    /// One account's audit entries, in append order (the batch-audit
    /// window).
    pub fn audit_log_for(&self, account: &str) -> &[AuditEntry] {
        self.shards[self.shard_for(account)]
            .audit
            .get(account)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Resident (evictable) state counts, for boundedness assertions.
    pub fn resident_stats(&self) -> ResidentStats {
        let mut st = ResidentStats {
            issued_nonces: self.ephemeral.issued.len(),
            ..ResidentStats::default()
        };
        for sh in &self.shards {
            st.sessions += sh.sessions.len();
            st.cache_entries += sh.reg_cache.len()
                + sh.login_cache.len()
                + sh.resume_cache.len()
                + sh.reset_cache.len();
            st.consumed_nonces += sh.consumed.consumed_len();
            st.audit_entries += sh.audit.values().map(|v| v.len()).sum::<usize>();
        }
        st
    }

    /// Rejection counters keyed by reason (the attack-matrix rows).
    pub fn reject_counts(&self) -> &HashMap<Reject, u64> {
        &self.reject_counts
    }

    fn reject(&mut self, reason: Reject) -> Reject {
        *self.reject_counts.entry(reason).or_insert(0) += 1;
        self.tracer.record(EventKind::ServerReject { reason });
        reason
    }

    /// Installs a structured protocol tracer; rejects, journal appends,
    /// compactions, cache evictions, crash injections, and recoveries
    /// are recorded as typed events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The server's structured tracer handle (disabled unless installed).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The cumulative `risk_verified_pct` histogram: per
    /// [`RISK_BUCKET_PCT`] bucket (plus overflow), how many fresh risk
    /// evaluations saw that percent of the rolling window verify.
    pub(crate) fn risk_verified_counts(&self) -> &[u64; RISK_BUCKET_PCT.len() + 1] {
        &self.ephemeral.risk_verified
    }

    // --- Crash injection and journaling ----------------------------------

    /// Arms a crash-injection schedule (the chaos harness's knob).
    pub fn arm_crash_schedule(&mut self, schedule: CrashSchedule) {
        self.crash = schedule;
    }

    /// Whether a crash point has fired: a crashed server answers nothing
    /// until [`WebServer::recover_in_place`].
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Shard `idx`'s journal segment (tests read records and snapshots
    /// through it).
    pub fn journal(&self, idx: usize) -> &Journal {
        &self.shards[idx].journal
    }

    /// Shard `idx`'s journal segment, mutable (torn-tail / bit-flip fault
    /// injection in tests).
    pub fn journal_mut(&mut self, idx: usize) -> &mut Journal {
        &mut self.shards[idx].journal
    }

    /// Independent copies of every shard's journal segment (snapshot +
    /// log bytes), e.g. to recover a second instance for cross-instance
    /// digest checks.
    pub fn fork_journals(&self) -> Vec<Journal> {
        self.shards.iter().map(|s| s.journal.duplicate()).collect()
    }

    /// Total journal footprint in bytes (logs + snapshots, all shards).
    pub fn journal_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.journal.log_len() + s.journal.snapshot_len())
            .sum()
    }

    /// Kills the process at `point`: the storage layer loses (or tears)
    /// whatever was never synced, exactly as a power cut would.
    fn crash_now(&mut self, point: CrashPoint) -> Reject {
        self.crashed = true;
        for shard in &mut self.shards {
            shard.journal.crash();
        }
        self.tracer.record(EventKind::CrashInjected { point });
        Reject::ServerCrashed
    }

    /// Appends `rec` to shard `idx`'s segment and syncs it durable,
    /// tripping the before/after-append crash points. When this returns
    /// `Ok`, the record is on stable storage: the journal-then-apply
    /// discipline means a reply never leaves before this barrier.
    fn journal_append(&mut self, idx: usize, rec: &JournalRecord) -> Result<(), Reject> {
        if self.crash.visit(CrashPoint::BeforeAppend) {
            return Err(self.crash_now(CrashPoint::BeforeAppend));
        }
        let bytes = self.shards[idx].journal.append(rec);
        self.tracer
            .record(EventKind::JournalAppend { shard: idx, bytes });
        if self.crash.visit(CrashPoint::AfterAppend) {
            // Under buffered storage the record tears or vanishes with the
            // crash — sound either way: it was never applied, never
            // acknowledged, and the device's retry is processed fresh.
            return Err(self.crash_now(CrashPoint::AfterAppend));
        }
        self.sync_shard(idx)
    }

    /// Drives shard `idx`'s journal through its durability barrier:
    /// transient failures retry up to [`SYNC_ATTEMPTS`] times (fail-stop
    /// once they are spent), a full disk forces emergency compaction and
    /// one more attempt, and a disk that stays full sheds the record and
    /// degrades. Success traces freshly sealed segments and maintains the
    /// degraded-mode pressure hysteresis.
    fn sync_shard(&mut self, idx: usize) -> Result<(), Reject> {
        let mut attempt = 0u64;
        loop {
            match self.shards[idx].journal.sync() {
                Ok(sealed) => {
                    for info in sealed {
                        self.tracer.record(EventKind::SegmentSealed {
                            shard: idx,
                            segment: info.segment,
                            bytes: info.bytes,
                        });
                    }
                    self.update_degraded(idx);
                    return Ok(());
                }
                Err(StorageError::WouldBlock) => {
                    attempt += 1;
                    self.tracer.record(EventKind::SyncRetried {
                        shard: idx,
                        attempt,
                    });
                    if attempt >= SYNC_ATTEMPTS {
                        // Retries exhausted: fail-stop. A crashed server is
                        // a state the recovery machinery already handles
                        // exactly-once; limping on with an unsynced reply
                        // would not be.
                        return Err(self.crash_now(CrashPoint::AfterAppend));
                    }
                }
                Err(StorageError::DiskFull) => {
                    // Emergency compaction: fold the log into a checkpoint
                    // (the checkpoint area is reserved space), freeing the
                    // log partition, then retry the barrier once.
                    self.compact_shard(idx);
                    if self.shards[idx].journal.sync().is_ok() {
                        self.enter_degraded(idx);
                        return Ok(());
                    }
                    // Even a compacted log cannot take the record: shed it.
                    // It was never applied or acknowledged, so it must not
                    // become durable later behind the server's back.
                    self.shards[idx].journal.discard_unsynced();
                    self.enter_degraded(idx);
                    return Err(self.reject(Reject::StorageDegraded));
                }
            }
        }
    }

    /// Enters degraded mode (idempotent), tracing the transition.
    fn enter_degraded(&mut self, idx: usize) {
        if !self.degraded {
            self.degraded = true;
            self.tracer.record(EventKind::DegradedMode {
                shard: idx,
                entered: true,
            });
        }
    }

    /// Pressure hysteresis after a successful sync: high pressure sheds
    /// new registrations before the disk actually fills; pressure back
    /// under the exit threshold (compaction freed the partition) lifts it.
    fn update_degraded(&mut self, idx: usize) {
        match self.shards[idx].journal.pressure() {
            Some(p) if p >= DEGRADE_ENTER_PRESSURE => self.enter_degraded(idx),
            Some(p) if p >= DEGRADE_EXIT_PRESSURE => {}
            _ => {
                if self.degraded {
                    self.degraded = false;
                    self.tracer.record(EventKind::DegradedMode {
                        shard: idx,
                        entered: false,
                    });
                }
            }
        }
    }

    /// Trips the before-reply crash point (the decision is durable and
    /// applied, but the caller never sees the reply).
    fn pre_reply_crash(&mut self) -> Result<(), Reject> {
        if self.crash.visit(CrashPoint::BeforeReply) {
            return Err(self.crash_now(CrashPoint::BeforeReply));
        }
        Ok(())
    }

    /// The frame every entry point runs. Admission: a dead process
    /// answers nothing and counts nothing, a quarantined shard takes no
    /// mutating traffic, a request that `sheds` (a registration) is
    /// refused under storage pressure before anything compacts, and a long
    /// log folds into a snapshot. Then `decide` over the account's shard,
    /// read-only, and [`WebServer::commit`].
    fn serve<R: Reply>(
        &mut self,
        account: &str,
        sheds: bool,
        decide: impl FnOnce(&ServerIdentity, &Shard, &mut Ephemeral) -> Result<Decision<R>, Reject>,
    ) -> Result<R, Reject> {
        if self.crashed {
            return Err(Reject::ServerCrashed);
        }
        let idx = self.shard_for(account);
        let decision = if self.shards[idx].quarantined {
            Err(Reject::ShardQuarantined)
        } else if sheds && self.degraded {
            Err(Reject::StorageDegraded)
        } else {
            if self.shards[idx].journal.pending_records() >= DEFAULT_COMPACTION_THRESHOLD {
                self.compact_shard(idx);
            }
            decide(&self.identity, &self.shards[idx], &mut self.ephemeral)
        };
        self.commit(idx, decision)
    }

    /// The one commit path. A refusal is counted; an answer passes
    /// through; a record is journaled and synced, applied, and then either
    /// refused (risk termination) or answered after the before-reply crash
    /// point, with the reply taken back out of the record. Nothing is
    /// acknowledged before it is durable.
    fn commit<R: Reply>(
        &mut self,
        idx: usize,
        decision: Result<Decision<R>, Reject>,
    ) -> Result<R, Reject> {
        let (record, refusal) = match decision {
            Err(reason) => return Err(self.reject(reason)),
            Ok(Decision::Answer(reply)) => return Ok(reply),
            Ok(Decision::Commit(record)) => (record, None),
            Ok(Decision::CommitThenRefuse(record, reason)) => (record, Some(reason)),
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        if let Some(reason) = refusal {
            return Err(self.reject(reason));
        }
        self.pre_reply_crash()?;
        Ok(R::from_record(record))
    }

    /// Installs a snapshot of shard `idx`'s state, truncating its log. A
    /// failed install (transient sync fault mid-checkpoint) leaves the old
    /// snapshot + log intact — compaction is retried at the next
    /// threshold crossing, losing nothing.
    pub fn compact_shard(&mut self, idx: usize) {
        let snapshot = self.shard_snapshot_bytes(idx);
        if self.shards[idx].journal.install_snapshot(&snapshot).is_ok() {
            self.tracer.record(EventKind::Compaction {
                shard: idx,
                bytes: snapshot.len(),
            });
        }
    }

    /// Compacts every shard.
    pub fn compact_journal(&mut self) {
        for idx in 0..self.shards.len() {
            self.compact_shard(idx);
        }
    }

    // --- Handlers ---------------------------------------------------------

    /// Serves a page with freshness + authenticity (Figs. 9/10, step 1).
    ///
    /// # Panics
    ///
    /// Panics if `path` is not a served page.
    pub fn hello(&mut self, path: &str) -> ServerHello {
        let id = &self.identity;
        let page = id
            .pages
            .get(path)
            .unwrap_or_else(|| panic!("no page at {path}"))
            .clone();
        let nonce = self.ephemeral.fresh_nonce();
        let bytes = ServerHello::signed_bytes(&id.domain, &page, &nonce);
        let signature = id.keys.sign(&bytes, &mut self.ephemeral.entropy);
        ServerHello {
            domain: id.domain.clone(),
            page,
            nonce,
            server_cert: id.cert.clone(),
            signature,
        }
    }

    /// Handles a registration submission (Fig. 9, step 5): verifies the
    /// nonce, the device certificate, and the device signature, journals
    /// the binding, then applies it.
    ///
    /// A byte-identical retransmit of an already-bound submission is
    /// re-acked as [`Freshness::Resent`] without touching state, so a
    /// device that lost the ack can retry safely.
    ///
    /// # Errors
    ///
    /// Rejects on replayed/unknown nonce, bad certificate, bad signature,
    /// an already-bound account name, or an invalid submitted key; returns
    /// [`Reject::ServerCrashed`] if a crash point fires.
    pub fn handle_registration(
        &mut self,
        msg: &RegistrationSubmit,
    ) -> Result<(RegistrationAck, Freshness), Reject> {
        self.serve(&msg.account, true, |id, shard, eph| {
            decide_registration(id, shard, eph, msg)
        })
    }

    /// The account's fallback reset password (out-of-band channel in the
    /// real deployment; exposed for the reset experiment).
    pub fn reset_password_for(&self, account: &str) -> Option<&str> {
        self.shards[self.shard_for(account)]
            .accounts
            .get(account)
            .map(|a| a.reset_password.as_str())
    }

    /// Handles a login submission (Fig. 10, step 3): verifies nonce and
    /// user-key signature, recovers the session key, evaluates risk,
    /// journals the new session, and opens it, returning its first
    /// content page.
    ///
    /// A byte-identical retransmit of an already-processed submission gets
    /// the same first page back as [`Freshness::Resent`] without opening a
    /// second session; a replay with *different* bytes is rejected.
    ///
    /// # Errors
    ///
    /// Rejects on nonce, account, signature, session-key, or risk-policy
    /// failures; returns [`Reject::ServerCrashed`] if a crash point fires.
    pub fn handle_login(&mut self, msg: &LoginSubmit) -> Result<(ContentPage, Freshness), Reject> {
        let opened = self.total_sessions();
        self.serve(&msg.account, false, |id, shard, eph| {
            decide_login(id, shard, eph, msg, opened)
        })
    }

    /// Handles a post-login interaction (Fig. 10, step 4).
    ///
    /// Every session runs one admission rule with credit `max(window, 1)`
    /// slots, `expected_seq` being the window base (the lowest slot not yet
    /// served). A lock-step session (window 0) is the window of one that
    /// Fig. 10 describes: stop-and-wait.
    ///
    /// 1. Slot still in the reply cache — a retransmit: MAC-verify *this
    ///    copy's* bytes, then answer from the cache ([`Freshness::Resent`]
    ///    if byte-identical to the served request, [`Freshness::Resync`]
    ///    when the device rebuilt it after losing our reply). No state
    ///    moves.
    /// 2. Slot below the base and no longer cached — [`Reject::Replay`].
    /// 3. Slot at or past `base + credit` — the device may not run ahead of
    ///    its credit: [`Reject::UnknownNonce`].
    /// 4. Wrong nonce — [`Reject::Replay`] if consumed, else
    ///    [`Reject::UnknownNonce`].
    /// 5. Bad MAC — [`Reject::BadMac`].
    /// 6. Fresh work: risk policy, then the reply, journaled then applied.
    ///
    /// Only the nonce source differs. A lock-step request echoes the
    /// challenge the server issued with its last reply, and the reply
    /// carries a fresh one. A windowed request carries the per-slot nonce
    /// both ends derive from the session key
    /// ([`crate::messages::window_nonce`]), so pipelined requests need no
    /// challenge and recovery needs no resume round.
    ///
    /// # Errors
    ///
    /// Rejects on unknown/terminated session, stale/forged sequence
    /// number, nonce replay, MAC failure, or risk-policy termination;
    /// returns [`Reject::ServerCrashed`] if a crash point fires.
    pub fn handle_interaction(
        &mut self,
        msg: &InteractionRequest,
    ) -> Result<(ContentPage, Freshness), Reject> {
        self.serve(&msg.account, false, |id, shard, eph| {
            decide_interaction(id, shard, eph, msg)
        })
    }

    /// Handles a session-resumption request: a device whose exchange timed
    /// out across a server restart proves possession of the session key
    /// (MAC over a fresh device nonce and its last acknowledged sequence
    /// number) and re-learns the current challenge nonce. If the device is
    /// one reply behind — the server served an interaction whose reply
    /// died with the old process — the cached reply rides along in the ack
    /// so the device catches up without the interaction running twice.
    ///
    /// Idempotent per resume nonce: a retransmitted request is re-answered
    /// from the resume cache as [`Freshness::Resent`].
    ///
    /// # Errors
    ///
    /// Rejects on unknown/terminated session, MAC failure, a replayed
    /// resume nonce, or an implausible sequence number; returns
    /// [`Reject::ServerCrashed`] if a crash point fires.
    pub fn handle_resume(&mut self, msg: &ResumeRequest) -> Result<(ResumeAck, Freshness), Reject> {
        self.serve(&msg.account, false, |_, shard, eph| {
            decide_resume(shard, eph, msg)
        })
    }

    /// Handles a wire identity-reset request (paper §IV, "Identity
    /// Reset", carried over the network instead of a branch visit): the
    /// fallback password removes the old key binding so the user can
    /// re-register from a new device.
    ///
    /// Idempotent per request nonce: a retransmit of a served reset is
    /// re-acked without touching state.
    ///
    /// # Errors
    ///
    /// Rejects on nonce, domain, account, or credential failures; returns
    /// [`Reject::ServerCrashed`] if a crash point fires.
    pub fn handle_reset(&mut self, msg: &ResetRequest) -> Result<(ResetAck, Freshness), Reject> {
        self.serve(&msg.account, false, |id, shard, eph| {
            decide_reset(id, shard, eph, msg)
        })
    }

    /// Identity reset after device loss, local form (a trusted side
    /// channel such as a branch visit): the fallback password removes the
    /// old key binding so the user can re-register from a new device
    /// (paper §IV, "Identity Reset").
    ///
    /// # Errors
    ///
    /// Rejects on unknown account or wrong credential; returns
    /// [`Reject::ServerCrashed`] if a crash point fires.
    pub fn reset_identity(&mut self, account: &str, password: &str) -> Result<(), Reject> {
        self.serve(account, false, |_, shard, _| {
            decide_identity_reset(shard, account, password)
        })
    }

    /// Closes `session_id` cleanly (logout / end of lifecycle),
    /// journaling a `SessionClosed` record whose application evicts the
    /// session, its idempotency-cache entries, and the nonces it
    /// consumed — the release valve that keeps resident state bounded.
    ///
    /// Idempotent: closing an unknown or already-closed session returns
    /// `Ok(false)` without touching state, so a caller that lost the
    /// first acknowledgement can simply retry.
    ///
    /// # Errors
    ///
    /// Returns [`Reject::ServerCrashed`] if a crash point fires.
    pub fn close_session(&mut self, account: &str, session_id: &str) -> Result<bool, Reject> {
        self.serve(account, false, |_, shard, _| {
            decide_close(shard, account, session_id)
        })
    }

    fn find_session(&self, session_id: &str) -> Option<&Session> {
        self.shards.iter().find_map(|s| s.sessions.get(session_id))
    }

    /// Interactions served in a session (testing/metrics).
    pub fn session_interactions(&self, session_id: &str) -> Option<u64> {
        self.find_session(session_id).map(|s| s.interactions)
    }

    /// Sessions ever opened, across shards (drives unique session ids).
    fn total_sessions(&self) -> u64 {
        self.shards.iter().map(|s| s.session_counter).sum()
    }

    // --- Recovery ---------------------------------------------------------

    /// The durable identity (keys, certificate, pages, policy, shard
    /// layout) that pairs with the journal segments to fully describe
    /// this server.
    pub fn identity(&self) -> ServerIdentity {
        self.identity.clone()
    }

    /// Rebuilds a server from its durable identity and one journal
    /// segment per shard: each shard independently restores its
    /// snapshot, replays every decodable record, and reports what it
    /// salvaged — a torn tail in one segment is that shard's skip count,
    /// not a global failure. Afterwards the challenge nonces embedded in
    /// the restored sessions are re-issued. Fresh entropy comes from
    /// `rng` — a restarted process never reuses its old randomness.
    ///
    /// Observability state (reject counters, trace, risk histogram)
    /// restarts empty; only protocol state is durable.
    pub fn recover(
        identity: ServerIdentity,
        journals: Vec<Journal>,
        rng: &mut SimRng,
    ) -> (WebServer, RecoveryReport) {
        debug_assert_eq!(identity.shard_count, journals.len().max(1));
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let ephemeral = Ephemeral::new(ChaChaEntropy::from_seed(seed));
        let mut shards: Vec<Shard> = journals.into_iter().map(Shard::over).collect();
        if shards.is_empty() {
            shards.push(Shard::default());
        }
        let mut server = WebServer::assemble(identity, ephemeral, shards);
        let mut report = RecoveryReport::default();
        for idx in 0..server.shards.len() {
            let contents = server.shards[idx].journal.read();
            let mut shard_report = ShardRecovery {
                snapshot_restored: false,
                records_replayed: contents.records.len(),
                records_skipped: contents.skipped,
                quarantined: !contents.corrupt_segments.is_empty(),
                corrupt_segments: contents.corrupt_segments.len(),
            };
            // Certified bytes that no longer verify quarantine the shard:
            // its salvaged state stays readable, but nothing new may be
            // built on top of a log we know lost certified records.
            server.shards[idx].quarantined = shard_report.quarantined;
            server.shards[idx].corrupt = contents.corrupt_segments.clone();
            if !contents.snapshot.is_empty() {
                shard_report.snapshot_restored =
                    server.restore_shard_snapshot(idx, &contents.snapshot);
            }
            for rec in &contents.records {
                debug_assert_eq!(
                    server.shard_for(rec.shard_account()),
                    idx,
                    "record in the wrong shard segment"
                );
                server.apply_record(rec);
            }
            report.shards.push(shard_report);
        }
        // Challenge nonces are ephemeral: re-issue the one each live
        // session is waiting on so the device's next request verifies.
        for sh in &server.shards {
            for s in sh.sessions.values().filter(|s| !s.terminated) {
                server.ephemeral.issued.issue(s.pending_nonce);
            }
        }
        (server, report)
    }

    /// Crash-restarts this server in place: the journal segments are
    /// salvaged from the dead process, everything else is rebuilt from
    /// them.
    pub fn recover_in_place(&mut self, rng: &mut SimRng) -> RecoveryReport {
        let journals: Vec<Journal> = self
            .shards
            .iter_mut()
            .map(|s| std::mem::take(&mut s.journal))
            .collect();
        let identity = self.identity();
        // The tracer and the risk histogram outlive the process: journal
        // replay inside `recover` runs with a disabled tracer (replayed
        // records re-emit nothing), then the live handle is reinstalled
        // and the recovery itself is recorded as per-shard spans.
        let tracer = self.tracer.clone();
        let risk_verified = self.ephemeral.risk_verified;
        let (server, report) = WebServer::recover(identity, journals, rng);
        *self = server;
        self.tracer = tracer;
        self.ephemeral.risk_verified = risk_verified;
        for (i, sh) in report.shards.iter().enumerate() {
            self.tracer.open(SpanKind::Recover(i), CtxArgs::shard(i));
            self.tracer.record(EventKind::Recovered {
                shard: i,
                snapshot_restored: sh.snapshot_restored,
                replayed: sh.records_replayed,
                skipped: sh.records_skipped,
            });
            for seg in &self.shards[i].corrupt {
                self.tracer.record(EventKind::SegmentCorrupt {
                    shard: i,
                    segment: seg.segment,
                    skipped: seg.skipped,
                });
            }
            let outcome = if sh.quarantined {
                Outcome::Rejected(Reject::ShardQuarantined)
            } else {
                Outcome::Success
            };
            self.tracer.close(SpanKind::Recover(i), outcome);
        }
        report
    }

    /// Applies one journal record to in-memory state. This is the *only*
    /// mutation path for durable state: live handlers journal a record
    /// and then apply it through here, so recovery replay is reuse, not
    /// reimplementation. The record routes to its shard via
    /// [`JournalRecord::shard_account`]; cache evictions (session close,
    /// LRU watermark) also happen here, so replay reproduces them.
    pub fn apply_record(&mut self, rec: &JournalRecord) {
        let idx = self.shard_for(rec.shard_account());
        match rec {
            JournalRecord::Registered {
                account,
                public_key,
                reset_password,
                nonce,
                signature,
                frame_hash,
            } => {
                let group = self.identity.keys.public_key().group();
                let element = U2048::from_be_bytes(public_key);
                let key = PublicKey::from_element(group, element);
                let shard = &mut self.shards[idx];
                shard.accounts.insert(
                    account.clone(),
                    AccountRecord {
                        public_key: key,
                        reset_password: reset_password.clone(),
                    },
                );
                shard.consumed.mark_consumed(*nonce);
                shard
                    .audit
                    .entry(account.clone())
                    .or_default()
                    .push(AuditEntry {
                        account: account.clone(),
                        expected_path: Arc::from("/register"),
                        frame_hash: *frame_hash,
                        action: Arc::from("register"),
                        risk: RiskReport::fresh_login(),
                        lookback: 1,
                    });
                if let Some(sig) = Signature::from_bytes(signature) {
                    let ack = RegistrationAck {
                        account: account.to_string(),
                        nonce: *nonce,
                    };
                    let (cache, order) = (&mut shard.reg_cache, &mut shard.reg_order);
                    let evicted = insert_lru(cache, order, &mut shard.consumed, *nonce, (sig, ack));
                    self.trace_evictions(CacheKind::Registration, evicted);
                }
            }
            JournalRecord::LoginServed {
                nonce,
                signature,
                sealed_session_key,
                window,
                reply,
                frame_hash,
                risk,
            } => {
                // The journal never holds the raw session key; a record
                // whose seal does not open under this server's recovery
                // key is foreign or tampered and installs no session.
                let Some(session_key) =
                    open_session_key(&self.identity.recovery_key, nonce, sealed_session_key)
                else {
                    debug_assert!(false, "sealed session key failed to open");
                    return;
                };
                let shard = &mut self.shards[idx];
                shard.session_counter += 1;
                shard.consumed.mark_consumed(*nonce);
                shard
                    .audit
                    .entry(reply.account.clone())
                    .or_default()
                    .push(AuditEntry {
                        account: reply.account.clone(),
                        expected_path: Arc::from("/login"),
                        frame_hash: *frame_hash,
                        action: Arc::from("login"),
                        risk: *risk,
                        lookback: 1,
                    });
                shard.sessions.insert(
                    reply.session_id.clone(),
                    Session {
                        account: reply.account.clone(),
                        key: session_key,
                        pending_nonce: reply.nonce,
                        expected_seq: reply.seq,
                        current_path: reply.page.path.clone(),
                        stepups: 0,
                        terminated: false,
                        interactions: 0,
                        login_nonce: *nonce,
                        resume_nonces: Vec::new(),
                        consumed_nonces: vec![*nonce],
                        window: *window,
                        reply_window: Vec::new(),
                    },
                );
                if let Some(sig) = Signature::from_bytes(signature) {
                    shard.login_cache.insert(*nonce, (sig, reply.clone()));
                }
            }
            JournalRecord::InteractionServed {
                request_nonce,
                request_mac,
                action,
                frame_hash,
                risk,
                expected_path,
                stepups,
                reply,
            } => {
                let shard = &mut self.shards[idx];
                shard.consumed.mark_consumed(*request_nonce);
                // A pipelined device legitimately lags the serve stream by
                // up to its window; lock-step sessions (window 0) stay
                // exact.
                let lookback = shard
                    .sessions
                    .get(&reply.session_id)
                    .map_or(1, |s| s.window.max(1));
                shard
                    .audit
                    .entry(reply.account.clone())
                    .or_default()
                    .push(AuditEntry {
                        account: reply.account.clone(),
                        expected_path: expected_path.clone(),
                        frame_hash: *frame_hash,
                        action: action.clone(),
                        risk: *risk,
                        lookback,
                    });
                if let Some(session) = shard.sessions.get_mut(&reply.session_id) {
                    // `reply.seq` is `slot + 1`, so the served slot is one
                    // less.
                    let slot = reply.seq.saturating_sub(1);
                    if !session.cache_reply(slot, *request_mac, reply) {
                        return;
                    }
                    if session.window == 0 {
                        session.pending_nonce = reply.nonce;
                    }
                    // The page shown is the highest-seq one served so far
                    // — again independent of apply order.
                    if let Some(last) = session.reply_window.last() {
                        session.current_path.clone_from(&last.reply.page.path);
                    }
                    session.interactions += 1;
                    session.stepups = *stepups as u32;
                    session.consumed_nonces.push(*request_nonce);
                }
            }
            JournalRecord::SessionResumed {
                device_nonce,
                request_mac,
                ack,
            } => {
                let shard = &mut self.shards[idx];
                shard.consumed.mark_consumed(*device_nonce);
                if let Some(session) = shard.sessions.get_mut(ack.session_id.as_str()) {
                    session.pending_nonce = ack.nonce;
                    session.resume_nonces.push(*device_nonce);
                    session.consumed_nonces.push(*device_nonce);
                }
                shard
                    .resume_cache
                    .insert(*device_nonce, (*request_mac, ack.clone()));
            }
            JournalRecord::SessionTerminated { session_id, .. } => {
                if let Some(session) = self.shards[idx].sessions.get_mut(session_id) {
                    session.terminated = true;
                }
            }
            JournalRecord::SessionClosed { session_id, .. } => {
                let shard = &mut self.shards[idx];
                if let Some(sess) = shard.sessions.remove(session_id) {
                    shard.login_cache.remove(&sess.login_nonce);
                    for n in &sess.resume_nonces {
                        shard.resume_cache.remove(n);
                    }
                    for n in &sess.consumed_nonces {
                        shard.consumed.forget_consumed(*n);
                    }
                    self.ephemeral.issued.remove(sess.pending_nonce);
                    // The session entry plus its login/resume cache
                    // entries all left resident state.
                    let evicted = 1 + 1 + sess.resume_nonces.len() as u64;
                    self.trace_evictions(CacheKind::Session, evicted);
                }
            }
            JournalRecord::IdentityReset { account } => {
                self.remove_binding(idx, account);
            }
            JournalRecord::ResetServed {
                account,
                nonce,
                request_digest,
            } => {
                self.remove_binding(idx, account);
                let shard = &mut self.shards[idx];
                shard.consumed.mark_consumed(*nonce);
                let ack = ResetAck {
                    account: account.to_string(),
                    nonce: *nonce,
                };
                let (cache, order) = (&mut shard.reset_cache, &mut shard.reset_order);
                let entry = (*request_digest, ack);
                let evicted = insert_lru(cache, order, &mut shard.consumed, *nonce, entry);
                self.trace_evictions(CacheKind::Reset, evicted);
            }
        }
    }

    /// Traces `evicted` entries leaving `cache`, if any did.
    fn trace_evictions(&self, cache: CacheKind, evicted: u64) {
        if evicted > 0 {
            self.tracer
                .record(EventKind::CacheEviction { cache, evicted });
        }
    }

    fn remove_binding(&mut self, idx: usize, account: &str) {
        let shard = &mut self.shards[idx];
        shard.accounts.remove(account);
        // Kill any live sessions for the account.
        for s in shard.sessions.values_mut() {
            if *s.account == *account {
                s.terminated = true;
            }
        }
    }

    // --- Snapshots --------------------------------------------------------

    /// Canonical bytes of one shard's durable state (maps serialized in
    /// sorted order, LRU caches in eviction order — both deterministic
    /// under replay — so two shards in the same state encode
    /// identically). Excludes observability state (reject counters,
    /// trace) and the issued-nonce set, which recovery re-issues.
    ///
    /// v2: session keys are sealed under the recovery key (the snapshot,
    /// like the journal, holds no raw secrets — sealing is deterministic,
    /// so equal state still means equal bytes), and each session carries
    /// its interaction window plus the windowed reply cache.
    pub fn shard_snapshot_bytes(&self, idx: usize) -> Vec<u8> {
        let shard = &self.shards[idx];
        signing_bytes("trust-shard-snapshot-v3", |w| {
            w.u64(shard.session_counter);

            let mut accounts: Vec<_> = shard.accounts.iter().collect();
            accounts.sort_by(|a, b| a.0.cmp(b.0));
            w.u64(accounts.len() as u64);
            for (name, rec) in accounts {
                w.str(name)
                    .bytes(&rec.public_key.to_bytes())
                    .str(&rec.reset_password);
            }

            let mut sessions: Vec<_> = shard.sessions.iter().collect();
            sessions.sort_by(|a, b| a.0.cmp(b.0));
            w.u64(sessions.len() as u64);
            let none = Vec::new();
            for (sid, s) in sessions {
                // v3 layout: a lock-step session's one cached reply sits in
                // its own slot here and its list below stays empty. A slot
                // is a list of at most one, whose count is the presence flag.
                let (slot, list) = if s.window == 0 {
                    (&s.reply_window, &none)
                } else {
                    (&none, &s.reply_window)
                };
                w.put(sid)
                    .put(&s.account)
                    .bytes(&seal_session_key(
                        &self.identity.recovery_key,
                        &s.login_nonce,
                        &s.key,
                    ))
                    .put(&s.pending_nonce)
                    .put(&s.expected_seq)
                    .put(slot)
                    .put(&s.current_path)
                    .u64(s.stepups.into())
                    .u64(s.terminated.into())
                    .put(&s.interactions)
                    .put(&s.login_nonce)
                    .put(&s.resume_nonces)
                    .put(&s.consumed_nonces)
                    .put(&s.window)
                    .put(list);
            }

            // The LRU caches serialize in eviction (insertion) order so a
            // restored shard evicts in exactly the same order.
            w.u64(shard.reg_order.len() as u64);
            for n in &shard.reg_order {
                let (sig, ack) = &shard.reg_cache[n];
                w.put(n).bytes(&sig.to_bytes()).put(&ack.account);
            }

            let mut logins: Vec<_> = shard.login_cache.iter().collect();
            logins.sort_by_key(|(n, _)| n.0);
            w.u64(logins.len() as u64);
            for (n, (sig, page)) in logins {
                w.put(n).bytes(&sig.to_bytes()).put(page);
            }

            let mut resumes: Vec<_> = shard.resume_cache.iter().collect();
            resumes.sort_by_key(|(n, _)| n.0);
            w.u64(resumes.len() as u64);
            for (n, (mac, ack)) in resumes {
                w.put(n).put(mac).put(ack);
            }

            w.u64(shard.reset_order.len() as u64);
            for n in &shard.reset_order {
                let (digest, ack) = &shard.reset_cache[n];
                w.put(n).put(digest).put(&ack.account);
            }

            w.put(&shard.consumed.consumed_sorted());

            let mut audit_accounts: Vec<_> = shard.audit.iter().collect();
            audit_accounts.sort_by(|a, b| a.0.cmp(b.0));
            w.u64(audit_accounts.len() as u64);
            for (account, entries) in audit_accounts {
                w.put(account).put(entries);
            }
        })
    }

    /// Canonical bytes of the full durable state: the shard count plus
    /// every shard's snapshot, in shard order.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        signing_bytes("trust-server-snapshot-v2", |w| {
            w.u32(self.shards.len() as u32);
            for idx in 0..self.shards.len() {
                w.bytes(&self.shard_snapshot_bytes(idx));
            }
        })
    }

    /// A digest of [`WebServer::snapshot_bytes`]: two servers with equal
    /// digests hold identical durable state.
    pub fn state_digest(&self) -> Digest {
        sha256(&self.snapshot_bytes())
    }

    /// Restores shard `idx`'s durable state from `bytes`; false when the
    /// snapshot does not decode, which leaves the shard as it was.
    fn restore_shard_snapshot(&mut self, idx: usize, bytes: &[u8]) -> bool {
        match self.decode_shard_snapshot(bytes) {
            Some(mut restored) => {
                // The journal segment and its quarantine verdict are not
                // snapshot state; they stay with the live shard.
                let live = &mut self.shards[idx];
                std::mem::swap(&mut restored.journal, &mut live.journal);
                std::mem::swap(&mut restored.corrupt, &mut live.corrupt);
                restored.quarantined = live.quarantined;
                *live = restored;
                true
            }
            None => false,
        }
    }

    /// Decodes a whole shard snapshot, trailing-byte check included, into
    /// a fresh shard, so a snapshot rejected part way installs nothing.
    fn decode_shard_snapshot(&self, bytes: &[u8]) -> Option<Shard> {
        let mut r = FieldReader::new(bytes);
        if r.str()? != "trust-shard-snapshot-v3" {
            return None;
        }
        let group = self.identity.keys.public_key().group();
        let recovery_key = self.identity.recovery_key;
        let mut shard = Shard {
            session_counter: r.get()?,
            ..Shard::default()
        };

        for _ in 0..r.u64()? {
            let name = r.get()?;
            let key = PublicKey::from_element(group, U2048::from_be_bytes(r.bytes()?));
            let reset_password = r.get()?;
            shard.accounts.insert(
                name,
                AccountRecord {
                    public_key: key,
                    reset_password,
                },
            );
        }

        for _ in 0..r.u64()? {
            let sid = r.get()?;
            let account = r.get()?;
            // The login nonce (the seal's stream nonce) arrives later in
            // the stream; buffer the sealed bytes until it does.
            let sealed_key: Vec<u8> = r.get()?;
            let pending_nonce = r.get()?;
            let expected_seq = r.get()?;
            let slot: Vec<CachedInteraction> = r.get()?;
            let current_path = r.get()?;
            let stepups = u32::try_from(r.u64()?).ok()?;
            let terminated = r.u64().filter(|&t| t < 2)? == 1;
            let interactions = r.get()?;
            let login_nonce = r.get()?;
            let resume_nonces = r.get()?;
            let consumed_nonces = r.get()?;
            let window = r.get()?;
            let list: Vec<CachedInteraction> = r.get()?;
            // A lock-step session keeps its reply in the slot, a windowed
            // one in the list; no writer mixes the two.
            let reply_window = match (window, slot.len(), list.len()) {
                (0, 0 | 1, 0) => slot,
                (1.., 0, _) => list,
                _ => return None,
            };
            let key = open_session_key(&recovery_key, &login_nonce, &sealed_key)?;
            shard.sessions.insert(
                sid,
                Session {
                    account,
                    key,
                    pending_nonce,
                    expected_seq,
                    current_path,
                    stepups,
                    terminated,
                    interactions,
                    login_nonce,
                    resume_nonces,
                    consumed_nonces,
                    window,
                    reply_window,
                },
            );
        }

        for _ in 0..r.u64()? {
            let nonce = r.get()?;
            let sig = Signature::from_bytes(r.bytes()?)?;
            let account = r.get()?;
            shard
                .reg_cache
                .insert(nonce, (sig, RegistrationAck { account, nonce }));
            shard.reg_order.push_back(nonce);
        }

        for _ in 0..r.u64()? {
            let nonce = r.get()?;
            let sig = Signature::from_bytes(r.bytes()?)?;
            let page = r.get()?;
            shard.login_cache.insert(nonce, (sig, page));
        }

        for _ in 0..r.u64()? {
            let nonce = r.get()?;
            let mac = r.get()?;
            let ack = r.get()?;
            shard.resume_cache.insert(nonce, (mac, ack));
        }

        for _ in 0..r.u64()? {
            let nonce = r.get()?;
            let digest = r.get()?;
            let account = r.get()?;
            shard
                .reset_cache
                .insert(nonce, (digest, ResetAck { account, nonce }));
            shard.reset_order.push_back(nonce);
        }

        let consumed: Vec<Nonce> = r.get()?;
        shard.consumed = ReplayGuard::from_consumed(consumed);

        for _ in 0..r.u64()? {
            let account = r.get()?;
            let entries = r.get()?;
            shard.audit.insert(account, entries);
        }
        r.is_empty().then_some(shard)
    }
}

/// Inserts `entry` under `nonce` into an LRU idempotency cache (`order` is
/// its eviction order), then evicts past [`DEFAULT_CACHE_WATERMARK`],
/// forgetting each evicted nonce in `consumed`. Returns how many left.
fn insert_lru<V>(
    cache: &mut HashMap<Nonce, V>,
    order: &mut VecDeque<Nonce>,
    consumed: &mut ReplayGuard,
    nonce: Nonce,
    entry: V,
) -> u64 {
    cache.insert(nonce, entry);
    order.push_back(nonce);
    let mut evicted = 0;
    while cache.len() > DEFAULT_CACHE_WATERMARK {
        let Some(old) = order.pop_front() else { break };
        cache.remove(&old);
        consumed.forget_consumed(old);
        evicted += 1;
    }
    evicted
}

// --- Decisions ------------------------------------------------------------

/// What a handler decided over a read-only shard, before anything is
/// journaled. [`WebServer::commit`] carries it out.
#[derive(Debug)]
enum Decision<R> {
    /// An answer that commits nothing: an idempotent cache hit, a
    /// `Resent`/`Resync` retransmit, or closing a session that is not open.
    Answer(R),
    /// A record to commit; the reply travels inside it.
    Commit(JournalRecord),
    /// A record to commit, then a refusal (risk termination).
    CommitThenRefuse(JournalRecord, Reject),
}

/// A handler's reply to fresh work, taken back out of the record that
/// carried it through the commit.
trait Reply {
    fn from_record(record: JournalRecord) -> Self;
}

impl Reply for (RegistrationAck, Freshness) {
    fn from_record(record: JournalRecord) -> Self {
        let JournalRecord::Registered { account, nonce, .. } = record else {
            unreachable!("a registration commits a binding");
        };
        let account = String::from(&*account);
        (RegistrationAck { account, nonce }, Freshness::Fresh)
    }
}

impl Reply for (ContentPage, Freshness) {
    fn from_record(record: JournalRecord) -> Self {
        match record {
            JournalRecord::LoginServed { reply, .. }
            | JournalRecord::InteractionServed { reply, .. } => (reply, Freshness::Fresh),
            _ => unreachable!("only logins and interactions serve pages"),
        }
    }
}

impl Reply for (ResumeAck, Freshness) {
    fn from_record(record: JournalRecord) -> Self {
        let JournalRecord::SessionResumed { ack, .. } = record else {
            unreachable!("a resume commits its ack");
        };
        (ack, Freshness::Fresh)
    }
}

impl Reply for (ResetAck, Freshness) {
    fn from_record(record: JournalRecord) -> Self {
        let JournalRecord::ResetServed { account, nonce, .. } = record else {
            unreachable!("a wire reset commits a served reset");
        };
        let account = String::from(&*account);
        (ResetAck { account, nonce }, Freshness::Fresh)
    }
}

/// A local identity reset answers nothing beyond success.
impl Reply for () {
    fn from_record(_: JournalRecord) {}
}

/// A committed close closed a live session.
impl Reply for bool {
    fn from_record(_: JournalRecord) -> bool {
        true
    }
}

/// Registration (Fig. 9, step 5): the checks, then the binding.
fn decide_registration(
    id: &ServerIdentity,
    shard: &Shard,
    eph: &mut Ephemeral,
    msg: &RegistrationSubmit,
) -> Result<Decision<(RegistrationAck, Freshness)>, Reject> {
    if let Some((sig, ack)) = shard.reg_cache.get(&msg.nonce) {
        if *sig == msg.signature {
            return Ok(Decision::Answer((ack.clone(), Freshness::Resent)));
        }
    }
    eph.consume_nonce(shard, msg.nonce)?;
    if !msg.device_cert.verify(&id.ca_key) || msg.device_cert.role() != Role::FlockModule {
        return Err(Reject::BadCertificate);
    }
    let bytes = RegistrationSubmit::signed_bytes(
        &msg.domain,
        &msg.account,
        &msg.nonce,
        &msg.frame_hash,
        &msg.user_public,
    );
    if msg.domain != id.domain || !msg.device_cert.public_key().verify(&bytes, &msg.signature) {
        return Err(Reject::BadSignature);
    }
    if shard.accounts.contains_key(msg.account.as_str()) {
        return Err(Reject::AccountExists);
    }
    // Honest keys are `g^x`. A key of order 2 or 2q (`p−1`, `−g^x`) is
    // refused like a bad signature: the subgroup test is a Jacobi symbol,
    // cheaper than the signature check above.
    let element = U2048::from_be_bytes(&msg.user_public);
    let group = id.keys.public_key().group();
    if !group.in_subgroup(&element) {
        return Err(Reject::BadSignature);
    }
    let public_key = PublicKey::from_element(group, element);
    // Fallback password, deliverable out of band; derived here so the
    // reset experiment has a stable credential.
    let reset_password = format!("reset-{}-{}", msg.account, public_key.fingerprint());
    Ok(Decision::Commit(JournalRecord::Registered {
        account: Arc::from(msg.account.as_str()),
        public_key: msg.user_public.clone(),
        reset_password,
        nonce: msg.nonce,
        signature: msg.signature.to_bytes(),
        frame_hash: msg.frame_hash,
    }))
}

/// Login (Fig. 10, step 3): the new session's id counts the `opened`
/// sessions of every shard.
fn decide_login(
    id: &ServerIdentity,
    shard: &Shard,
    eph: &mut Ephemeral,
    msg: &LoginSubmit,
    opened: u64,
) -> Result<Decision<(ContentPage, Freshness)>, Reject> {
    if let Some((sig, page)) = shard.login_cache.get(&msg.nonce) {
        if *sig == msg.signature {
            return Ok(Decision::Answer((page.clone(), Freshness::Resent)));
        }
    }
    eph.consume_nonce(shard, msg.nonce)?;
    let Some((account, record)) = shard.accounts.get_key_value(msg.account.as_str()) else {
        return Err(Reject::UnknownAccount);
    };
    let bytes = LoginSubmit::signed_bytes(
        &msg.domain,
        &msg.account,
        &msg.nonce,
        &msg.sealed_session_key,
        &msg.frame_hash,
        &msg.risk,
    );
    if msg.domain != id.domain || !record.public_key.verify(&bytes, &msg.signature) {
        return Err(Reject::BadSignature);
    }
    let Ok(session_key) = btd_crypto::elgamal::open(&id.keys, &msg.sealed_session_key) else {
        return Err(Reject::BadSessionKey);
    };
    eph.observe_risk(&msg.risk);
    if id.policy.evaluate(&msg.risk, 0) == RiskDecision::Terminate {
        return Err(Reject::RiskTerminated);
    }

    // The counters themselves only advance in apply_record, so the live
    // path and journal replay agree on the session id.
    let mut tag = [0u8; 16];
    eph.entropy.fill(&mut tag);
    let session_id: Arc<str> = Arc::from(format!("sess-{}-{}", opened + 1, Nonce(tag)));
    let home = id.pages.get("/home").expect("home page").clone();
    let nonce = eph.fresh_nonce();
    let mut reply = ContentPage {
        session_id,
        account: Arc::clone(account),
        nonce,
        seq: 0,
        page: home,
        mac: Digest([0; 32]),
    };
    reply.mac = wire::mac(&session_key, &reply);
    let sealed_session_key = seal_session_key(&id.recovery_key, &msg.nonce, &session_key);
    Ok(Decision::Commit(JournalRecord::LoginServed {
        nonce: msg.nonce,
        signature: msg.signature.to_bytes(),
        sealed_session_key,
        window: id.interaction_window,
        reply,
        frame_hash: msg.frame_hash,
        risk: msg.risk,
    }))
}

/// Interaction (Fig. 10, step 4): the six admission rows documented on
/// [`WebServer::handle_interaction`].
fn decide_interaction(
    id: &ServerIdentity,
    shard: &Shard,
    eph: &mut Ephemeral,
    msg: &InteractionRequest,
) -> Result<Decision<(ContentPage, Freshness)>, Reject> {
    let s = match shard.sessions.get(&msg.session_id) {
        Some(s) if !s.terminated && s.account == msg.account => s,
        _ => return Err(Reject::UnknownSession),
    };
    let mac_ok = || wire::mac_matches(&s.key, msg, &msg.mac);
    if let Some(cache) = s.window_reply(msg.seq) {
        // The MAC must verify over this copy's bytes before the cache
        // answers: equality with the cached MAC alone would let a tampered
        // copy (original MAC, rewritten fields) pass as a benign
        // retransmit. BadMac keeps an honest one retryable.
        if !mac_ok() {
            return Err(Reject::BadMac);
        }
        let freshness = if cache.request_mac == msg.mac {
            Freshness::Resent
        } else {
            Freshness::Resync
        };
        return Ok(Decision::Answer((cache.reply.clone(), freshness)));
    }
    let base = s.expected_seq;
    if msg.seq < base {
        // Served long enough ago that the cache evicted it; an honest
        // device cannot still be retransmitting this slot.
        return Err(Reject::Replay);
    }
    if msg.seq >= base.saturating_add(s.window.max(1)) {
        return Err(Reject::UnknownNonce);
    }
    // The one difference between the flows: where the nonces come from. A
    // lock-step request echoes the challenge the last reply issued, and
    // its reply draws the next one; a windowed session derives both from
    // the key (no entropy draw, so serving the same slot set in any order
    // leaves identical durable state).
    let (request_nonce, reply_nonce) = if s.window == 0 {
        (s.pending_nonce, None)
    } else {
        (
            window_nonce(&s.key, msg.seq),
            Some(window_nonce(&s.key, msg.seq + 1)),
        )
    };
    if msg.nonce != request_nonce {
        // Either a replayed old nonce or a forged one.
        return Err(if shard.consumed.is_consumed(msg.nonce) {
            Reject::Replay
        } else {
            Reject::UnknownNonce
        });
    }
    if !mac_ok() {
        return Err(Reject::BadMac);
    }

    // Risk policy. A termination is itself a durable state change.
    eph.observe_risk(&msg.risk);
    let stepups = match id.policy.evaluate(&msg.risk, s.stepups) {
        RiskDecision::Terminate => {
            let record = JournalRecord::SessionTerminated {
                session_id: msg.session_id.clone(),
                account: msg.account.clone(),
            };
            return Ok(Decision::CommitThenRefuse(record, Reject::RiskTerminated));
        }
        RiskDecision::StepUp => s.stepups + 1,
        _ => 0,
    };

    // The page to serve next (unknown actions bounce to home).
    let page = id
        .pages
        .get(&*msg.action)
        .or_else(|| id.pages.get("/home"))
        .expect("home page")
        .clone();
    let nonce = reply_nonce.unwrap_or_else(|| eph.fresh_nonce());
    let mut reply = ContentPage {
        session_id: msg.session_id.clone(),
        account: msg.account.clone(),
        nonce,
        seq: msg.seq + 1,
        page,
        mac: Digest([0; 32]),
    };
    reply.mac = wire::mac(&s.key, &reply);
    Ok(Decision::Commit(JournalRecord::InteractionServed {
        request_nonce: msg.nonce,
        request_mac: msg.mac,
        action: msg.action.clone(),
        frame_hash: msg.frame_hash,
        risk: msg.risk,
        // The page the server believed the user was seeing when they
        // acted: the audit commitment.
        expected_path: s.current_path.clone(),
        stepups: u64::from(stepups),
        reply,
    }))
}

/// Resume: an ack with a fresh challenge and any reply the device missed.
fn decide_resume(
    shard: &Shard,
    eph: &mut Ephemeral,
    msg: &ResumeRequest,
) -> Result<Decision<(ResumeAck, Freshness)>, Reject> {
    if let Some((mac, ack)) = shard.resume_cache.get(&msg.nonce) {
        if *mac == msg.mac {
            return Ok(Decision::Answer((ack.clone(), Freshness::Resent)));
        }
    }
    let s = match shard.sessions.get(msg.session_id.as_str()) {
        Some(s) if !s.terminated && *s.account == *msg.account => s,
        _ => return Err(Reject::UnknownSession),
    };
    if !wire::mac_matches(&s.key, msg, &msg.mac) {
        return Err(Reject::BadMac);
    }
    if shard.consumed.is_consumed(msg.nonce) {
        // Same nonce, different MAC: a tampered replay of an old resume.
        // The byte-identical case was answered from the cache.
        return Err(Reject::Replay);
    }
    let last_reply = if msg.last_seq == s.expected_seq {
        // Fully in sync; the device just needs the current nonce.
        None
    } else if msg.last_seq.checked_add(1) == Some(s.expected_seq) {
        // Behind by one with no cached reply: nothing to heal with, the
        // device must treat the session as lost.
        let cache = s.window_reply(msg.last_seq).ok_or(Reject::UnknownSession)?;
        Some(cache.reply.clone())
    } else if msg.last_seq < s.expected_seq {
        return Err(Reject::Replay);
    } else {
        // The device claims acks from the future.
        return Err(Reject::UnknownNonce);
    };
    let nonce = eph.fresh_nonce();
    let mut ack = ResumeAck {
        session_id: msg.session_id.clone(),
        account: msg.account.clone(),
        device_nonce: msg.nonce,
        nonce,
        seq: s.expected_seq,
        last_reply,
        mac: Digest([0; 32]),
    };
    ack.mac = wire::mac(&s.key, &ack);
    Ok(Decision::Commit(JournalRecord::SessionResumed {
        device_nonce: msg.nonce,
        request_mac: msg.mac,
        ack,
    }))
}

/// Wire reset (paper §IV, "Identity Reset"): the checks, then the reset.
fn decide_reset(
    id: &ServerIdentity,
    shard: &Shard,
    eph: &mut Ephemeral,
    msg: &ResetRequest,
) -> Result<Decision<(ResetAck, Freshness)>, Reject> {
    let digest = msg.request_digest();
    if let Some((d, ack)) = shard.reset_cache.get(&msg.nonce) {
        if *d == digest {
            return Ok(Decision::Answer((ack.clone(), Freshness::Resent)));
        }
    }
    eph.consume_nonce(shard, msg.nonce)?;
    if msg.domain != id.domain {
        return Err(Reject::BadSignature);
    }
    check_reset_password(shard, &msg.account, &msg.password)?;
    Ok(Decision::Commit(JournalRecord::ResetServed {
        account: Arc::from(msg.account.as_str()),
        nonce: msg.nonce,
        request_digest: digest,
    }))
}

/// Local identity reset: the fallback password, then the unbinding.
fn decide_identity_reset(
    shard: &Shard,
    account: &str,
    password: &str,
) -> Result<Decision<()>, Reject> {
    check_reset_password(shard, account, password)?;
    Ok(Decision::Commit(JournalRecord::IdentityReset {
        account: Arc::from(account),
    }))
}

/// The fallback-credential check both reset forms share.
fn check_reset_password(shard: &Shard, account: &str, password: &str) -> Result<(), Reject> {
    match shard.accounts.get(account) {
        None => Err(Reject::UnknownAccount),
        Some(record) if record.reset_password != password => Err(Reject::BadResetCredential),
        Some(_) => Ok(()),
    }
}

/// Close: a `SessionClosed` record, or `false` for a session not open.
fn decide_close(shard: &Shard, account: &str, session_id: &str) -> Result<Decision<bool>, Reject> {
    Ok(match shard.sessions.get_key_value(session_id) {
        Some((id, s)) if *s.account == *account => Decision::Commit(JournalRecord::SessionClosed {
            session_id: Arc::clone(id),
            account: Arc::clone(&s.account),
        }),
        _ => Decision::Answer(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (WebServer, TrustAuthority, SimRng) {
        let mut rng = SimRng::seed_from(11);
        let mut ca = TrustAuthority::new(DhGroup::test_512(), &mut rng);
        let server = WebServer::new("www.xyz.com", DhGroup::test_512(), &mut ca, &mut rng);
        (server, ca, rng)
    }

    fn insert_account(server: &mut WebServer, name: &str, password: &str) {
        let key = server.public_key().clone();
        let idx = server.shard_for(name);
        // trust-lint: allow(journal-discipline) -- test fixture: seeds an account behind the journal's back precisely to exercise recovery from a state the journal never saw
        server.shards[idx].accounts.insert(
            name.into(),
            AccountRecord {
                public_key: key,
                reset_password: password.to_owned(),
            },
        );
    }

    #[test]
    fn hello_is_signed_and_fresh() {
        let (mut server, ca, _) = setup();
        let h1 = server.hello("/register");
        let h2 = server.hello("/register");
        assert_ne!(h1.nonce, h2.nonce, "nonces must be fresh");
        assert!(h1.server_cert.verify(ca.public_key()));
        let bytes = ServerHello::signed_bytes(&h1.domain, &h1.page, &h1.nonce);
        assert!(server.public_key().verify(&bytes, &h1.signature));
    }

    #[test]
    #[should_panic(expected = "no page")]
    fn hello_for_missing_page_panics() {
        let (mut server, _, _) = setup();
        let _ = server.hello("/nope");
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let (server, _, _) = setup();
        assert_eq!(server.shard_count(), DEFAULT_SHARDS);
        for i in 0..100 {
            let account = format!("user-{i}");
            let idx = server.shard_for(&account);
            assert!(idx < server.shard_count());
            assert_eq!(idx, server.shard_for(&account), "routing must be stable");
        }
    }

    #[test]
    fn reset_requires_correct_password() {
        let (mut server, _, _) = setup();
        // No account yet.
        assert_eq!(
            server.reset_identity("alice", "pw"),
            Err(Reject::UnknownAccount)
        );
        // Insert an account directly for this unit test.
        insert_account(&mut server, "alice", "correct");
        assert_eq!(
            server.reset_identity("alice", "wrong"),
            Err(Reject::BadResetCredential)
        );
        assert!(server.reset_identity("alice", "correct").is_ok());
        assert!(!server.has_account("alice"));
    }

    #[test]
    fn reject_counters_accumulate() {
        let (mut server, _, _) = setup();
        server.set_tracer(Tracer::enabled());
        let _ = server.reset_identity("ghost", "pw");
        let _ = server.reset_identity("ghost", "pw");
        assert_eq!(server.reject_counts()[&Reject::UnknownAccount], 2);
        // Every rejection is also a typed event.
        let kinds: Vec<EventKind> = server
            .tracer()
            .events()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::ServerReject {
                    reason: Reject::UnknownAccount
                };
                2
            ]
        );
    }

    #[test]
    fn pages_can_be_added() {
        let (mut server, _, _) = setup();
        assert!(server.page("/promo").is_none());
        server.put_page(Page::new("/promo", b"sale".to_vec()));
        assert!(server.page("/promo").is_some());
    }

    #[test]
    fn crashed_server_answers_nothing_until_recovered() {
        let (mut server, _, mut rng) = setup();
        insert_account(&mut server, "alice", "correct");
        server.arm_crash_schedule(CrashSchedule::once_at(CrashPoint::BeforeAppend, 0));
        assert_eq!(
            server.reset_identity("alice", "correct"),
            Err(Reject::ServerCrashed)
        );
        assert!(server.is_crashed());
        assert_eq!(
            server.reset_identity("alice", "correct"),
            Err(Reject::ServerCrashed),
            "a dead process stays dead"
        );
        let report = server.recover_in_place(&mut rng);
        assert!(!server.is_crashed());
        assert_eq!(report.records_skipped(), 0);
        // The crash fired before the append: the reset never happened, and
        // the directly-inserted account (never journaled) is gone too —
        // recovery trusts the journal, not the dead heap.
        assert!(!server.has_account("alice"));
    }

    #[test]
    fn empty_server_recovery_is_identity() {
        let (mut server, _, mut rng) = setup();
        let digest = server.state_digest();
        let report = server.recover_in_place(&mut rng);
        assert_eq!(report.records_replayed(), 0);
        assert_eq!(report.snapshots_restored(), 0);
        assert_eq!(report.shards.len(), server.shard_count());
        assert_eq!(server.state_digest(), digest);
    }

    #[test]
    fn risk_histogram_survives_recovery_and_stays_out_of_durable_state() {
        let mut rng = SimRng::seed_from(29);
        let mut world = crate::scenario::World::new(&mut rng);
        let sidx = world.add_server("www.xyz.com", &mut rng);
        let dev = world.add_device("phone", 42, &mut rng);
        world
            .register(dev, "www.xyz.com", "alice", &mut rng)
            .expect("register");
        world.login(dev, "www.xyz.com", &mut rng).expect("login");
        world
            .run_session(dev, "www.xyz.com", 6, &mut rng)
            .expect("session");
        let server = world.server_mut(sidx);
        let counts = *server.risk_verified_counts();
        assert!(counts.iter().sum::<u64>() > 0, "{counts:?}");

        server.recover_in_place(&mut rng);
        assert_eq!(*server.risk_verified_counts(), counts, "carried across");

        // A server rebuilt from the same journals starts with zero counts
        // and still snapshots byte-identically.
        let snapshots: Vec<Vec<u8>> = (0..server.shard_count())
            .map(|i| server.shard_snapshot_bytes(i))
            .collect();
        let digest = server.state_digest();
        let journals = server
            .shards
            .iter_mut()
            .map(|sh| std::mem::take(&mut sh.journal))
            .collect();
        let (rebuilt, _) = WebServer::recover(server.identity(), journals, &mut rng);
        assert_eq!(
            *rebuilt.risk_verified_counts(),
            [0; RISK_BUCKET_PCT.len() + 1]
        );
        for (i, bytes) in snapshots.iter().enumerate() {
            assert_eq!(&rebuilt.shard_snapshot_bytes(i), bytes, "shard {i}");
        }
        assert_eq!(rebuilt.state_digest(), digest);
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let (server, _, _) = setup();
        assert_eq!(server.snapshot_bytes(), server.snapshot_bytes());
    }

    #[test]
    fn issued_nonce_set_is_capped() {
        let (mut server, _, _) = setup();
        for _ in 0..(ISSUED_NONCE_CAP + 500) {
            let _ = server.ephemeral.fresh_nonce();
        }
        assert!(server.resident_stats().issued_nonces <= ISSUED_NONCE_CAP);
    }

    /// A nonce whose first byte is `tag` and whose tail encodes `i`, so
    /// the eviction tests can mint distinct nonces without an RNG.
    fn numbered_nonce(tag: u8, i: u64) -> Nonce {
        let mut bytes = [0u8; 16];
        bytes[0] = tag;
        bytes[8..].copy_from_slice(&i.to_be_bytes());
        Nonce(bytes)
    }

    #[test]
    fn issued_nonce_eviction_is_insertion_order_fifo() {
        let mut issued = IssuedNonces::default();
        for i in 0..(ISSUED_NONCE_CAP as u64 + 10) {
            issued.issue(numbered_nonce(1, i));
        }
        assert_eq!(issued.len(), ISSUED_NONCE_CAP);
        // Exactly the 10 oldest issues were dropped; everything younger
        // survives. FIFO depends only on issue order, never on where the
        // nonces land in the hash map.
        for i in 0..10u64 {
            assert!(!issued.remove(numbered_nonce(1, i)), "oldest evicted");
        }
        for i in 10..(ISSUED_NONCE_CAP as u64 + 10) {
            assert!(issued.remove(numbered_nonce(1, i)), "younger survive");
        }
    }

    #[test]
    fn reissued_nonce_is_evicted_by_its_latest_issue_not_its_first() {
        // Regression: issue a, consume it, issue it again, then fill to
        // the cap. The stale first-issue deque entry must act as a
        // tombstone — under the old untagged deque it evicted the live
        // re-issue first, dropping the *newest* nonce out of FIFO order.
        let mut issued = IssuedNonces::default();
        let a = numbered_nonce(2, 0);
        let b = numbered_nonce(2, 1);
        issued.issue(a);
        issued.issue(b);
        assert!(issued.remove(a), "consume the first issue of a");
        issued.issue(a); // re-issue: a now belongs at the back, behind b
        for i in 0..(ISSUED_NONCE_CAP as u64 - 1) {
            issued.issue(numbered_nonce(3, i));
        }
        // One eviction past the cap so far: b (the oldest live issue)
        // must be the victim, not the re-issued a.
        assert!(!issued.remove(b), "b was the oldest live issue");
        assert!(
            issued.remove(a),
            "re-issued a moved to the back and survives"
        );
    }

    #[test]
    fn issued_nonce_eviction_order_is_deterministic_across_same_seed_runs() {
        // Two servers driven by identically-seeded RNGs must evict the
        // same nonces in the same order — the cross-run determinism the
        // parallel runtime's digest checks lean on. Interleave consumes
        // and re-issues to exercise the tombstone path.
        let run = || {
            let (mut server, _, _) = setup();
            let mut survivors = Vec::new();
            let mut minted = Vec::new();
            for i in 0..(ISSUED_NONCE_CAP as u64 + 64) {
                let n = server.ephemeral.fresh_nonce();
                minted.push(n);
                if i % 7 == 0 {
                    // Consume and immediately re-issue an older nonce.
                    let old = minted[(i / 2) as usize];
                    if server.ephemeral.issued.remove(old) {
                        server.ephemeral.issued.issue(old);
                    }
                }
            }
            for n in minted {
                if server.ephemeral.issued.remove(n) {
                    survivors.push(n);
                }
            }
            survivors
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sealed_session_key_round_trips_and_rejects_tampering() {
        let recovery_key = [7u8; 32];
        let login_nonce = Nonce([3u8; 16]);
        let key = vec![0xAB; 32];
        let sealed = seal_session_key(&recovery_key, &login_nonce, &key);
        assert!(
            !sealed.windows(key.len()).any(|w| w == &key[..]),
            "sealing must hide the raw key bytes"
        );
        assert_eq!(
            open_session_key(&recovery_key, &login_nonce, &sealed).as_deref(),
            Some(&key[..])
        );

        let mut flipped = sealed.clone();
        flipped[0] ^= 1;
        assert!(
            open_session_key(&recovery_key, &login_nonce, &flipped).is_none(),
            "tampered ciphertext must not open"
        );
        let mut cut_tag = sealed.clone();
        let last = cut_tag.len() - 1;
        cut_tag[last] ^= 1;
        assert!(
            open_session_key(&recovery_key, &login_nonce, &cut_tag).is_none(),
            "tampered tag must not open"
        );
        assert!(
            open_session_key(&[8u8; 32], &login_nonce, &sealed).is_none(),
            "wrong recovery key must not open"
        );
        assert!(
            open_session_key(&recovery_key, &Nonce([4u8; 16]), &sealed).is_none(),
            "wrong login nonce must not open"
        );
        assert!(
            open_session_key(&recovery_key, &login_nonce, &sealed[..8]).is_none(),
            "truncated blob must not open"
        );
    }

    #[test]
    fn journaled_login_record_holds_no_raw_session_key() {
        let recovery_key = [9u8; 32];
        let login_nonce = Nonce([5u8; 16]);
        let key = vec![0xC4; 32];
        let reply = ContentPage {
            session_id: "sess-1-n".into(),
            account: "alice".into(),
            nonce: Nonce([6u8; 16]),
            seq: 0,
            page: Page::new("/home", b"welcome back".to_vec()),
            mac: Digest([0u8; 32]),
        };
        let record = JournalRecord::LoginServed {
            nonce: login_nonce,
            signature: vec![1, 2, 3],
            sealed_session_key: seal_session_key(&recovery_key, &login_nonce, &key),
            window: 4,
            reply,
            frame_hash: Digest([2u8; 32]),
            risk: RiskReport::fresh_login(),
        };
        let encoded = wire::encode(&record);
        assert!(
            !encoded.windows(key.len()).any(|w| w == &key[..]),
            "the journal frame must not contain the raw session key"
        );
        let decoded: JournalRecord = wire::decode(&encoded).expect("decodes");
        assert_eq!(decoded, record, "sealed key and window survive the trip");
        let JournalRecord::LoginServed {
            sealed_session_key, ..
        } = &decoded
        else {
            panic!("wrong variant");
        };
        assert_eq!(
            open_session_key(&recovery_key, &login_nonce, sealed_session_key).as_deref(),
            Some(&key[..])
        );
    }

    #[test]
    fn shard_snapshot_holds_no_raw_session_key() {
        let (mut server, _, _) = setup();
        let key = vec![0x5E; 32];
        let login_nonce = Nonce([1u8; 16]);
        let idx = server.shard_for("alice");
        // Install a session the only sanctioned way: apply a journaled
        // login record.
        server.apply_record(&JournalRecord::LoginServed {
            nonce: login_nonce,
            signature: vec![1],
            sealed_session_key: seal_session_key(&server.identity.recovery_key, &login_nonce, &key),
            window: 0,
            reply: ContentPage {
                session_id: "sess-1-x".into(),
                account: "alice".into(),
                nonce: Nonce([2u8; 16]),
                seq: 0,
                page: Page::new("/home", b"welcome back".to_vec()),
                mac: Digest([0u8; 32]),
            },
            frame_hash: Digest([3u8; 32]),
            risk: RiskReport::fresh_login(),
        });
        let snapshot = server.shard_snapshot_bytes(idx);
        assert!(
            !snapshot.windows(key.len()).any(|w| w == &key[..]),
            "snapshots must hold only sealed keys"
        );
        // And the sealed snapshot restores to a working session.
        let digest = server.state_digest();
        let mut server2 = {
            let (s, _, _) = setup();
            s
        };
        assert!(server2.restore_shard_snapshot(idx, &snapshot));
        assert_eq!(
            server2.shards[idx].sessions["sess-1-x"].key, key,
            "restore unseals back to the raw key"
        );
        assert_eq!(server.state_digest(), digest, "snapshotting is read-only");
    }

    /// One shard snapshot holding a session opened at `window` that served
    /// slot 0 on request nonce `[7; 16]`, and the offset of the session's
    /// window value in it.
    fn snapshot_with_one_served_slot(window: u64) -> (Vec<u8>, usize) {
        let (mut server, _, _) = setup();
        let key = vec![0x5E; 32];
        let login_nonce = Nonce([1u8; 16]);
        let reply = |seq, nonce| ContentPage {
            session_id: "sess-1-x".into(),
            account: "alice".into(),
            nonce,
            seq,
            page: Page::new("/home", b"welcome back".to_vec()),
            mac: Digest([0u8; 32]),
        };
        server.apply_record(&JournalRecord::LoginServed {
            nonce: login_nonce,
            signature: vec![1],
            sealed_session_key: seal_session_key(&server.identity.recovery_key, &login_nonce, &key),
            window,
            reply: reply(0, Nonce([2u8; 16])),
            frame_hash: Digest([3u8; 32]),
            risk: RiskReport::fresh_login(),
        });
        server.apply_record(&JournalRecord::InteractionServed {
            request_nonce: Nonce([7u8; 16]),
            request_mac: Digest([4u8; 32]),
            action: "/home".into(),
            frame_hash: Digest([3u8; 32]),
            risk: RiskReport::fresh_login(),
            expected_path: "/home".into(),
            stepups: 0,
            reply: reply(1, Nonce([8u8; 16])),
        });
        let bytes = server.shard_snapshot_bytes(server.shard_for("alice"));
        // The session's consumed nonces end with the request's; the window
        // follows as a 4-byte length and 8 big-endian bytes.
        let at = bytes
            .windows(16)
            .position(|w| w == [7u8; 16])
            .expect("consumed request nonce")
            + 16
            + 4;
        assert_eq!(bytes[at..at + 8], window.to_be_bytes());
        (bytes, at)
    }

    #[test]
    fn snapshot_rejects_a_reply_cache_in_the_other_flows_place() {
        // A lock-step session's reply sits in the single slot, a windowed
        // one's in the list; relabelling the window mixes the two.
        for (window, relabelled) in [(0u64, 1u64), (1, 0)] {
            let (mut bytes, at) = snapshot_with_one_served_slot(window);
            let (mut server, _, _) = setup();
            let idx = server.shard_for("alice");
            assert!(
                server.restore_shard_snapshot(idx, &bytes),
                "window {window}"
            );
            assert_eq!(
                server.shards[idx].sessions["sess-1-x"].reply_window.len(),
                1
            );
            bytes[at..at + 8].copy_from_slice(&relabelled.to_be_bytes());
            let (mut server, _, _) = setup();
            assert!(
                !server.restore_shard_snapshot(idx, &bytes),
                "window {window} relabelled {relabelled} must be malformed"
            );
        }
    }

    #[test]
    fn rejected_snapshot_installs_nothing() {
        let (mut server, _, _) = setup();
        insert_account(&mut server, "alice", "pw");
        let key = vec![0x5E; 32];
        let login_nonce = Nonce([1u8; 16]);
        server.apply_record(&JournalRecord::LoginServed {
            nonce: login_nonce,
            signature: vec![1],
            sealed_session_key: seal_session_key(&server.identity.recovery_key, &login_nonce, &key),
            window: 0,
            reply: ContentPage {
                session_id: "sess-1-x".into(),
                account: "alice".into(),
                nonce: Nonce([2u8; 16]),
                seq: 0,
                page: Page::new("/home", b"welcome back".to_vec()),
                mac: Digest([0u8; 32]),
            },
            frame_hash: Digest([3u8; 32]),
            risk: RiskReport::fresh_login(),
        });
        let idx = server.shard_for("alice");
        let mut longer = server.shard_snapshot_bytes(idx);
        longer.push(0);

        let mut journals: Vec<Journal> = (0..server.shard_count())
            .map(|_| Journal::in_memory())
            .collect();
        journals[idx]
            .install_snapshot(&longer)
            .expect("in-memory install");
        let mut rng = SimRng::seed_from(5);
        let (recovered, report) = WebServer::recover(server.identity(), journals, &mut rng);
        assert!(!report.shards[idx].snapshot_restored);
        assert!(!recovered.has_account("alice"));
        assert!(recovered.shards[idx].sessions.is_empty());
        assert!(recovered.audit_log_for("alice").is_empty());
        let (empty, _, _) = setup();
        assert_eq!(
            recovered.shard_snapshot_bytes(idx),
            empty.shard_snapshot_bytes(idx)
        );
    }

    /// The entry points of the crash-point table.
    #[derive(Clone, Copy, Debug)]
    enum Entry {
        Registration,
        Login,
        LockStep,
        Windowed,
        RiskTermination,
        Resume,
        WireReset,
        ResetIdentity,
        CloseSession,
    }

    /// What one call did: its result, the crash events it traced, the
    /// visits per crash point, and the state digests before the call,
    /// after it, and after an in-place recovery.
    struct Run {
        returned: String,
        crashes: Vec<CrashPoint>,
        seen: [u64; 3],
        before: Digest,
        after: Digest,
        recovered: Digest,
    }

    /// Primes a world right up to `entry`'s call, arms
    /// `once_at(point, 0)` (or nothing), makes the call, then recovers in
    /// place.
    fn run_armed(entry: Entry, point: Option<CrashPoint>) -> Run {
        const DOMAIN: &str = "www.xyz.com";
        let mut rng = SimRng::seed_from(31);
        let mut world = crate::scenario::World::new(&mut rng);
        let sidx = world.add_server(DOMAIN, &mut rng);
        let dev = world.add_device("phone", 42, &mut rng);
        if !matches!(entry, Entry::Registration) {
            world
                .register(dev, DOMAIN, "alice", &mut rng)
                .expect("register");
        }
        match entry {
            Entry::Windowed => {
                world
                    .login_windowed(dev, DOMAIN, 2, &mut rng)
                    .expect("login");
            }
            Entry::LockStep | Entry::RiskTermination | Entry::Resume | Entry::CloseSession => {
                world.login(dev, DOMAIN, &mut rng).expect("login");
            }
            _ => {}
        }
        if matches!(entry, Entry::RiskTermination) {
            world.server_mut(sidx).set_risk_policy(ServerRiskPolicy {
                max_mismatches: 0,
                ..ServerRiskPolicy::default()
            });
        }
        let password = world
            .server(sidx)
            .reset_password_for("alice")
            .map(str::to_owned);
        let session_id = world.device(dev).session_id(DOMAIN).map(str::to_owned);
        let hello_path = match entry {
            Entry::Registration => "/register",
            Entry::Login => "/login",
            _ => "/reset",
        };
        let hello = world.server_mut(sidx).hello(hello_path);
        let device = world.device_mut(dev);
        let call: Box<dyn FnOnce(&mut WebServer) -> String> = match entry {
            Entry::Registration => {
                let msg = device
                    .begin_registration(&hello, "alice", 42, &mut rng)
                    .expect("submit");
                Box::new(move |s| format!("{:?}", s.handle_registration(&msg).map(|r| r.1)))
            }
            Entry::Login => {
                let msg = device.begin_login(&hello, 42, &mut rng).expect("submit");
                Box::new(move |s| format!("{:?}", s.handle_login(&msg).map(|r| r.1)))
            }
            Entry::LockStep | Entry::RiskTermination => {
                let msg = device.build_interaction(DOMAIN, "/inbox").expect("request");
                Box::new(move |s| format!("{:?}", s.handle_interaction(&msg).map(|r| r.1)))
            }
            Entry::Windowed => {
                let msg = device
                    .windowed_request(DOMAIN, "/inbox", 0)
                    .expect("request");
                Box::new(move |s| format!("{:?}", s.handle_interaction(&msg).map(|r| r.1)))
            }
            Entry::Resume => {
                let msg = device.begin_resume(DOMAIN).expect("request");
                Box::new(move |s| format!("{:?}", s.handle_resume(&msg).map(|r| r.1)))
            }
            Entry::WireReset => {
                let msg = ResetRequest {
                    domain: DOMAIN.to_owned(),
                    account: "alice".to_owned(),
                    password: password.expect("bound"),
                    nonce: hello.nonce,
                };
                Box::new(move |s| format!("{:?}", s.handle_reset(&msg).map(|r| r.1)))
            }
            Entry::ResetIdentity => {
                let password = password.expect("bound");
                Box::new(move |s| format!("{:?}", s.reset_identity("alice", &password)))
            }
            Entry::CloseSession => {
                let sid = session_id.expect("session");
                Box::new(move |s| format!("{:?}", s.close_session("alice", &sid)))
            }
        };

        let server = world.server_mut(sidx);
        let tracer = Tracer::enabled();
        server.set_tracer(tracer.clone());
        if let Some(point) = point {
            server.arm_crash_schedule(CrashSchedule::once_at(point, 0));
        }
        let before = server.state_digest();
        let returned = call(server);
        let after = server.state_digest();
        let crashes = tracer
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::CrashInjected { point } => Some(point),
                _ => None,
            })
            .collect();
        let seen = match server.crash {
            CrashSchedule::OnceAt { seen, .. } => seen,
            _ => [0; 3],
        };
        server.recover_in_place(&mut rng);
        Run {
            returned,
            crashes,
            seen,
            before,
            after,
            recovered: server.state_digest(),
        }
    }

    #[test]
    fn crash_point_table_covers_every_entry_point() {
        use CrashPoint::{AfterAppend as AA, BeforeAppend as BA, BeforeReply as BR};
        type Row = (
            &'static str,
            Vec<CrashPoint>,
            [u64; 3],
            &'static str,
            &'static str,
        );
        const CRASHED: &str = "Err(ServerCrashed)";
        // Columns: what the call returns, the crash events it traces, its
        // visits per point, and whether the state after the call and after
        // recovery is the state before it or the one an uncrashed call
        // commits. An in-memory journal loses nothing in a crash, so a
        // record appended before the crash is replayed.
        let fresh = || -> [Row; 3] {
            [
                (CRASHED, vec![BA], [1, 0, 0], "before", "before"),
                (CRASHED, vec![AA], [1, 1, 0], "before", "committed"),
                (CRASHED, vec![BR], [1, 1, 1], "committed", "committed"),
            ]
        };
        let table: [(Entry, [Row; 3]); 9] = [
            (Entry::Registration, fresh()),
            (Entry::Login, fresh()),
            (Entry::LockStep, fresh()),
            (Entry::Windowed, fresh()),
            (
                Entry::RiskTermination,
                [
                    (CRASHED, vec![BA], [1, 0, 0], "before", "before"),
                    (CRASHED, vec![AA], [1, 1, 0], "before", "committed"),
                    // A refusal trips no reply gate.
                    (
                        "Err(RiskTerminated)",
                        vec![],
                        [1, 1, 0],
                        "committed",
                        "committed",
                    ),
                ],
            ),
            (Entry::Resume, fresh()),
            (Entry::WireReset, fresh()),
            (Entry::ResetIdentity, fresh()),
            (Entry::CloseSession, fresh()),
        ];
        for (entry, rows) in table {
            let committed = run_armed(entry, None).after;
            for (point, want) in [BA, AA, BR].into_iter().zip(rows) {
                let run = run_armed(entry, Some(point));
                let state = |d: Digest| match d {
                    d if d == run.before => "before",
                    d if d == committed => "committed",
                    _ => "other",
                };
                let got = (
                    run.returned.as_str(),
                    run.crashes,
                    run.seen,
                    state(run.after),
                    state(run.recovered),
                );
                assert_eq!(got, want, "{entry:?} armed at {point:?}");
            }
        }
    }

    #[test]
    fn decide_interaction_needs_no_journal_or_crash_schedule() {
        // A lock-step session that served slots 0 and 1, built only
        // through apply_record: the base is 2, the reply cache holds slot
        // 1, and the next request must echo the challenge [4; 16].
        let (mut server, _, _) = setup();
        let key = vec![0x5E; 32];
        let login_nonce = Nonce([1u8; 16]);
        let page = |seq, nonce| ContentPage {
            session_id: "sess-1-x".into(),
            account: "alice".into(),
            nonce,
            seq,
            page: Page::new("/home", b"welcome back".to_vec()),
            mac: Digest([0u8; 32]),
        };
        let request = |seq, nonce, action: &str| {
            let mut r = InteractionRequest {
                session_id: "sess-1-x".into(),
                account: "alice".into(),
                nonce,
                seq,
                action: action.into(),
                frame_hash: Digest([3u8; 32]),
                risk: RiskReport::fresh_login(),
                mac: Digest([0u8; 32]),
            };
            r.mac = wire::mac(&key, &r);
            r
        };
        let challenge = |i: u8| Nonce([i + 2; 16]);
        server.apply_record(&JournalRecord::LoginServed {
            nonce: login_nonce,
            signature: vec![1],
            sealed_session_key: seal_session_key(&server.identity.recovery_key, &login_nonce, &key),
            window: 0,
            reply: page(0, challenge(0)),
            frame_hash: Digest([3u8; 32]),
            risk: RiskReport::fresh_login(),
        });
        for slot in 0..2u8 {
            let served = request(u64::from(slot), challenge(slot), "/inbox");
            server.apply_record(&JournalRecord::InteractionServed {
                request_nonce: served.nonce,
                request_mac: served.mac,
                action: served.action.clone(),
                frame_hash: served.frame_hash,
                risk: served.risk,
                expected_path: "/home".into(),
                stepups: 0,
                reply: page(u64::from(slot) + 1, challenge(slot + 1)),
            });
        }
        let idx = server.shard_for("alice");
        let snapshot = server.shard_snapshot_bytes(idx);
        let (id, shard) = (&server.identity, &server.shards[idx]);
        let mut eph = Ephemeral::new(ChaChaEntropy::from_seed([0u8; 32]));
        let mut decide = |msg: &InteractionRequest| decide_interaction(id, shard, &mut eph, msg);
        let answered = |d: Result<Decision<(ContentPage, Freshness)>, Reject>| match d {
            Ok(Decision::Answer((reply, freshness))) => Ok((reply.seq, freshness)),
            other => Err(format!("{other:?}")),
        };
        let refused = |d: Result<Decision<(ContentPage, Freshness)>, Reject>| d.err();

        // 1. A slot still cached answers from the cache: byte-identical is
        //    Resent, a rebuilt copy Resync, and a tampered copy BadMac.
        let retransmit = request(1, challenge(1), "/inbox");
        assert_eq!(answered(decide(&retransmit)), Ok((2, Freshness::Resent)));
        let rebuilt = request(1, challenge(1), "/settings");
        assert_eq!(answered(decide(&rebuilt)), Ok((2, Freshness::Resync)));
        let mut tampered = retransmit.clone();
        tampered.action = "/transfer".into();
        assert_eq!(refused(decide(&tampered)), Some(Reject::BadMac));
        // 2. Below the base and evicted from the cache.
        let evicted = request(0, challenge(0), "/inbox");
        assert_eq!(refused(decide(&evicted)), Some(Reject::Replay));
        // 3. At or past base + credit.
        let ahead = request(3, challenge(3), "/inbox");
        assert_eq!(refused(decide(&ahead)), Some(Reject::UnknownNonce));
        // 4. The wrong nonce: a consumed one, then one never issued.
        let consumed = request(2, challenge(1), "/inbox");
        assert_eq!(refused(decide(&consumed)), Some(Reject::Replay));
        let forged = request(2, Nonce([9u8; 16]), "/inbox");
        assert_eq!(refused(decide(&forged)), Some(Reject::UnknownNonce));
        // 5. The right nonce under a bad MAC.
        let mut bad_mac = request(2, challenge(2), "/inbox");
        bad_mac.mac = Digest([0u8; 32]);
        assert_eq!(refused(decide(&bad_mac)), Some(Reject::BadMac));
        // 6. Fresh work commits the served record, with the reply inside
        //    it; a risk report the policy terminates commits the
        //    termination and then refuses.
        let fresh = request(2, challenge(2), "/inbox");
        match decide(&fresh) {
            Ok(Decision::Commit(JournalRecord::InteractionServed {
                request_nonce,
                expected_path,
                reply,
                ..
            })) => {
                assert_eq!(request_nonce, challenge(2));
                assert_eq!(&*expected_path, "/home");
                assert_eq!((reply.seq, &*reply.page.path), (3, "/inbox"));
            }
            other => panic!("fresh work must commit: {other:?}"),
        }
        let mut risky = request(2, challenge(2), "/inbox");
        risky.risk.mismatched = ServerRiskPolicy::default().max_mismatches;
        risky.mac = wire::mac(&key, &risky);
        match decide(&risky) {
            Ok(Decision::CommitThenRefuse(
                JournalRecord::SessionTerminated { session_id, .. },
                Reject::RiskTerminated,
            )) => assert_eq!(&*session_id, "sess-1-x"),
            other => panic!("termination must commit then refuse: {other:?}"),
        }

        // Only the two fresh evaluations sampled risk, only the lock-step
        // reply drew a challenge, and the shard is as it was.
        assert_eq!(eph.risk_verified.iter().sum::<u64>(), 2);
        assert_eq!(eph.issued.len(), 1);
        assert_eq!(server.shard_snapshot_bytes(idx), snapshot);
    }

    impl WebServer {
        /// Adds (or replaces) a served page.
        pub fn put_page(&mut self, page: Page) {
            self.identity.pages.insert(page.path.to_string(), page);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::channel::Adversary;
    use journal::CrashProfile;
    use proptest::prelude::*;

    const DOMAIN: &str = "www.xyz.com";

    /// The identity and shard snapshots of a server after a seeded run
    /// over a 10%-loss channel: chaos lifecycles with crashes (closed at
    /// the end), lock-step sessions left open, and one windowed session
    /// left open.
    fn lossy_snapshots(seed: u64) -> (ServerIdentity, Vec<Vec<u8>>) {
        let mut rng = SimRng::seed_from(seed);
        let mut world = crate::World::with_adversary(Adversary::RandomLoss { loss: 0.1 }, &mut rng);
        let sidx = world.add_server(DOMAIN, &mut rng);
        for (i, account) in ["alice", "bob", "carol", "dave", "erin"].iter().enumerate() {
            let device = world.add_device(&format!("phone-{i}"), i as u64 + 1, &mut rng);
            // A lossy run may leave any step unfinished; whatever state it
            // reached is what the snapshot must carry.
            if i < 2 {
                let crashes = CrashProfile::uniform(0.05);
                let _ = world.run_chaos_lifecycle(device, DOMAIN, account, 6, crashes, &mut rng);
                continue;
            }
            let _ = world.register(device, DOMAIN, account, &mut rng);
            if i == 4 {
                let _ = world.login_windowed(device, DOMAIN, 3, &mut rng);
                let _ = world.run_windowed_session(device, DOMAIN, 8, 3, &mut rng);
            } else {
                let _ = world.login(device, DOMAIN, &mut rng);
                let _ = world.run_session(device, DOMAIN, 4, &mut rng);
                // A resume served straight to the server fills its cache.
                if let Ok(req) = world.device_mut(device).begin_resume(DOMAIN) {
                    let _ = world.server_mut(sidx).handle_resume(&req);
                }
            }
        }
        let server = world.server(sidx);
        let snapshots = (0..server.shard_count())
            .map(|idx| server.shard_snapshot_bytes(idx))
            .collect();
        (server.identity(), snapshots)
    }

    /// A server with `identity`'s keys and empty shards.
    fn fresh(identity: &ServerIdentity) -> WebServer {
        let journals = (0..identity.shard_count()).map(|_| Journal::in_memory());
        let mut rng = SimRng::seed_from(0);
        WebServer::recover(identity.clone(), journals.collect(), &mut rng).0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every shard snapshot restores into a fresh server that
        /// snapshots back to the same bytes, and a trailing byte makes
        /// the restore fail.
        #[test]
        fn shard_snapshots_restore_to_the_same_bytes(seed in any::<u64>(), extra in any::<u8>()) {
            let (identity, snapshots) = lossy_snapshots(seed);
            let mut server = fresh(&identity);
            for (idx, bytes) in snapshots.iter().enumerate() {
                prop_assert!(server.restore_shard_snapshot(idx, bytes));
                prop_assert_eq!(&server.shard_snapshot_bytes(idx), bytes);
                let mut longer = bytes.clone();
                longer.push(extra);
                prop_assert!(!fresh(&identity).restore_shard_snapshot(idx, &longer));
            }
        }
    }
}
