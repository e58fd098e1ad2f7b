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
//! watermark ([`WebServer::set_cache_watermark`]); and the set of issued
//! but unconsumed challenge nonces is capped at [`ISSUED_NONCE_CAP`].

pub mod journal;
pub mod storage;

use std::collections::{HashMap, VecDeque};

use btd_crypto::bignum::U2048;
use btd_crypto::cert::{Certificate, Role};
use btd_crypto::entropy::{ChaChaEntropy, EntropySource};
use btd_crypto::group::DhGroup;
use btd_crypto::hmac::{hmac_sha256, verify_hmac};
use btd_crypto::nonce::{Nonce, NonceGenerator, ReplayGuard};
use btd_crypto::schnorr::{KeyPair, PublicKey, Signature};
use btd_crypto::sha256::{sha256, Digest};
use btd_sim::rng::SimRng;
use btd_sim::time::SimTime;
use btd_sim::trace::TraceLog;

use crate::ca::TrustAuthority;
use crate::messages::{
    window_nonce, ContentPage, Freshness, InteractionRequest, LoginSubmit, RegistrationAck,
    RegistrationSubmit, Reject, ResetAck, ResetRequest, ResumeAck, ResumeRequest, ServerHello,
};
use crate::pages::Page;
use crate::risk_policy::{RiskDecision, RiskReport, ServerRiskPolicy};
use crate::telemetry::RISK_BUCKET_PCT;
use crate::trace::{CacheKind, CtxArgs, EventKind, Outcome, SpanKind, Tracer};
use crate::wire::{signing_bytes, FieldReader};

use crate::metrics::RetryPolicy;
use journal::{
    get_content_page, get_resume_ack, get_risk, put_content_page, put_resume_ack, put_risk,
    CorruptSegment, CrashPoint, CrashSchedule, Journal, JournalRecord, StorageError,
};
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

/// Default number of account shards.
pub const DEFAULT_SHARDS: usize = 4;

/// Default LRU watermark for the registration/reset idempotency caches
/// (entries per shard). Eviction happens inside `apply_record`, so replay
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

/// The last reply served in a session, kept so a retransmitted request
/// can be answered without advancing state (at-most-once semantics).
#[derive(Clone, Debug)]
struct CachedInteraction {
    /// Sequence number of the request that produced the reply.
    seq: u64,
    /// MAC of that request — identifies a byte-identical retransmit.
    request_mac: Digest,
    /// The reply to resend.
    reply: ContentPage,
}

/// A live session.
///
/// Besides protocol state, a session tracks every nonce it has consumed
/// (`login_nonce`, `resume_nonces`, `consumed_nonces`) so that closing it
/// can evict the matching idempotency-cache entries and replay-guard
/// entries in one pass.
#[derive(Clone)]
struct Session {
    account: String,
    key: Vec<u8>,
    pending_nonce: Nonce,
    /// Sequence number the next fresh interaction must carry.
    expected_seq: u64,
    /// Idempotency cache for the last served interaction.
    cache: Option<CachedInteraction>,
    current_path: String,
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
    /// Served replies for in-window slots, sorted by seq and capped at
    /// `window` entries — the windowed generalization of `cache`.
    /// `expected_seq` doubles as the window base: the lowest slot not yet
    /// served, advanced past contiguously served slots on every apply.
    reply_window: Vec<CachedInteraction>,
}

impl Session {
    /// The cached reply for slot `seq`, if it is still in the window.
    fn window_reply(&self, seq: u64) -> Option<&CachedInteraction> {
        self.reply_window.iter().find(|c| c.seq == seq)
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
/// and the frame hash FLock reported.
#[derive(Clone, Debug)]
pub struct AuditEntry {
    /// Account that acted.
    pub account: String,
    /// Path of the page the server had served for this view.
    pub expected_path: String,
    /// The frame hash FLock attached to the request.
    pub frame_hash: Digest,
    /// The action requested.
    pub action: String,
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
        // The order deque keeps tombstones until they reach the front;
        // bound it so it cannot outgrow the cap either. Popping a
        // still-live front entry here is the same oldest-first eviction
        // as below, just triggered by tombstone pressure.
        while self.order.len() > 2 * ISSUED_NONCE_CAP {
            if let Some((old, g)) = self.order.pop_front() {
                if self.live.get(&old) == Some(&g) {
                    self.live.remove(&old);
                }
            }
        }
        while self.live.len() > ISSUED_NONCE_CAP {
            match self.order.pop_front() {
                Some((old, g)) => {
                    // Only the entry carrying a nonce's latest generation
                    // may evict it; stale entries are skipped tombstones.
                    if self.live.get(&old) == Some(&g) {
                        self.live.remove(&old);
                    }
                }
                None => break,
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
    accounts: HashMap<String, AccountRecord>,
    /// Live sessions, keyed by session id (an account's sessions live in
    /// its shard).
    sessions: HashMap<String, Session>,
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
    audit: HashMap<String, Vec<AuditEntry>>,
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
/// segments; [`WebServer::recover`] combines the two.
#[derive(Clone, Debug)]
pub struct ServerIdentity {
    domain: String,
    keys: KeyPair,
    cert: Certificate,
    ca_key: PublicKey,
    pages: HashMap<String, Page>,
    policy: ServerRiskPolicy,
    shard_count: usize,
    cache_watermark: usize,
    /// Symmetric key sealing session keys into journal records and
    /// snapshots. Part of the durable identity: recovery must open what
    /// the dead process sealed.
    recovery_key: [u8; 32],
    /// Interaction window advertised to sessions opened after recovery.
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
    domain: String,
    keys: KeyPair,
    cert: Certificate,
    ca_key: PublicKey,
    entropy: ChaChaEntropy,
    nonces: NonceGenerator<ChaChaEntropy>,
    /// Issued, unconsumed challenge nonces (server-wide, ephemeral).
    issued: IssuedNonces,
    /// The account shards (durable state + journal segment each).
    shards: Vec<Shard>,
    pages: HashMap<String, Page>,
    policy: ServerRiskPolicy,
    reject_counts: HashMap<Reject, u64>,
    trace: TraceLog,
    /// Structured protocol tracer (disabled unless installed); survives
    /// in-place recovery but, like all observability state, is not
    /// durable — a server recovered from journals alone starts disabled.
    tracer: Tracer,
    /// Cumulative `risk_verified_pct` histogram over [`RISK_BUCKET_PCT`]
    /// (plus overflow). Observability state with the tracer's lifecycle:
    /// carried across in-place recovery, never in snapshot bytes or
    /// digests.
    risk_verified: [u64; RISK_BUCKET_PCT.len() + 1],
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
    /// Retry budget for transient journal sync failures; exhausting it is
    /// a fail-stop crash.
    sync_policy: RetryPolicy,
    compaction_threshold: usize,
    cache_watermark: usize,
    /// Symmetric key under which session keys are sealed before they
    /// enter durable state (journal records, shard snapshots).
    recovery_key: [u8; 32],
    /// Interaction window advertised at login: 0 keeps the lock-step
    /// stop-and-wait flow; `w >= 1` enables the pipelined windowed flow.
    interaction_window: u64,
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
        let nonce_entropy = entropy.fork(b"nonces");
        let mut recovery_key = [0u8; 32];
        entropy.fork(b"recovery-seal").fill(&mut recovery_key);

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

        WebServer {
            domain: domain.to_owned(),
            keys,
            cert,
            ca_key: ca.public_key().clone(),
            entropy,
            nonces: NonceGenerator::new(nonce_entropy),
            issued: IssuedNonces::default(),
            shards: (0..shard_count.max(1)).map(|_| Shard::default()).collect(),
            pages,
            policy: ServerRiskPolicy::default(),
            reject_counts: HashMap::new(),
            trace: TraceLog::new(),
            tracer: Tracer::disabled(),
            risk_verified: [0; RISK_BUCKET_PCT.len() + 1],
            crash: CrashSchedule::Never,
            crashed: false,
            degraded: false,
            sync_policy: RetryPolicy::default(),
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            cache_watermark: DEFAULT_CACHE_WATERMARK,
            recovery_key,
            interaction_window: 0,
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

    /// Overrides the sync retry budget (transient failures per barrier).
    pub fn set_sync_policy(&mut self, policy: RetryPolicy) {
        self.sync_policy = policy;
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
        self.interaction_window = window;
    }

    /// The serving domain.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The server's public key.
    pub fn public_key(&self) -> &PublicKey {
        self.keys.public_key()
    }

    /// Overrides the risk policy (for the policy-sweep experiments).
    pub fn set_risk_policy(&mut self, policy: ServerRiskPolicy) {
        self.policy = policy;
    }

    /// The page at `path`, if served here.
    pub fn page(&self, path: &str) -> Option<&Page> {
        self.pages.get(path)
    }

    /// Adds (or replaces) a served page.
    pub fn put_page(&mut self, page: Page) {
        self.pages.insert(page.path.clone(), page);
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
        let mut per_account: Vec<(&String, &Vec<AuditEntry>)> =
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
            .flat_map(|s| s.audit.keys().map(|k| k.as_str()))
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
            issued_nonces: self.issued.len(),
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
        self.trace.security(
            SimTime::ZERO,
            "server",
            format!("rejected request: {reason}"),
        );
        self.tracer.record(EventKind::ServerReject { reason });
        reason
    }

    /// The server's security-event trace (every rejection, in order).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
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
        &self.risk_verified
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

    fn fresh_nonce(&mut self) -> Nonce {
        let n = self.nonces.next_nonce();
        self.issued.issue(n);
        n
    }

    /// Consumes `nonce` against shard `idx`: rejects a nonce the shard
    /// already consumed as a replay, and one this server never issued as
    /// unknown. The durable consumed-marking happens in `apply_record`,
    /// so live state and journal replay agree exactly.
    fn consume_nonce(&mut self, idx: usize, nonce: Nonce) -> Result<(), Reject> {
        if self.shards[idx].consumed.is_consumed(nonce) {
            return Err(self.reject(Reject::Replay));
        }
        if self.issued.remove(nonce) {
            Ok(())
        } else {
            Err(self.reject(Reject::UnknownNonce))
        }
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

    /// Overrides the auto-compaction threshold (records per shard
    /// snapshot).
    pub fn set_compaction_threshold(&mut self, records: usize) {
        self.compaction_threshold = records.max(1);
    }

    /// Overrides the LRU watermark bounding the registration/reset
    /// caches (entries per shard). Takes effect on subsequent applies;
    /// part of [`ServerIdentity`], so recovery reproduces the same
    /// evictions.
    pub fn set_cache_watermark(&mut self, entries: usize) {
        self.cache_watermark = entries.max(1);
    }

    fn check_up(&self) -> Result<(), Reject> {
        if self.crashed {
            // A dead process counts nothing and logs nothing: the reject
            // counters deliberately stay untouched.
            Err(Reject::ServerCrashed)
        } else {
            Ok(())
        }
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
    /// transient failures retry under the sync policy (fail-stop once the
    /// budget is exhausted), a full disk forces emergency compaction and
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
                    if attempt >= u64::from(self.sync_policy.max_attempts) {
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

    /// Rejects mutating traffic routed to a quarantined shard.
    fn check_writable(&mut self, idx: usize) -> Result<(), Reject> {
        if self.shards[idx].quarantined {
            Err(self.reject(Reject::ShardQuarantined))
        } else {
            Ok(())
        }
    }

    /// Folds shard `idx`'s pending records into a fresh snapshot once the
    /// threshold is reached.
    fn maybe_compact(&mut self, idx: usize) {
        if self.shards[idx].journal.pending_records() >= self.compaction_threshold {
            self.compact_shard(idx);
        }
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
        let page = self
            .pages
            .get(path)
            .unwrap_or_else(|| panic!("no page at {path}"))
            .clone();
        let nonce = self.fresh_nonce();
        let bytes = ServerHello::signed_bytes(&self.domain, &page, &nonce);
        let signature = self.keys.sign(&bytes, &mut self.entropy);
        ServerHello {
            domain: self.domain.clone(),
            page,
            nonce,
            server_cert: self.cert.clone(),
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
        self.check_up()?;
        let idx = self.shard_for(&msg.account);
        self.check_writable(idx)?;
        if self.degraded {
            // Load shedding: registrations grow live state permanently, so
            // they are the first thing refused under storage pressure.
            // Existing sessions keep being served.
            return Err(self.reject(Reject::StorageDegraded));
        }
        self.maybe_compact(idx);
        if let Some((sig, ack)) = self.shards[idx].reg_cache.get(&msg.nonce) {
            if *sig == msg.signature {
                return Ok((ack.clone(), Freshness::Resent));
            }
        }
        self.consume_nonce(idx, msg.nonce)?;
        if !msg.device_cert.verify(&self.ca_key) || msg.device_cert.role() != Role::FlockModule {
            return Err(self.reject(Reject::BadCertificate));
        }
        let bytes = RegistrationSubmit::signed_bytes(
            &msg.domain,
            &msg.account,
            &msg.nonce,
            &msg.frame_hash,
            &msg.user_public,
        );
        if msg.domain != self.domain || !msg.device_cert.public_key().verify(&bytes, &msg.signature)
        {
            return Err(self.reject(Reject::BadSignature));
        }
        if self.shards[idx].accounts.contains_key(&msg.account) {
            return Err(self.reject(Reject::AccountExists));
        }
        let element = U2048::from_be_bytes(&msg.user_public);
        let group = self.keys.public_key().group();
        if !group.contains(&element) {
            return Err(self.reject(Reject::BadSignature));
        }
        let public_key = PublicKey::from_element(group, element);
        // Fallback password, deliverable out of band; derived here so the
        // reset experiment has a stable credential.
        let reset_password = format!("reset-{}-{}", msg.account, public_key.fingerprint());
        let record = JournalRecord::Registered {
            account: msg.account.clone(),
            public_key: msg.user_public.clone(),
            reset_password,
            nonce: msg.nonce,
            signature: msg.signature.to_bytes(),
            frame_hash: msg.frame_hash,
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        self.pre_reply_crash()?;
        let ack = RegistrationAck {
            account: msg.account.clone(),
            nonce: msg.nonce,
        };
        Ok((ack, Freshness::Fresh))
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
        self.check_up()?;
        let idx = self.shard_for(&msg.account);
        self.check_writable(idx)?;
        self.maybe_compact(idx);
        if let Some((sig, page)) = self.shards[idx].login_cache.get(&msg.nonce) {
            if *sig == msg.signature {
                return Ok((page.clone(), Freshness::Resent));
            }
        }
        self.consume_nonce(idx, msg.nonce)?;
        let account_key = match self.shards[idx].accounts.get(&msg.account) {
            Some(record) => record.public_key.clone(),
            None => return Err(self.reject(Reject::UnknownAccount)),
        };
        let bytes = LoginSubmit::signed_bytes(
            &msg.domain,
            &msg.account,
            &msg.nonce,
            &msg.sealed_session_key,
            &msg.frame_hash,
            &msg.risk,
        );
        if msg.domain != self.domain || !account_key.verify(&bytes, &msg.signature) {
            return Err(self.reject(Reject::BadSignature));
        }
        let Ok(session_key) = btd_crypto::elgamal::open(&self.keys, &msg.sealed_session_key) else {
            return Err(self.reject(Reject::BadSessionKey));
        };
        self.observe_risk(&msg.risk);
        if self.policy.evaluate(&msg.risk, 0) == RiskDecision::Terminate {
            return Err(self.reject(Reject::RiskTerminated));
        }

        // The counters themselves only advance in apply_record, so the
        // live path and journal replay agree on the session id.
        let session_id = format!(
            "sess-{}-{}",
            self.total_sessions() + 1,
            Nonce({
                let mut b = [0u8; 16];
                self.entropy.fill(&mut b);
                b
            })
        );
        let home = self.pages.get("/home").expect("home page").clone();
        let nonce = self.fresh_nonce();
        let mac_bytes = ContentPage::mac_bytes(&session_id, &msg.account, &nonce, 0, &home);
        let mac = hmac_sha256(&session_key, &mac_bytes);
        let page = ContentPage {
            session_id,
            account: msg.account.clone(),
            nonce,
            seq: 0,
            page: home,
            mac,
        };
        let sealed_session_key = seal_session_key(&self.recovery_key, &msg.nonce, &session_key);
        let record = JournalRecord::LoginServed {
            nonce: msg.nonce,
            signature: msg.signature.to_bytes(),
            sealed_session_key,
            window: self.interaction_window,
            reply: page.clone(),
            frame_hash: msg.frame_hash,
            risk: msg.risk,
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        self.pre_reply_crash()?;
        Ok((page, Freshness::Fresh))
    }

    /// Handles a post-login interaction (Fig. 10, step 4).
    ///
    /// Requests carry a sequence number in lockstep with the server's
    /// per-session counter, which makes duplicate handling explicit:
    ///
    /// * `seq == expected` — fresh work: full nonce/MAC/risk checks, the
    ///   advance is journaled then applied, reply is cached, returned as
    ///   [`Freshness::Fresh`].
    /// * `seq == expected - 1`, byte-identical to the cached request — a
    ///   retransmit (our reply was lost): the cached reply is resent as
    ///   [`Freshness::Resent`] and *no state advances*.
    /// * `seq == expected - 1`, different bytes but a valid session MAC —
    ///   the genuine device lost our reply and built a new request against
    ///   stale state: the cached reply is resent as [`Freshness::Resync`]
    ///   so the device can catch up. No state advances.
    /// * anything else — rejected ([`Reject::Replay`] for stale sequence
    ///   numbers, [`Reject::UnknownNonce`] for future ones).
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
        self.check_up()?;
        let idx = self.shard_for(&msg.account);
        self.check_writable(idx)?;
        self.maybe_compact(idx);
        let (terminated, account_matches, pending_nonce, key, expected_seq, window) =
            match self.shards[idx].sessions.get(&msg.session_id) {
                Some(s) => (
                    s.terminated,
                    s.account == msg.account,
                    s.pending_nonce,
                    s.key.clone(),
                    s.expected_seq,
                    s.window,
                ),
                None => return Err(self.reject(Reject::UnknownSession)),
            };
        if terminated || !account_matches {
            return Err(self.reject(Reject::UnknownSession));
        }
        if window >= 1 {
            return self.windowed_interaction(idx, key, expected_seq, window, msg);
        }
        if msg.seq.checked_add(1) == Some(expected_seq) {
            if let Some(cache) = self.shards[idx]
                .sessions
                .get(&msg.session_id)
                .and_then(|s| s.cache.as_ref())
            {
                if cache.seq == msg.seq {
                    // The MAC must verify over *this copy's* bytes before
                    // the cache answers: equality with the cached MAC alone
                    // would let a tampered copy (original MAC, rewritten
                    // fields) pass as a benign retransmit.
                    let mac_bytes = InteractionRequest::mac_bytes(
                        &msg.session_id,
                        &msg.account,
                        &msg.nonce,
                        msg.seq,
                        &msg.action,
                        &msg.frame_hash,
                        &msg.risk,
                    );
                    if !verify_hmac(&key, &mac_bytes, &msg.mac) {
                        // Damaged or tampered copy of an old request;
                        // BadMac keeps an honest retransmit retryable.
                        return Err(self.reject(Reject::BadMac));
                    }
                    let freshness = if cache.request_mac == msg.mac {
                        Freshness::Resent
                    } else {
                        Freshness::Resync
                    };
                    return Ok((cache.reply.clone(), freshness));
                }
            }
            // No cache entry: classify below as a replay.
        }
        if msg.seq != expected_seq {
            let reason = if msg.seq < expected_seq {
                Reject::Replay
            } else {
                Reject::UnknownNonce
            };
            return Err(self.reject(reason));
        }
        if msg.nonce != pending_nonce {
            // Either a replayed old nonce or a forged one.
            let reason = if self.shards[idx].consumed.is_consumed(msg.nonce) {
                Reject::Replay
            } else {
                Reject::UnknownNonce
            };
            return Err(self.reject(reason));
        }
        let mac_bytes = InteractionRequest::mac_bytes(
            &msg.session_id,
            &msg.account,
            &msg.nonce,
            msg.seq,
            &msg.action,
            &msg.frame_hash,
            &msg.risk,
        );
        if !verify_hmac(&key, &mac_bytes, &msg.mac) {
            return Err(self.reject(Reject::BadMac));
        }

        // Risk policy. A termination is itself a durable state change.
        let stepups = self.shards[idx].sessions[&msg.session_id].stepups;
        self.observe_risk(&msg.risk);
        let decision = self.policy.evaluate(&msg.risk, stepups);
        if decision == RiskDecision::Terminate {
            let record = JournalRecord::SessionTerminated {
                session_id: msg.session_id.clone(),
                account: msg.account.clone(),
            };
            self.journal_append(idx, &record)?;
            self.apply_record(&record);
            return Err(self.reject(Reject::RiskTerminated));
        }
        let next_stepups = match decision {
            RiskDecision::StepUp => stepups + 1,
            _ => 0,
        };

        // The page the server believed the user was seeing when they
        // acted (the audit commitment), and the page to serve next
        // (unknown actions bounce to home).
        let expected_path = self.shards[idx].sessions[&msg.session_id]
            .current_path
            .clone();
        let page = self
            .pages
            .get(&msg.action)
            .or_else(|| self.pages.get("/home"))
            .expect("home page")
            .clone();
        let nonce = self.fresh_nonce();
        let next_seq = msg.seq + 1;
        let mac_bytes =
            ContentPage::mac_bytes(&msg.session_id, &msg.account, &nonce, next_seq, &page);
        let mac = hmac_sha256(&key, &mac_bytes);
        let reply = ContentPage {
            session_id: msg.session_id.clone(),
            account: msg.account.clone(),
            nonce,
            seq: next_seq,
            page,
            mac,
        };
        let record = JournalRecord::InteractionServed {
            request_nonce: msg.nonce,
            request_mac: msg.mac,
            action: msg.action.clone(),
            frame_hash: msg.frame_hash,
            risk: msg.risk,
            expected_path,
            stepups: next_stepups as u64,
            reply: reply.clone(),
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        self.pre_reply_crash()?;
        Ok((reply, Freshness::Fresh))
    }

    /// The windowed counterpart of the lock-step interaction state
    /// machine, for sessions opened with `window >= 1`:
    ///
    /// * slot already served and still cached in the reply window — a
    ///   selective retransmit: MAC-verify *this copy's* bytes, then answer
    ///   from the cache ([`Freshness::Resent`] if byte-identical to the
    ///   served request, [`Freshness::Resync`] otherwise). No state moves.
    /// * slot below the window base and no longer cached — [`Reject::Replay`].
    /// * slot at or past `base + window` — the device may not run ahead of
    ///   its advertised credit: [`Reject::UnknownNonce`].
    /// * unserved in-window slot — fresh work. The request must carry the
    ///   *derived* per-slot nonce ([`crate::messages::window_nonce`]): both
    ///   ends compute it from the session key, so pipelined requests need
    ///   no server-issued challenge and recovery needs no resume round.
    ///
    /// Exactly-once per slot is the reply-window membership test: a slot
    /// is served fresh at most once, and every later copy is answered from
    /// the cache until the base moves past it.
    fn windowed_interaction(
        &mut self,
        idx: usize,
        key: Vec<u8>,
        base: u64,
        window: u64,
        msg: &InteractionRequest,
    ) -> Result<(ContentPage, Freshness), Reject> {
        if let Some(cache) = self.shards[idx]
            .sessions
            .get(&msg.session_id)
            .and_then(|s| s.window_reply(msg.seq))
        {
            let mac_bytes = InteractionRequest::mac_bytes(
                &msg.session_id,
                &msg.account,
                &msg.nonce,
                msg.seq,
                &msg.action,
                &msg.frame_hash,
                &msg.risk,
            );
            if !verify_hmac(&key, &mac_bytes, &msg.mac) {
                return Err(self.reject(Reject::BadMac));
            }
            let freshness = if cache.request_mac == msg.mac {
                Freshness::Resent
            } else {
                Freshness::Resync
            };
            return Ok((cache.reply.clone(), freshness));
        }
        if msg.seq < base {
            // Served long enough ago that the cache evicted it; an honest
            // device cannot still be retransmitting this slot.
            return Err(self.reject(Reject::Replay));
        }
        if msg.seq >= base.saturating_add(window) {
            return Err(self.reject(Reject::UnknownNonce));
        }
        if msg.nonce != window_nonce(&key, msg.seq) {
            let reason = if self.shards[idx].consumed.is_consumed(msg.nonce) {
                Reject::Replay
            } else {
                Reject::UnknownNonce
            };
            return Err(self.reject(reason));
        }
        let mac_bytes = InteractionRequest::mac_bytes(
            &msg.session_id,
            &msg.account,
            &msg.nonce,
            msg.seq,
            &msg.action,
            &msg.frame_hash,
            &msg.risk,
        );
        if !verify_hmac(&key, &mac_bytes, &msg.mac) {
            return Err(self.reject(Reject::BadMac));
        }

        let stepups = self.shards[idx].sessions[&msg.session_id].stepups;
        self.observe_risk(&msg.risk);
        let decision = self.policy.evaluate(&msg.risk, stepups);
        if decision == RiskDecision::Terminate {
            let record = JournalRecord::SessionTerminated {
                session_id: msg.session_id.clone(),
                account: msg.account.clone(),
            };
            self.journal_append(idx, &record)?;
            self.apply_record(&record);
            return Err(self.reject(Reject::RiskTerminated));
        }
        let next_stepups = match decision {
            RiskDecision::StepUp => stepups + 1,
            _ => 0,
        };

        let expected_path = self.shards[idx].sessions[&msg.session_id]
            .current_path
            .clone();
        let page = self
            .pages
            .get(&msg.action)
            .or_else(|| self.pages.get("/home"))
            .expect("home page")
            .clone();
        // The reply nonce is derived too (the device never echoes it back
        // in windowed mode): no entropy draw, so serving the same slot set
        // in any order leaves identical durable state.
        let next_seq = msg.seq + 1;
        let nonce = window_nonce(&key, next_seq);
        let mac_bytes =
            ContentPage::mac_bytes(&msg.session_id, &msg.account, &nonce, next_seq, &page);
        let mac = hmac_sha256(&key, &mac_bytes);
        let reply = ContentPage {
            session_id: msg.session_id.clone(),
            account: msg.account.clone(),
            nonce,
            seq: next_seq,
            page,
            mac,
        };
        let record = JournalRecord::InteractionServed {
            request_nonce: msg.nonce,
            request_mac: msg.mac,
            action: msg.action.clone(),
            frame_hash: msg.frame_hash,
            risk: msg.risk,
            expected_path,
            stepups: next_stepups as u64,
            reply: reply.clone(),
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        self.pre_reply_crash()?;
        Ok((reply, Freshness::Fresh))
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
        self.check_up()?;
        let idx = self.shard_for(&msg.account);
        self.check_writable(idx)?;
        self.maybe_compact(idx);
        if let Some((mac, ack)) = self.shards[idx].resume_cache.get(&msg.nonce) {
            if *mac == msg.mac {
                return Ok((ack.clone(), Freshness::Resent));
            }
        }
        let (terminated, account_matches, key, expected_seq) =
            match self.shards[idx].sessions.get(&msg.session_id) {
                Some(s) => (
                    s.terminated,
                    s.account == msg.account,
                    s.key.clone(),
                    s.expected_seq,
                ),
                None => return Err(self.reject(Reject::UnknownSession)),
            };
        if terminated || !account_matches {
            return Err(self.reject(Reject::UnknownSession));
        }
        let bytes =
            ResumeRequest::mac_bytes(&msg.session_id, &msg.account, &msg.nonce, msg.last_seq);
        if !verify_hmac(&key, &bytes, &msg.mac) {
            return Err(self.reject(Reject::BadMac));
        }
        if self.shards[idx].consumed.is_consumed(msg.nonce) {
            // Same nonce, different MAC: a tampered replay of an old
            // resume. The byte-identical case was answered from the cache.
            return Err(self.reject(Reject::Replay));
        }
        let last_reply = if msg.last_seq == expected_seq {
            // Fully in sync; the device just needs the current nonce.
            None
        } else if msg.last_seq.checked_add(1) == Some(expected_seq) {
            match self.shards[idx]
                .sessions
                .get(&msg.session_id)
                .and_then(|s| s.cache.as_ref())
            {
                Some(cache) => Some(cache.reply.clone()),
                // Behind by one with no cached reply: nothing to heal
                // with, the device must treat the session as lost.
                None => return Err(self.reject(Reject::UnknownSession)),
            }
        } else if msg.last_seq < expected_seq {
            return Err(self.reject(Reject::Replay));
        } else {
            // The device claims acks from the future.
            return Err(self.reject(Reject::UnknownNonce));
        };
        let nonce = self.fresh_nonce();
        let ack_bytes = ResumeAck::mac_bytes(
            &msg.session_id,
            &msg.account,
            &msg.nonce,
            &nonce,
            expected_seq,
            last_reply.as_ref(),
        );
        let mac = hmac_sha256(&key, &ack_bytes);
        let ack = ResumeAck {
            session_id: msg.session_id.clone(),
            account: msg.account.clone(),
            device_nonce: msg.nonce,
            nonce,
            seq: expected_seq,
            last_reply,
            mac,
        };
        let record = JournalRecord::SessionResumed {
            device_nonce: msg.nonce,
            request_mac: msg.mac,
            ack: ack.clone(),
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        self.pre_reply_crash()?;
        Ok((ack, Freshness::Fresh))
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
        self.check_up()?;
        let idx = self.shard_for(&msg.account);
        self.check_writable(idx)?;
        self.maybe_compact(idx);
        let digest = msg.request_digest();
        if let Some((d, ack)) = self.shards[idx].reset_cache.get(&msg.nonce) {
            if *d == digest {
                return Ok((ack.clone(), Freshness::Resent));
            }
        }
        self.consume_nonce(idx, msg.nonce)?;
        if msg.domain != self.domain {
            return Err(self.reject(Reject::BadSignature));
        }
        let Some(record) = self.shards[idx].accounts.get(&msg.account) else {
            return Err(self.reject(Reject::UnknownAccount));
        };
        if record.reset_password != msg.password {
            return Err(self.reject(Reject::BadResetCredential));
        }
        let record = JournalRecord::ResetServed {
            account: msg.account.clone(),
            nonce: msg.nonce,
            request_digest: digest,
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        self.pre_reply_crash()?;
        Ok((
            ResetAck {
                account: msg.account.clone(),
                nonce: msg.nonce,
            },
            Freshness::Fresh,
        ))
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
        self.check_up()?;
        let idx = self.shard_for(account);
        self.check_writable(idx)?;
        let Some(record) = self.shards[idx].accounts.get(account) else {
            return Err(self.reject(Reject::UnknownAccount));
        };
        if record.reset_password != password {
            return Err(self.reject(Reject::BadResetCredential));
        }
        let record = JournalRecord::IdentityReset {
            account: account.to_owned(),
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        Ok(())
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
        self.check_up()?;
        let idx = self.shard_for(account);
        self.check_writable(idx)?;
        self.maybe_compact(idx);
        let owned = self.shards[idx]
            .sessions
            .get(session_id)
            .map(|s| s.account == account)
            .unwrap_or(false);
        if !owned {
            return Ok(false);
        }
        let record = JournalRecord::SessionClosed {
            session_id: session_id.to_owned(),
            account: account.to_owned(),
        };
        self.journal_append(idx, &record)?;
        self.apply_record(&record);
        self.pre_reply_crash()?;
        Ok(true)
    }

    fn find_session(&self, session_id: &str) -> Option<&Session> {
        self.shards.iter().find_map(|s| s.sessions.get(session_id))
    }

    /// Interactions served in a session (testing/metrics).
    pub fn session_interactions(&self, session_id: &str) -> Option<u64> {
        self.find_session(session_id).map(|s| s.interactions)
    }

    /// Whether the session has been terminated.
    pub fn session_terminated(&self, session_id: &str) -> Option<bool> {
        self.find_session(session_id).map(|s| s.terminated)
    }

    /// The sequence number the session's next fresh interaction must
    /// carry (testing).
    pub fn session_expected_seq(&self, session_id: &str) -> Option<u64> {
        self.find_session(session_id).map(|s| s.expected_seq)
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
        ServerIdentity {
            domain: self.domain.clone(),
            keys: self.keys.clone(),
            cert: self.cert.clone(),
            ca_key: self.ca_key.clone(),
            pages: self.pages.clone(),
            policy: self.policy,
            shard_count: self.shards.len(),
            cache_watermark: self.cache_watermark,
            recovery_key: self.recovery_key,
            interaction_window: self.interaction_window,
        }
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
        let mut entropy = ChaChaEntropy::from_seed(seed);
        let nonce_entropy = entropy.fork(b"nonces");
        let mut shards: Vec<Shard> = journals.into_iter().map(Shard::over).collect();
        if shards.is_empty() {
            shards.push(Shard::default());
        }
        let mut server = WebServer {
            domain: identity.domain,
            keys: identity.keys,
            cert: identity.cert,
            ca_key: identity.ca_key,
            entropy,
            nonces: NonceGenerator::new(nonce_entropy),
            issued: IssuedNonces::default(),
            shards,
            pages: identity.pages,
            policy: identity.policy,
            reject_counts: HashMap::new(),
            trace: TraceLog::new(),
            tracer: Tracer::disabled(),
            risk_verified: [0; RISK_BUCKET_PCT.len() + 1],
            crash: CrashSchedule::Never,
            crashed: false,
            degraded: false,
            sync_policy: RetryPolicy::default(),
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            cache_watermark: identity.cache_watermark,
            recovery_key: identity.recovery_key,
            interaction_window: identity.interaction_window,
        };
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
        let pending: Vec<Nonce> = server
            .shards
            .iter()
            .flat_map(|sh| {
                sh.sessions
                    .values()
                    .filter(|s| !s.terminated)
                    .map(|s| s.pending_nonce)
            })
            .collect();
        for n in pending {
            server.issued.issue(n);
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
        let risk_verified = self.risk_verified;
        let sync_policy = self.sync_policy;
        let (server, report) = WebServer::recover(identity, journals, rng);
        *self = server;
        self.tracer = tracer;
        self.risk_verified = risk_verified;
        self.sync_policy = sync_policy;
        for (i, sh) in report.shards.iter().enumerate() {
            self.tracer.open(SpanKind::Recover(i), CtxArgs::shard(i));
            self.tracer.record(EventKind::Recovered {
                shard: i,
                snapshot_restored: sh.snapshot_restored,
                replayed: sh.records_replayed,
                skipped: sh.records_skipped,
            });
            let corrupt = self.shards[i].corrupt.clone();
            for seg in &corrupt {
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
        let watermark = self.cache_watermark;
        match rec {
            JournalRecord::Registered {
                account,
                public_key,
                reset_password,
                nonce,
                signature,
                frame_hash,
            } => {
                let group = self.keys.public_key().group();
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
                        expected_path: "/register".to_owned(),
                        frame_hash: *frame_hash,
                        action: "register".to_owned(),
                        risk: RiskReport::fresh_login(),
                        lookback: 1,
                    });
                if let Some(sig) = Signature::from_bytes(signature) {
                    shard.reg_cache.insert(
                        *nonce,
                        (
                            sig,
                            RegistrationAck {
                                account: account.clone(),
                                nonce: *nonce,
                            },
                        ),
                    );
                    shard.reg_order.push_back(*nonce);
                    let mut evicted = 0u64;
                    while shard.reg_cache.len() > watermark {
                        match shard.reg_order.pop_front() {
                            Some(old) => {
                                shard.reg_cache.remove(&old);
                                shard.consumed.forget_consumed(old);
                                evicted += 1;
                            }
                            None => break,
                        }
                    }
                    if evicted > 0 {
                        self.tracer.record(EventKind::CacheEviction {
                            cache: CacheKind::Registration,
                            evicted,
                        });
                    }
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
                    open_session_key(&self.recovery_key, nonce, sealed_session_key)
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
                        expected_path: "/login".to_owned(),
                        frame_hash: *frame_hash,
                        action: "login".to_owned(),
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
                        cache: None,
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
                    if session.window >= 1 {
                        // Windowed apply. `reply.seq` is `slot + 1` (the
                        // lock-step convention), so the served slot is one
                        // less. Order-independent on purpose: replaying
                        // these records in any in-window order converges
                        // to the same state, so reply reordering on the
                        // wire cannot fork the digest.
                        let slot = reply.seq.saturating_sub(1);
                        let at = session.reply_window.partition_point(|c| c.seq < slot);
                        if session.reply_window.get(at).is_some_and(|c| c.seq == slot) {
                            return; // duplicate slot: exactly-once holds
                        }
                        session.reply_window.insert(
                            at,
                            CachedInteraction {
                                seq: slot,
                                request_mac: *request_mac,
                                reply: reply.clone(),
                            },
                        );
                        // Cumulative ack: advance the base past every
                        // contiguously served slot.
                        while session
                            .reply_window
                            .iter()
                            .any(|c| c.seq == session.expected_seq)
                        {
                            session.expected_seq += 1;
                        }
                        // Keep at most `window` cached replies; the device
                        // cannot retransmit a slot older than that.
                        let window = session.window as usize;
                        while session.reply_window.len() > window {
                            session.reply_window.remove(0);
                        }
                        // The page shown is the highest-seq one served so
                        // far — again independent of apply order.
                        if let Some(last) = session.reply_window.last() {
                            session.current_path = last.reply.page.path.clone();
                        }
                        session.interactions += 1;
                        session.stepups = *stepups as u32;
                        session.consumed_nonces.push(*request_nonce);
                    } else {
                        session.pending_nonce = reply.nonce;
                        session.expected_seq = reply.seq;
                        session.cache = Some(CachedInteraction {
                            seq: reply.seq.saturating_sub(1),
                            request_mac: *request_mac,
                            reply: reply.clone(),
                        });
                        session.current_path = reply.page.path.clone();
                        session.interactions += 1;
                        session.stepups = *stepups as u32;
                        session.consumed_nonces.push(*request_nonce);
                    }
                }
            }
            JournalRecord::SessionResumed {
                device_nonce,
                request_mac,
                ack,
            } => {
                let shard = &mut self.shards[idx];
                shard.consumed.mark_consumed(*device_nonce);
                if let Some(session) = shard.sessions.get_mut(&ack.session_id) {
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
                    self.issued.remove(sess.pending_nonce);
                    // The session entry plus its login/resume cache
                    // entries all left resident state.
                    self.tracer.record(EventKind::CacheEviction {
                        cache: CacheKind::Session,
                        evicted: 1 + 1 + sess.resume_nonces.len() as u64,
                    });
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
                shard.reset_cache.insert(
                    *nonce,
                    (
                        *request_digest,
                        ResetAck {
                            account: account.clone(),
                            nonce: *nonce,
                        },
                    ),
                );
                shard.reset_order.push_back(*nonce);
                let mut evicted = 0u64;
                while shard.reset_cache.len() > watermark {
                    match shard.reset_order.pop_front() {
                        Some(old) => {
                            shard.reset_cache.remove(&old);
                            shard.consumed.forget_consumed(old);
                            evicted += 1;
                        }
                        None => break,
                    }
                }
                if evicted > 0 {
                    self.tracer.record(EventKind::CacheEviction {
                        cache: CacheKind::Reset,
                        evicted,
                    });
                }
            }
        }
    }

    fn remove_binding(&mut self, idx: usize, account: &str) {
        let shard = &mut self.shards[idx];
        shard.accounts.remove(account);
        // Kill any live sessions for the account.
        for s in shard.sessions.values_mut() {
            if s.account == account {
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
            for (sid, s) in sessions {
                w.str(sid)
                    .str(&s.account)
                    .bytes(&seal_session_key(
                        &self.recovery_key,
                        &s.login_nonce,
                        &s.key,
                    ))
                    .bytes(s.pending_nonce.as_bytes())
                    .u64(s.expected_seq)
                    .u64(s.cache.is_some() as u64);
                if let Some(cache) = &s.cache {
                    w.u64(cache.seq).bytes(cache.request_mac.as_bytes());
                    put_content_page(w, &cache.reply);
                }
                w.str(&s.current_path)
                    .u64(s.stepups as u64)
                    .u64(s.terminated as u64)
                    .u64(s.interactions)
                    .bytes(s.login_nonce.as_bytes());
                w.u64(s.resume_nonces.len() as u64);
                for n in &s.resume_nonces {
                    w.bytes(n.as_bytes());
                }
                w.u64(s.consumed_nonces.len() as u64);
                for n in &s.consumed_nonces {
                    w.bytes(n.as_bytes());
                }
                w.u64(s.window);
                w.u64(s.reply_window.len() as u64);
                for c in &s.reply_window {
                    w.u64(c.seq).bytes(c.request_mac.as_bytes());
                    put_content_page(w, &c.reply);
                }
            }

            // The LRU caches serialize in eviction (insertion) order so a
            // restored shard evicts in exactly the same order.
            w.u64(shard.reg_order.len() as u64);
            for n in &shard.reg_order {
                let (sig, ack) = &shard.reg_cache[n];
                w.bytes(n.as_bytes())
                    .bytes(&sig.to_bytes())
                    .str(&ack.account);
            }

            let mut logins: Vec<_> = shard.login_cache.iter().collect();
            logins.sort_by_key(|(n, _)| n.0);
            w.u64(logins.len() as u64);
            for (n, (sig, page)) in logins {
                w.bytes(n.as_bytes()).bytes(&sig.to_bytes());
                put_content_page(w, page);
            }

            let mut resumes: Vec<_> = shard.resume_cache.iter().collect();
            resumes.sort_by_key(|(n, _)| n.0);
            w.u64(resumes.len() as u64);
            for (n, (mac, ack)) in resumes {
                w.bytes(n.as_bytes()).bytes(mac.as_bytes());
                put_resume_ack(w, ack);
            }

            w.u64(shard.reset_order.len() as u64);
            for n in &shard.reset_order {
                let (digest, ack) = &shard.reset_cache[n];
                w.bytes(n.as_bytes())
                    .bytes(digest.as_bytes())
                    .str(&ack.account);
            }

            let consumed = shard.consumed.consumed_sorted();
            w.u64(consumed.len() as u64);
            for n in consumed {
                w.bytes(n.as_bytes());
            }

            let mut audit_accounts: Vec<_> = shard.audit.iter().collect();
            audit_accounts.sort_by(|a, b| a.0.cmp(b.0));
            w.u64(audit_accounts.len() as u64);
            for (account, entries) in audit_accounts {
                w.str(account).u64(entries.len() as u64);
                for entry in entries {
                    w.str(&entry.account)
                        .str(&entry.expected_path)
                        .bytes(entry.frame_hash.as_bytes())
                        .str(&entry.action);
                    put_risk(w, &entry.risk);
                    w.u64(entry.lookback);
                }
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

    fn restore_shard_snapshot(&mut self, idx: usize, bytes: &[u8]) -> bool {
        self.try_restore_shard_snapshot(idx, bytes).is_some()
    }

    fn try_restore_shard_snapshot(&mut self, idx: usize, bytes: &[u8]) -> Option<()> {
        let mut r = FieldReader::new(bytes);
        if r.str()? != "trust-shard-snapshot-v3" {
            return None;
        }
        let group = self.keys.public_key().group();
        let recovery_key = self.recovery_key;
        let shard = &mut self.shards[idx];
        shard.session_counter = r.u64()?;

        for _ in 0..r.u64()? {
            let name = r.str()?.to_owned();
            let key = PublicKey::from_element(group, U2048::from_be_bytes(r.bytes()?));
            let reset_password = r.str()?.to_owned();
            shard.accounts.insert(
                name,
                AccountRecord {
                    public_key: key,
                    reset_password,
                },
            );
        }

        for _ in 0..r.u64()? {
            let sid = r.str()?.to_owned();
            let account = r.str()?.to_owned();
            // The login nonce (the seal's stream nonce) arrives later in
            // the stream; buffer the sealed bytes until it does.
            let sealed_key = r.bytes()?.to_vec();
            let pending_nonce = Nonce(r.array()?);
            let expected_seq = r.u64()?;
            let cache = if r.u64()? == 1 {
                let seq = r.u64()?;
                let request_mac = Digest(r.array()?);
                let reply = get_content_page(&mut r)?;
                Some(CachedInteraction {
                    seq,
                    request_mac,
                    reply,
                })
            } else {
                None
            };
            let current_path = r.str()?.to_owned();
            let stepups = r.u64()? as u32;
            let terminated = r.u64()? == 1;
            let interactions = r.u64()?;
            let login_nonce = Nonce(r.array()?);
            let mut resume_nonces = Vec::new();
            for _ in 0..r.u64()? {
                resume_nonces.push(Nonce(r.array()?));
            }
            let mut consumed_nonces = Vec::new();
            for _ in 0..r.u64()? {
                consumed_nonces.push(Nonce(r.array()?));
            }
            let window = r.u64()?;
            let mut reply_window = Vec::new();
            for _ in 0..r.u64()? {
                let seq = r.u64()?;
                let request_mac = Digest(r.array()?);
                let reply = get_content_page(&mut r)?;
                reply_window.push(CachedInteraction {
                    seq,
                    request_mac,
                    reply,
                });
            }
            let key = open_session_key(&recovery_key, &login_nonce, &sealed_key)?;
            shard.sessions.insert(
                sid,
                Session {
                    account,
                    key,
                    pending_nonce,
                    expected_seq,
                    cache,
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
            let nonce = Nonce(r.array()?);
            let sig = Signature::from_bytes(r.bytes()?)?;
            let account = r.str()?.to_owned();
            shard
                .reg_cache
                .insert(nonce, (sig, RegistrationAck { account, nonce }));
            shard.reg_order.push_back(nonce);
        }

        for _ in 0..r.u64()? {
            let nonce = Nonce(r.array()?);
            let sig = Signature::from_bytes(r.bytes()?)?;
            let page = get_content_page(&mut r)?;
            shard.login_cache.insert(nonce, (sig, page));
        }

        for _ in 0..r.u64()? {
            let nonce = Nonce(r.array()?);
            let mac = Digest(r.array()?);
            let ack = get_resume_ack(&mut r)?;
            shard.resume_cache.insert(nonce, (mac, ack));
        }

        for _ in 0..r.u64()? {
            let nonce = Nonce(r.array()?);
            let digest = Digest(r.array()?);
            let account = r.str()?.to_owned();
            shard
                .reset_cache
                .insert(nonce, (digest, ResetAck { account, nonce }));
            shard.reset_order.push_back(nonce);
        }

        let mut consumed = Vec::new();
        for _ in 0..r.u64()? {
            consumed.push(Nonce(r.array()?));
        }
        shard.consumed = ReplayGuard::from_consumed(consumed);

        for _ in 0..r.u64()? {
            let account = r.str()?.to_owned();
            let count = r.u64()?;
            let entries = shard.audit.entry(account).or_default();
            for _ in 0..count {
                entries.push(AuditEntry {
                    account: r.str()?.to_owned(),
                    expected_path: r.str()?.to_owned(),
                    frame_hash: Digest(r.array()?),
                    action: r.str()?.to_owned(),
                    risk: get_risk(&mut r)?,
                    lookback: r.u64()?,
                });
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use btd_sim::trace::Severity;

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
            name.to_owned(),
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
        let _ = server.reset_identity("ghost", "pw");
        let _ = server.reset_identity("ghost", "pw");
        assert_eq!(server.reject_counts()[&Reject::UnknownAccount], 2);
        // The security trace mirrors the counters.
        assert_eq!(server.trace().count_severity(Severity::Security), 2);
        assert_eq!(server.trace().matching("unknown account").count(), 2);
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
            let _ = server.fresh_nonce();
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
                let n = server.fresh_nonce();
                minted.push(n);
                if i % 7 == 0 {
                    // Consume and immediately re-issue an older nonce.
                    let old = minted[(i / 2) as usize];
                    if server.issued.remove(old) {
                        server.issued.issue(old);
                    }
                }
            }
            for n in minted {
                if server.issued.remove(n) {
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
            session_id: "sess-1-n".to_owned(),
            account: "alice".to_owned(),
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
        let encoded = record.encode();
        assert!(
            !encoded.windows(key.len()).any(|w| w == &key[..]),
            "the journal frame must not contain the raw session key"
        );
        let decoded = JournalRecord::decode(&encoded).expect("decodes");
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
            sealed_session_key: seal_session_key(&server.recovery_key, &login_nonce, &key),
            window: 0,
            reply: ContentPage {
                session_id: "sess-1-x".to_owned(),
                account: "alice".to_owned(),
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
}
