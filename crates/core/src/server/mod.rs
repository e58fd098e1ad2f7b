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
//! Every entry point runs one frame (DESIGN §22): admission, `commit`
//! and recovery live here, the pure `decide_*` functions in `decide`, and
//! each shard's durable state in `state`, whose `ShardState::apply` is the
//! one mutation that live handling and journal replay share.
//!
//! # Sharding
//!
//! Durable state is partitioned by account into [`WebServer::shard_count`]
//! shards. The shard key is `fnv1a(account) % shards`; every
//! [`JournalRecord`] names exactly one account
//! ([`JournalRecord::shard_account`]), so each shard owns an independent
//! journal segment and [`WebServer::recover`] replays the segments
//! independently — a torn tail in one shard's log cannot block the
//! others.
//!
//! Resident state is bounded. Closing a session
//! ([`WebServer::close_session`]) journals a `SessionClosed` record whose
//! application evicts the session entry, its login/resume idempotency
//! cache entries, and every nonce the session consumed; the
//! registration/reset caches are bounded by a journal-deterministic LRU
//! watermark ([`DEFAULT_CACHE_WATERMARK`] entries per shard); and the set
//! of issued but unconsumed challenge nonces is capped at
//! [`ISSUED_NONCE_CAP`].

mod decide;
pub mod journal;
mod state;
pub mod storage;

pub use state::AuditEntry;

use std::collections::{HashMap, HashSet, VecDeque};

use btd_crypto::cert::Certificate;
use btd_crypto::entropy::{ChaChaEntropy, EntropySource};
use btd_crypto::group::DhGroup;
use btd_crypto::nonce::{Nonce, NonceGenerator};
use btd_crypto::schnorr::{KeyPair, PublicKey};
use btd_crypto::sha256::{sha256, Digest};
use btd_sim::rng::SimRng;

use crate::ca::TrustAuthority;
use crate::messages::{
    ContentPage, Freshness, InteractionRequest, LoginSubmit, RegistrationAck, RegistrationSubmit,
    Reject, ResetAck, ResetRequest, ResumeAck, ResumeRequest, ServerHello,
};
use crate::pages::{Page, ServedPage};
use crate::risk_policy::{RiskReport, ServerRiskPolicy};
use crate::telemetry::RISK_BUCKET_PCT;
use crate::trace::{CtxArgs, EventKind, Outcome, SpanKind, Tracer};
use crate::wire::FieldWriter;

use decide::{
    decide_close, decide_identity_reset, decide_interaction, decide_login, decide_registration,
    decide_reset, decide_resume, Decision, Reply,
};
use journal::{CorruptSegment, CrashPoint, CrashSchedule, Journal, JournalRecord, StorageError};
use state::ShardState;
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
/// per shard). Eviction happens inside `ShardState::apply`, so replay
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

/// The server-wide set of issued-but-unconsumed challenge nonces.
///
/// Never journaled: a hello challenge is ephemeral, and a crash loses the
/// ones in flight (the device fetches a new hello). The set is capped at
/// [`ISSUED_NONCE_CAP`] by evicting in issue order, never hash order, so
/// same-seed runs evict alike on any worker count. A consumed nonce stays
/// in `order` until it reaches the front, where evicting it is a no-op.
/// Nonces are fresh 16-byte draws, so none is issued twice.
#[derive(Debug, Default)]
struct IssuedNonces {
    live: HashSet<Nonce>,
    order: VecDeque<Nonce>,
}

impl IssuedNonces {
    fn issue(&mut self, n: Nonce) {
        self.live.insert(n);
        self.order.push_back(n);
        // Consumed nonces bound the order too: they leave at its front.
        while self.live.len() > ISSUED_NONCE_CAP || self.order.len() > 2 * ISSUED_NONCE_CAP {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.live.remove(&old);
        }
    }

    /// Consumes `n` from the issued set; false means it was never issued
    /// (or already consumed, or evicted past the cap).
    fn remove(&mut self, n: Nonce) -> bool {
        self.live.remove(&n)
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

/// One account shard: its durable state and the journal segment that
/// rebuilds it.
#[derive(Debug, Default)]
struct Shard {
    state: ShardState,
    /// This shard's journal segment.
    journal: Journal,
    /// Set when recovery found a sealed segment whose certificate no
    /// longer verifies: the shard serves reads but rejects every mutating
    /// operation until the operator intervenes — certified bytes going
    /// bad must never be silently absorbed into new durable state.
    quarantined: bool,
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
    pages: HashMap<String, ServedPage>,
    policy: ServerRiskPolicy,
    shard_count: usize,
    /// Symmetric key sealing session keys into journal records and
    /// snapshots. Part of the durable identity: recovery must open what
    /// the dead process sealed.
    recovery_key: [u8; 32],
    /// Interaction window advertised at login: 1 is the lock-step
    /// stop-and-wait flow; `w > 1` lets the pipelined engine keep up to
    /// `w` interactions in flight.
    interaction_window: u64,
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
    /// The durable consumed-marking happens in `ShardState::apply`.
    fn consume_nonce(&mut self, shard: &ShardState, nonce: Nonce) -> Result<(), Reject> {
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
#[derive(Clone, PartialEq, Eq, Debug, Default)]
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
    pub corrupt_segments: Vec<CorruptSegment>,
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
        self.shards.iter().map(|s| s.corrupt_segments.len()).sum()
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
            pages.insert(
                path.to_owned(),
                ServedPage::new(Page::new(path, body.to_vec())),
            );
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
            interaction_window: 1,
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
    /// on: 1 (the default) is the lock-step stop-and-wait flow, while
    /// `w > 1` lets the pipelined engine keep up to `w` interactions in
    /// flight per session. Existing sessions keep the window they were
    /// opened with — it is recorded in their `LoginServed` journal record.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0.
    pub fn set_interaction_window(&mut self, window: u64) {
        assert!(window >= 1, "window must be at least 1");
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

    /// Whether `hash` is the frame hash of one of the legitimate views of
    /// the page at `path` (false when no page is served there). The view
    /// hashes are computed the first time any audit meets the page and
    /// kept for the server's life.
    pub(crate) fn is_legitimate_view(&self, path: &str, hash: &Digest) -> bool {
        self.identity
            .pages
            .get(path)
            .is_some_and(|p| p.view_hashes().contains(hash))
    }

    /// Number of account shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `account`.
    pub fn shard_for(&self, account: &str) -> usize {
        shard_index(account, self.shards.len())
    }

    /// The durable state of the shard that owns `account`.
    fn state_for(&self, account: &str) -> &ShardState {
        &self.shards[self.shard_for(account)].state
    }

    /// Number of bound accounts, across shards.
    pub fn account_count(&self) -> usize {
        self.shards.iter().map(|s| s.state.accounts.len()).sum()
    }

    /// Whether `account` is bound.
    pub fn has_account(&self, account: &str) -> bool {
        self.state_for(account).accounts.contains_key(account)
    }

    /// The audit log, flattened across shards: accounts in sorted order,
    /// each account's entries in append order.
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        let entries = |account| self.audit_log_for(account).iter().cloned();
        self.audit_accounts()
            .into_iter()
            .flat_map(entries)
            .collect()
    }

    /// Accounts that have audit entries, in sorted order (the batch-audit
    /// iteration order).
    pub fn audit_accounts(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .shards
            .iter()
            .flat_map(|s| s.state.audit.keys().map(|k| &**k))
            .collect();
        names.sort_unstable();
        names
    }

    /// One account's audit entries, in append order (the batch-audit
    /// window).
    pub fn audit_log_for(&self, account: &str) -> &[AuditEntry] {
        let entries = self.state_for(account).audit.get(account);
        entries.map_or(&[], |v| v.as_slice())
    }

    /// Resident (evictable) state counts, for boundedness assertions.
    pub fn resident_stats(&self) -> ResidentStats {
        let mut st = ResidentStats {
            issued_nonces: self.ephemeral.issued.len(),
            ..ResidentStats::default()
        };
        for sh in &self.shards {
            let sh = &sh.state;
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
        decide: impl FnOnce(&ServerIdentity, &ShardState, &mut Ephemeral) -> Result<Decision<R>, Reject>,
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
            decide(&self.identity, &self.shards[idx].state, &mut self.ephemeral)
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
            .page
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
        let record = self.state_for(account).accounts.get(account);
        record.map(|a| a.reset_password.as_str())
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
    /// Every session runs one admission rule with credit `window` slots,
    /// `expected_seq` being the window base (the lowest slot not yet
    /// served). A lock-step session is the window of one that Fig. 10
    /// describes: stop-and-wait.
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
    /// Every request carries the per-slot nonce both ends derive from the
    /// session key ([`crate::messages::window_nonce`]), and every reply
    /// carries the next slot's, so pipelined requests need no challenge
    /// and recovery re-issues nothing.
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
    /// number) and re-learns its base slot. If the device is
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
        self.serve(&msg.account, false, |_, shard, _| decide_resume(shard, msg))
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

    /// Interactions served in a session (testing/metrics).
    pub fn session_interactions(&self, session_id: &str) -> Option<u64> {
        self.shards
            .iter()
            .find_map(|s| s.state.sessions.get(session_id))
            .map(|s| s.state.interactions)
    }

    /// Sessions ever opened, across shards (drives unique session ids).
    fn total_sessions(&self) -> u64 {
        self.shards.iter().map(|s| s.state.session_counter).sum()
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
    /// not a global failure. A restored session's nonces are derived from
    /// its key, so nothing is re-issued. Fresh entropy comes from `rng` —
    /// a restarted process never reuses its old randomness.
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
        let over = |journal| Shard {
            journal,
            ..Shard::default()
        };
        let mut shards: Vec<Shard> = journals.into_iter().map(over).collect();
        if shards.is_empty() {
            shards.push(Shard::default());
        }
        let mut server = WebServer::assemble(identity, ephemeral, shards);
        let mut report = RecoveryReport::default();
        for idx in 0..server.shards.len() {
            let contents = server.shards[idx].journal.read();
            let shard_report = ShardRecovery {
                snapshot_restored: !contents.snapshot.is_empty()
                    && server.restore_shard_snapshot(idx, &contents.snapshot),
                records_replayed: contents.records.len(),
                records_skipped: contents.skipped,
                quarantined: !contents.corrupt_segments.is_empty(),
                corrupt_segments: contents.corrupt_segments,
            };
            // Certified bytes that no longer verify quarantine the shard:
            // its salvaged state stays readable, but nothing new may be
            // built on top of a log we know lost certified records.
            server.shards[idx].quarantined = shard_report.quarantined;
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
            for seg in &sh.corrupt_segments {
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
    /// [`JournalRecord::shard_account`], whose state's `apply` changes
    /// it; what that evicted (session close, LRU watermark) is traced
    /// here.
    pub fn apply_record(&mut self, rec: &JournalRecord) {
        let idx = self.shard_for(rec.shard_account());
        if let Some((cache, evicted)) = self.shards[idx].state.apply(&self.identity, rec) {
            self.tracer
                .record(EventKind::CacheEviction { cache, evicted });
        }
    }

    // --- Snapshots --------------------------------------------------------

    /// Canonical bytes of one shard's durable state: maps in ascending key
    /// order, LRU caches in eviction order, session keys sealed. Excludes
    /// observability state (reject counters, trace) and the issued-nonce
    /// set, which holds only hello challenges.
    pub fn shard_snapshot_bytes(&self, idx: usize) -> Vec<u8> {
        self.shards[idx].state.snapshot(&self.identity)
    }

    /// Canonical bytes of the full durable state: the shard count plus
    /// every shard's snapshot, in shard order.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        // One pass: the snapshot is large and its sealing costly.
        let mut bytes = FieldWriter::new();
        let w = &mut bytes;
        w.str("trust-server-snapshot-v2");
        w.u32(self.shards.len() as u32);
        for idx in 0..self.shards.len() {
            w.bytes(&self.shard_snapshot_bytes(idx));
        }
        bytes.finish()
    }

    /// A digest of [`WebServer::snapshot_bytes`]: two servers with equal
    /// digests hold identical durable state.
    pub fn state_digest(&self) -> Digest {
        sha256(&self.snapshot_bytes())
    }

    /// Restores shard `idx`'s durable state from `bytes`; false when the
    /// snapshot does not decode, which leaves the shard as it was. The
    /// journal segment and its quarantine verdict are not snapshot state.
    fn restore_shard_snapshot(&mut self, idx: usize, bytes: &[u8]) -> bool {
        let Some(state) = ShardState::from_snapshot(&self.identity, bytes) else {
            return false;
        };
        self.shards[idx].state = state;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::state::{open_session_key, seal_session_key};
    use super::*;
    use crate::messages::window_nonce;
    use crate::wire;

    fn setup() -> (WebServer, TrustAuthority, SimRng) {
        let mut rng = SimRng::seed_from(11);
        let mut ca = TrustAuthority::new(DhGroup::test_512(), &mut rng);
        let server = WebServer::new("www.xyz.com", DhGroup::test_512(), &mut ca, &mut rng);
        (server, ca, rng)
    }

    /// Binds `name` without journaling it: state the journal never saw.
    fn insert_account(server: &mut WebServer, name: &str, password: &str) {
        server.apply_record(&JournalRecord::Registered {
            account: name.into(),
            public_key: server.public_key().to_bytes(),
            reset_password: password.to_owned(),
            nonce: Nonce([0xA5; 16]),
            signature: Vec::new(),
            frame_hash: Digest([0; 32]),
        });
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
    fn issued_nonce_eviction_order_is_deterministic_across_same_seed_runs() {
        // Two servers driven by identically-seeded RNGs must evict the
        // same nonces in the same order — the cross-run determinism the
        // parallel runtime's digest checks lean on. Interleave consumes
        // and re-issues so consumed nonces sit in the eviction order.
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
            window: 1,
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
            server2.shards[idx].state.sessions["sess-1-x"].key, key,
            "restore unseals back to the raw key"
        );
        assert_eq!(server.state_digest(), digest, "snapshotting is read-only");
    }

    /// Pins the shard snapshot layout: one shard built only through
    /// `apply_record` holding an account, a lock-step session with a
    /// served slot, a window-3 session that served two slots out of
    /// order, an entry in each of the four idempotency caches, a
    /// terminated session and audit entries. Any change to what the
    /// snapshot writes, or in which order, moves the digest.
    #[test]
    fn shard_snapshot_layout_matches_known_answer() {
        let mut rng = SimRng::seed_from(11);
        let mut ca = TrustAuthority::new(DhGroup::test_512(), &mut rng);
        let mut server =
            WebServer::with_shards("www.xyz.com", DhGroup::test_512(), &mut ca, &mut rng, 1);
        let recovery_key = server.identity.recovery_key;
        let public_key = server.public_key().to_bytes();
        let nonce = |b: u8| Nonce([b; 16]);
        let page = |sid: &str, account: &str, seq, path: &str| ContentPage {
            session_id: sid.into(),
            account: account.into(),
            nonce: nonce(0x40 + seq as u8),
            seq,
            page: Page::new(path, path.as_bytes().to_vec()),
            mac: Digest([seq as u8; 32]),
        };
        let register = |account: &str, n: u8| JournalRecord::Registered {
            account: account.into(),
            public_key: public_key.clone(),
            reset_password: format!("pw-{account}"),
            nonce: nonce(n),
            signature: vec![n; 512],
            frame_hash: Digest([n; 32]),
        };
        let login = |sid: &str, account: &str, n: u8, window| JournalRecord::LoginServed {
            nonce: nonce(n),
            signature: vec![n; 512],
            sealed_session_key: seal_session_key(&recovery_key, &nonce(n), &[n; 32]),
            window,
            reply: page(sid, account, 0, "/home"),
            frame_hash: Digest([n; 32]),
            risk: RiskReport::fresh_login(),
        };
        let serve = |sid: &str, slot: u64, n: u8, path: &str| JournalRecord::InteractionServed {
            request_nonce: nonce(n),
            request_mac: Digest([n; 32]),
            action: path.into(),
            frame_hash: Digest([n; 32]),
            risk: RiskReport {
                window: 8,
                verified: 7,
                mismatched: 1,
            },
            expected_path: "/home".into(),
            stepups: 1,
            reply: page(sid, "alice", slot + 1, path),
        };
        let records = [
            register("alice", 1),
            register("bob", 2),
            login("sess-1", "alice", 3, 1),
            serve("sess-1", 0, 4, "/inbox"),
            login("sess-2", "alice", 5, 3),
            serve("sess-2", 1, 6, "/transfer"),
            serve("sess-2", 0, 7, "/settings"),
            JournalRecord::SessionResumed {
                device_nonce: nonce(8),
                request_mac: Digest([8; 32]),
                ack: ResumeAck {
                    session_id: "sess-1".into(),
                    account: "alice".into(),
                    device_nonce: nonce(8),
                    nonce: nonce(9),
                    seq: 1,
                    last_reply: Some(page("sess-1", "alice", 1, "/inbox")),
                    mac: Digest([9; 32]),
                },
            },
            login("sess-3", "bob", 10, 1),
            JournalRecord::SessionTerminated {
                session_id: "sess-3".into(),
                account: "bob".into(),
            },
            JournalRecord::ResetServed {
                account: "bob".into(),
                nonce: nonce(11),
                request_digest: Digest([11; 32]),
            },
        ];
        for record in &records {
            server.apply_record(record);
        }
        let held = ResidentStats {
            sessions: 3,
            cache_entries: 2 + 3 + 1 + 1,
            consumed_nonces: 10,
            issued_nonces: 0,
            audit_entries: 8,
        };
        assert_eq!(server.resident_stats(), held);
        assert_eq!(server.account_count(), 1, "bob's binding was reset");
        assert_eq!(
            sha256(&server.shard_snapshot_bytes(0)).to_hex(),
            "fd8413f906e22aef6959d6779bf9f5a858d42b681f15f9345dc5ac135c2d51ac"
        );
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

    /// `bytes` with its one occurrence of `from` replaced by `to`.
    fn splice(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at = bytes
            .windows(from.len())
            .position(|w| w == from)
            .expect("pattern in snapshot");
        [&bytes[..at], to, &bytes[at + from.len()..]].concat()
    }

    #[test]
    fn snapshot_decoding_is_canonical() {
        // Two bound accounts, each with a registration-cache entry; every
        // map is written in ascending key order, the cache in eviction
        // order, the consumed nonces ascending.
        let (mut server, _, _) = setup();
        let public_key = server.public_key().to_bytes();
        for (account, n) in [("alice", 1u8), ("dave", 2)] {
            server.apply_record(&JournalRecord::Registered {
                account: account.into(),
                public_key: public_key.clone(),
                reset_password: format!("pw-{account}"),
                nonce: Nonce([n; 16]),
                signature: vec![n; 512],
                frame_hash: Digest([n; 32]),
            });
        }
        assert_eq!(server.shard_for("alice"), server.shard_for("dave"));
        let idx = server.shard_for("alice");
        let bytes = server.shard_snapshot_bytes(idx);
        let field = |fill: &dyn Fn(&mut FieldWriter)| {
            let mut w = FieldWriter::new();
            fill(&mut w);
            w.finish()
        };
        let account = |name: &str| {
            field(&|w| {
                w.str(name).bytes(&public_key).str(&format!("pw-{name}"));
            })
        };
        let cached = |name: &str, n: u8| {
            field(&|w| {
                w.put(&Nonce([n; 16])).bytes(&[n; 512]).str(name);
            })
        };
        let consumed = |a: u8, b: u8| {
            field(&|w| {
                w.u64(2).put(&Nonce([a; 16])).put(&Nonce([b; 16]));
            })
        };
        let (alice, dave) = (account("alice"), account("dave"));
        let both = [alice.clone(), dave.clone()].concat();

        let (mut restored, _, _) = setup();
        assert!(restored.restore_shard_snapshot(idx, &bytes));
        assert_eq!(restored.shard_snapshot_bytes(idx), bytes);
        for (what, malformed) in [
            ("an account listed twice", splice(&bytes, &dave, &alice)),
            (
                "two accounts out of order",
                splice(&bytes, &both, &[dave.clone(), alice.clone()].concat()),
            ),
            (
                "a cached registration listed twice",
                splice(&bytes, &cached("dave", 2), &cached("alice", 1)),
            ),
            (
                "two consumed nonces out of order",
                splice(&bytes, &consumed(1, 2), &consumed(2, 1)),
            ),
        ] {
            let (mut restored, _, _) = setup();
            assert!(!restored.restore_shard_snapshot(idx, &malformed), "{what}");
        }
    }

    #[test]
    fn snapshot_rejects_a_zero_window() {
        // Every session has credit for at least one slot; a snapshot whose
        // session claims none is malformed.
        let (mut bytes, at) = snapshot_with_one_served_slot(1);
        let (mut server, _, _) = setup();
        let idx = server.shard_for("alice");
        assert!(server.restore_shard_snapshot(idx, &bytes));
        assert_eq!(
            server.shards[idx].state.sessions["sess-1-x"]
                .state
                .reply_window
                .len(),
            1
        );
        bytes[at..at + 8].copy_from_slice(&0u64.to_be_bytes());
        let (mut server, _, _) = setup();
        assert!(!server.restore_shard_snapshot(idx, &bytes));
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
            window: 1,
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
        assert!(recovered.shards[idx].state.sessions.is_empty());
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
        // 1, and the next request must carry slot 2's derived nonce.
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
        let challenge = |i: u8| window_nonce(&key, u64::from(i));
        server.apply_record(&JournalRecord::LoginServed {
            nonce: login_nonce,
            signature: vec![1],
            sealed_session_key: seal_session_key(&server.identity.recovery_key, &login_nonce, &key),
            window: 1,
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
        let (id, shard) = (&server.identity, &server.shards[idx].state);
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

        // Only the two fresh evaluations sampled risk, no reply drew a
        // challenge, and the shard is as it was.
        assert_eq!(eph.risk_verified.iter().sum::<u64>(), 2);
        assert_eq!(eph.issued.len(), 0);
        assert_eq!(server.shard_snapshot_bytes(idx), snapshot);
    }

    impl WebServer {
        /// The page at `path`, if served here.
        pub fn page(&self, path: &str) -> Option<&Page> {
            self.identity.pages.get(path).map(|p| &p.page)
        }

        /// Adds (or replaces) a served page.
        pub fn put_page(&mut self, page: Page) {
            self.identity
                .pages
                .insert(page.path.to_string(), ServedPage::new(page));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::state::ShardState;
    use super::*;
    use crate::channel::Adversary;
    use journal::CrashProfile;
    use proptest::prelude::*;

    const DOMAIN: &str = "www.xyz.com";

    /// A world whose server (the index beside it) ran a seeded workload
    /// over a 10%-loss channel: chaos lifecycles with crashes (closed at
    /// the end), then crash-free lock-step sessions left open, one of them
    /// reset and re-bound over the wire, and one windowed session left
    /// open.
    fn lossy_world(seed: u64) -> (crate::World, usize) {
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
            if i == 2 {
                // The chaos lifecycles leave their crash schedule armed and
                // the server perhaps dead: the rest of the run is crash-free.
                let server = world.server_mut(sidx);
                server.arm_crash_schedule(CrashSchedule::Never);
                if server.is_crashed() {
                    server.recover_in_place(&mut rng);
                }
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
            if i == 3 {
                if let Some(password) = world.server(sidx).reset_password_for(account) {
                    let password = password.to_owned();
                    let _ = world.reset_and_rebind(DOMAIN, account, &password, device, &mut rng);
                }
            }
        }
        (world, sidx)
    }

    /// The identity and shard snapshots of [`lossy_world`]'s server.
    fn lossy_snapshots(seed: u64) -> (ServerIdentity, Vec<Vec<u8>>) {
        let (world, sidx) = lossy_world(seed);
        let server = world.server(sidx);
        let snapshots = (0..server.shard_count())
            .map(|idx| server.shard_snapshot_bytes(idx))
            .collect();
        (server.identity(), snapshots)
    }

    /// A server with `identity`'s keys and empty shards.
    fn fresh(identity: &ServerIdentity) -> WebServer {
        let journals = (0..identity.shard_count).map(|_| Journal::in_memory());
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

        /// At every split point of each shard's journaled records,
        /// applying the prefix, encoding and decoding the state, then
        /// applying the suffix evicts what applying everything evicts and
        /// ends in the same bytes, the live shard's; and a changed clone
        /// leaves its original's bytes alone.
        #[test]
        fn apply_commutes_with_a_snapshot_round_trip(seed in any::<u64>()) {
            let (world, sidx) = lossy_world(seed);
            let server = world.server(sidx);
            let id = server.identity();
            for idx in 0..server.shard_count() {
                let contents = server.journal(idx).read();
                let start = match contents.snapshot.as_slice() {
                    [] => ShardState::default(),
                    bytes => ShardState::from_snapshot(&id, bytes).expect("snapshot decodes"),
                };
                let records = contents.records;
                let mut whole = start.clone();
                let evicted: Vec<_> = records.iter().map(|r| whole.apply(&id, r)).collect();
                let bytes = whole.snapshot(&id);
                prop_assert_eq!(&bytes, &server.shard_snapshot_bytes(idx));
                let mut prefix = start;
                for split in 0..=records.len() {
                    let encoded = prefix.snapshot(&id);
                    let mut state = ShardState::from_snapshot(&id, &encoded).expect("decodes");
                    let rest: Vec<_> = records[split..].iter().map(|r| state.apply(&id, r)).collect();
                    prop_assert_eq!(&rest[..], &evicted[split..]);
                    prop_assert_eq!(&state.snapshot(&id), &bytes);
                    if let Some(r) = records.get(split) {
                        prefix.apply(&id, r);
                    }
                }
                let mut copy = whole.clone();
                copy.apply(&id, &JournalRecord::Registered {
                    account: "zed".into(),
                    public_key: server.public_key().to_bytes(),
                    reset_password: "pw-zed".to_owned(),
                    nonce: Nonce([0x5A; 16]),
                    signature: Vec::new(),
                    frame_hash: Digest([0; 32]),
                });
                prop_assert_ne!(&copy.snapshot(&id), &bytes);
                prop_assert_eq!(&whole.snapshot(&id), &bytes);
            }
        }
    }
}
