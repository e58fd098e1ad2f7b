//! Write-ahead journal + snapshots for the TRUST web server.
//!
//! The server is the paper's long-lived trust anchor: it must be able to
//! lose its process (power cut, OOM kill, deploy) without losing the
//! account bindings, nonce-replay state, session sequence numbers, or
//! frame-hash audit commitments that the security argument rests on. The
//! journal records every state-advancing decision *before* the reply is
//! sent, so [`super::WebServer::recover`] can rebuild exactly the
//! acknowledged state.
//!
//! Layout: a snapshot (the full state as of some point) plus a log of
//! CRC-framed records appended since. Each log frame is
//! `[len: u32 BE][crc32: u32 BE][payload]`; recovery stops at a torn tail
//! (incomplete frame) and skips a mid-log frame whose CRC or payload does
//! not check out, counting every skip so operators can see data loss
//! instead of silently absorbing it.

use std::sync::Arc;

use btd_crypto::nonce::Nonce;
use btd_crypto::sha256::Digest;
use btd_sim::rng::SimRng;

use crate::messages::{ContentPage, ResumeAck};
use crate::pages::Page;
use crate::risk_policy::RiskReport;
use crate::wire::{self, durable, FieldWriter};

/// Slice-by-4 lookup tables for the IEEE CRC-32 polynomial, built at
/// compile time (4 tables x 256 entries = 4 KiB).
const CRC_TABLES: [[u32; 256]; 4] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// IEEE CRC-32 (the Ethernet/zip polynomial), slice-by-4: four table
/// lookups per 32-bit word instead of eight shift/xor rounds per byte.
/// This is the hot framing path — every append and every recovery scan
/// checksums its payload — and `storage_matrix` reports the throughput
/// delta against [`crc32_reference`].
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        let v = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = CRC_TABLES[3][(v & 0xFF) as usize]
            ^ CRC_TABLES[2][((v >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((v >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(v >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The original bitwise CRC-32, kept as the independent oracle the
/// property tests pin [`crc32`] against (and the baseline the bench
/// compares throughput to).
pub fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// What a storage backend can report at a durability barrier. Transient
/// ([`StorageError::WouldBlock`]) failures retain the unsynced buffers so
/// a retry can succeed; [`StorageError::DiskFull`] clears once compaction
/// frees log space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageError {
    /// The sync failed transiently (EAGAIN-style); retry may succeed.
    WouldBlock,
    /// The log partition is out of capacity.
    DiskFull,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::WouldBlock => write!(f, "sync would block"),
            StorageError::DiskFull => write!(f, "disk full"),
        }
    }
}

impl std::error::Error for StorageError {}

/// One segment certified at a sync barrier (returned by [`Storage::sync`]
/// so the server can trace the seal).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SealInfo {
    /// The sealed segment's file id.
    pub segment: u64,
    /// Its size in bytes at seal time.
    pub bytes: usize,
}

/// One contiguous piece of the log, in log order. Frames never span
/// chunks (segmented backends rotate at append boundaries), so recovery
/// parses each chunk independently.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogChunk {
    /// The backing segment's id (0 for single-chunk backends).
    pub id: u64,
    /// The chunk's bytes.
    pub data: Vec<u8>,
    /// Whether this chunk is a sealed (rotated + certified) segment.
    pub sealed: bool,
    /// Whether a sealed chunk's bytes still match its seal CRC. Always
    /// true for unsealed chunks; false means bit rot after certification
    /// and the owning shard must quarantine rather than silently absorb.
    pub seal_ok: bool,
}

/// Durable storage behind a [`Journal`]: one snapshot blob plus an
/// append-only log exposed as ordered chunks. In-memory for tests; the
/// trait is the seam where [`super::storage::SegmentedStorage`] (or a real
/// file-backed implementation) slots in.
///
/// The durability contract: [`Storage::append`] buffers and never fails;
/// [`Storage::sync`] is the barrier where appended bytes become durable —
/// and where disk faults surface. A reply must never leave before the
/// sync covering its record succeeds.
pub trait Storage: std::fmt::Debug {
    /// Appends one framed record to the log (buffered until [`Storage::sync`]).
    fn append(&mut self, frame: &[u8]);
    /// Makes every appended byte durable, reporting segments certified at
    /// this barrier. On `Err` the unsynced bytes are retained (transient
    /// failures are retryable) unless explicitly discarded.
    fn sync(&mut self) -> Result<Vec<SealInfo>, StorageError>;
    /// The log as ordered chunks (live view: synced and unsynced bytes).
    fn chunks(&self) -> Vec<LogChunk>;
    /// Total log length in bytes across all chunks.
    fn log_len(&self) -> usize;
    /// Replaces the snapshot and truncates the log (compaction). On `Err`
    /// the previous snapshot and the whole log are left intact.
    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError>;
    /// The current snapshot blob (empty if none).
    fn snapshot(&self) -> Vec<u8>;
    /// The current snapshot's length in bytes, without copying it.
    fn snapshot_len(&self) -> usize;
    /// Number of live log segments (1 for single-chunk backends).
    fn segment_count(&self) -> usize {
        1
    }
    /// Log-partition pressure in `[0, 1+]`; `None` when unbounded.
    fn pressure(&self) -> Option<f64> {
        None
    }
    /// Simulates process death: unsynced bytes are lost (a faulty disk may
    /// persist a torn prefix instead). Returns whether any log bytes were
    /// dropped.
    fn crash(&mut self) -> bool;
    /// Drops unsynced bytes without crashing (degraded-mode shedding: the
    /// record was never applied or acknowledged, so it must not become
    /// durable later behind the server's back). Returns whether any log
    /// bytes were dropped.
    fn discard_unsynced(&mut self) -> bool;
    /// Removes the last `n` bytes of the log (fault hook: torn final
    /// write). Returns whether any log bytes were dropped.
    fn tear_tail(&mut self, n: usize) -> bool;
    /// Flips one bit at log `offset` (fault hook: bit rot).
    fn corrupt_at(&mut self, offset: usize, bit: u8);
    /// An independent deep copy of this storage.
    fn duplicate(&self) -> Box<dyn Storage>;
}

/// The default in-memory storage: appends are durable immediately, sync
/// never fails, a crash loses nothing — the pre-disk-fault-model
/// behaviour, preserved exactly for the deterministic protocol tests.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    snapshot: Vec<u8>,
    log: Vec<u8>,
}

impl Storage for MemStorage {
    fn append(&mut self, frame: &[u8]) {
        self.log.extend_from_slice(frame);
    }
    fn sync(&mut self) -> Result<Vec<SealInfo>, StorageError> {
        Ok(Vec::new())
    }
    fn chunks(&self) -> Vec<LogChunk> {
        vec![LogChunk {
            id: 0,
            data: self.log.clone(),
            sealed: false,
            seal_ok: true,
        }]
    }
    fn log_len(&self) -> usize {
        self.log.len()
    }
    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        self.snapshot = snapshot.to_vec();
        self.log.clear();
        Ok(())
    }
    fn snapshot(&self) -> Vec<u8> {
        self.snapshot.clone()
    }
    fn snapshot_len(&self) -> usize {
        self.snapshot.len()
    }
    fn crash(&mut self) -> bool {
        false
    }
    fn discard_unsynced(&mut self) -> bool {
        false
    }
    fn tear_tail(&mut self, n: usize) -> bool {
        let len = self.log.len();
        self.log.truncate(len.saturating_sub(n));
        self.log.len() < len
    }
    fn corrupt_at(&mut self, offset: usize, bit: u8) {
        self.log[offset] ^= 1 << (bit % 8);
    }
    fn duplicate(&self) -> Box<dyn Storage> {
        Box::new(self.clone())
    }
}

/// Where in a handler a deterministic crash can be injected. Mirrors the
/// channel's `Adversary` style: the interesting failures are the ones that
/// straddle the durability boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// The server dies before the record reaches the journal: the work is
    /// lost and must be redone.
    BeforeAppend,
    /// The server dies after the append but before applying the record to
    /// memory or replying: the work is durable but unacknowledged.
    AfterAppend,
    /// The server dies after applying the record, just before the reply
    /// leaves: durable, applied, unacknowledged.
    BeforeReply,
}

const CRASH_POINTS: [CrashPoint; 3] = [
    CrashPoint::BeforeAppend,
    CrashPoint::AfterAppend,
    CrashPoint::BeforeReply,
];

fn point_index(p: CrashPoint) -> usize {
    CRASH_POINTS
        .iter()
        .position(|c| *c == p)
        .expect("known point")
}

/// Per-crash-point trip probabilities (a seedable schedule samples them).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CrashProfile {
    /// Probability of dying at [`CrashPoint::BeforeAppend`].
    pub before_append: f64,
    /// Probability of dying at [`CrashPoint::AfterAppend`].
    pub after_append: f64,
    /// Probability of dying at [`CrashPoint::BeforeReply`].
    pub before_reply: f64,
}

impl CrashProfile {
    /// The same probability at every crash point.
    pub fn uniform(p: f64) -> Self {
        CrashProfile {
            before_append: p,
            after_append: p,
            before_reply: p,
        }
    }

    fn prob(&self, p: CrashPoint) -> f64 {
        match p {
            CrashPoint::BeforeAppend => self.before_append,
            CrashPoint::AfterAppend => self.after_append,
            CrashPoint::BeforeReply => self.before_reply,
        }
    }
}

/// A deterministic crash schedule: either never, a scripted one-shot at
/// the nth visit of one crash point, or seeded random sampling of a
/// [`CrashProfile`] — same seed, same crashes.
#[derive(Debug)]
pub enum CrashSchedule {
    /// Never crashes (production behaviour).
    Never,
    /// Crashes exactly once, at the nth (0-based) visit of `point`.
    OnceAt {
        /// The crash point to trip.
        point: CrashPoint,
        /// How many visits of `point` to let pass first.
        nth: u64,
        /// Visits seen so far, per crash point.
        seen: [u64; 3],
        /// Whether the one shot has fired.
        fired: bool,
    },
    /// Samples each visit against the profile with a private RNG.
    Seeded {
        /// Trip probabilities.
        profile: CrashProfile,
        /// Private RNG (seeded, so runs replay bit-for-bit).
        rng: SimRng,
    },
}

impl CrashSchedule {
    /// A schedule that crashes exactly once, at the `nth` (0-based) visit
    /// of `point`.
    pub fn once_at(point: CrashPoint, nth: u64) -> Self {
        CrashSchedule::OnceAt {
            point,
            nth,
            seen: [0; 3],
            fired: false,
        }
    }

    /// A seeded stochastic schedule over `profile`.
    pub fn seeded(profile: CrashProfile, seed: u64) -> Self {
        CrashSchedule::Seeded {
            profile,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Visits `point`; true means the server dies here.
    pub fn visit(&mut self, point: CrashPoint) -> bool {
        match self {
            CrashSchedule::Never => false,
            CrashSchedule::OnceAt {
                point: target,
                nth,
                seen,
                fired,
            } => {
                let idx = point_index(point);
                let hit = !*fired && point == *target && seen[idx] == *nth;
                seen[idx] += 1;
                if hit {
                    *fired = true;
                }
                hit
            }
            CrashSchedule::Seeded { profile, rng } => rng.chance(profile.prob(point)),
        }
    }
}

// --- Records ----------------------------------------------------------------

/// One durable state transition. Every variant carries enough to rebuild
/// the in-memory effects of the handler that produced it, including the
/// idempotency-cache entry and the consumed nonce — which is what keeps
/// `replays_accepted == 0` across restarts.
#[derive(Clone, PartialEq, Debug)]
pub enum JournalRecord {
    /// An account was bound (Fig. 9, step 5).
    Registered {
        /// Account name.
        account: Arc<str>,
        /// The bound per-site public key (canonical bytes).
        public_key: Vec<u8>,
        /// The out-of-band fallback credential.
        reset_password: String,
        /// The consumed submission nonce.
        nonce: Nonce,
        /// The submission signature (keys the idempotency cache).
        signature: Vec<u8>,
        /// The registration frame hash (audit commitment).
        frame_hash: Digest,
    },
    /// A login opened a session (Fig. 10, step 3).
    LoginServed {
        /// The consumed submission nonce.
        nonce: Nonce,
        /// The submission signature (keys the idempotency cache).
        signature: Vec<u8>,
        /// The session MAC key, sealed under the server's recovery key
        /// (ChaCha20 keyed by the recovery key, stream nonce derived from
        /// the consumed login nonce, HMAC-SHA256 tagged). The journal
        /// holds no raw secrets; `ShardState::apply` unseals on live apply
        /// and on recovery replay alike.
        sealed_session_key: Vec<u8>,
        /// Negotiated interaction window for the session, its credit: up
        /// to `w >= 1` interactions in flight (1 is the lock-step
        /// stop-and-wait flow).
        window: u64,
        /// The first content page served (carries session id, nonce, seq).
        reply: ContentPage,
        /// The login frame hash (audit commitment).
        frame_hash: Digest,
        /// The risk report attached to the login.
        risk: RiskReport,
    },
    /// An interaction advanced a session (Fig. 10, step 4).
    InteractionServed {
        /// The consumed request nonce.
        request_nonce: Nonce,
        /// MAC of the served request (identifies retransmits).
        request_mac: Digest,
        /// The requested action.
        action: Arc<str>,
        /// The frame hash FLock reported (audit commitment).
        frame_hash: Digest,
        /// The attached risk report.
        risk: RiskReport,
        /// The page the server believed the user was seeing.
        expected_path: Arc<str>,
        /// Step-up counter after the risk decision.
        stepups: u64,
        /// The reply served (carries session id, next nonce, next seq).
        reply: ContentPage,
    },
    /// A session re-attached after a restart.
    SessionResumed {
        /// The device-chosen resume nonce (consumed).
        device_nonce: Nonce,
        /// MAC of the resume request (keys the idempotency cache).
        request_mac: Digest,
        /// The acknowledgement served.
        ack: ResumeAck,
    },
    /// A session was terminated by the risk policy.
    SessionTerminated {
        /// The session that died.
        session_id: Arc<str>,
        /// The account that owned it (routes the record to its shard).
        account: Arc<str>,
    },
    /// A session was closed cleanly (logout / end of lifecycle). Applying
    /// this record *evicts*: the session entry, its idempotency-cache
    /// entries, and the nonces it consumed are all released, so resident
    /// server state stays bounded across lifecycles.
    SessionClosed {
        /// The session being torn down.
        session_id: Arc<str>,
        /// The account that owned it (routes the record to its shard).
        account: Arc<str>,
    },
    /// An account's key binding was removed (identity reset, local form).
    IdentityReset {
        /// The account whose binding was removed.
        account: Arc<str>,
    },
    /// An account's key binding was removed via the wire reset protocol.
    ResetServed {
        /// The account whose binding was removed.
        account: Arc<str>,
        /// The consumed request nonce.
        nonce: Nonce,
        /// Digest of the request (keys the idempotency cache).
        request_digest: Digest,
    },
}

// The durable layouts: one field list per type, in wire order, read and
// written by the same `Durable` impl (journal records and shard snapshots).

durable!(JournalRecord {
    "reg" => Registered { account, public_key, reset_password, nonce, signature, frame_hash },
    "login" => LoginServed { nonce, signature, sealed_session_key, window, frame_hash, risk, reply },
    "interact" => InteractionServed {
        request_nonce, request_mac, action, frame_hash, expected_path, stepups, risk, reply
    },
    "resume" => SessionResumed { device_nonce, request_mac, ack },
    "terminate" => SessionTerminated { session_id, account },
    "close" => SessionClosed { session_id, account },
    "ireset" => IdentityReset { account },
    "wreset" => ResetServed { account, nonce, request_digest },
});

durable!(ContentPage {
    session_id,
    account,
    nonce,
    seq,
    page,
    mac
});

durable!(Page { path, body });

durable!(ResumeAck {
    session_id,
    account,
    device_nonce,
    nonce,
    seq,
    last_reply,
    mac
});

// Each count travels as a `u64` field and reads back only if a `u32`
// holds it.
durable!(RiskReport {
    window,
    verified,
    mismatched
});

impl JournalRecord {
    /// The account this record belongs to — the shard-routing key. Every
    /// durable transition is scoped to exactly one account, which is what
    /// makes per-account sharding of the journal sound: replaying each
    /// shard's segment independently reproduces exactly that shard's
    /// state, in order, regardless of how segments interleaved in time.
    pub fn shard_account(&self) -> &str {
        match self {
            JournalRecord::Registered { account, .. } => account,
            JournalRecord::LoginServed { reply, .. } => &reply.account,
            JournalRecord::InteractionServed { reply, .. } => &reply.account,
            JournalRecord::SessionResumed { ack, .. } => &ack.account,
            JournalRecord::SessionTerminated { account, .. } => account,
            JournalRecord::SessionClosed { account, .. } => account,
            JournalRecord::IdentityReset { account } => account,
            JournalRecord::ResetServed { account, .. } => account,
        }
    }
}

// --- The journal ------------------------------------------------------------

/// A sealed segment whose bytes no longer match its seal CRC, with the
/// per-skip accounting recovery owes the operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CorruptSegment {
    /// The segment's file id.
    pub segment: u64,
    /// Frames inside it that failed to salvage (also counted in the
    /// journal-wide skip total).
    pub skipped: usize,
}

/// What a [`Journal::read`] recovered.
#[derive(Clone, Debug, Default)]
pub struct JournalContents {
    /// The snapshot blob (empty if none was ever installed).
    pub snapshot: Vec<u8>,
    /// Every log record that decoded cleanly, in append order.
    pub records: Vec<JournalRecord>,
    /// Frames lost to torn tails or CRC/decode failures.
    pub skipped: usize,
    /// Sealed segments whose certificate no longer verifies. Frames inside
    /// are still salvaged individually (and skips counted), but the shard
    /// that owns this journal must quarantine: a broken seal means the
    /// storage lost integrity it had certified.
    pub corrupt_segments: Vec<CorruptSegment>,
}

/// A write-ahead log + snapshot over a [`Storage`] backend.
#[derive(Debug)]
pub struct Journal {
    storage: Box<dyn Storage>,
    /// Records appended since the last snapshot (drives auto-compaction).
    pending_records: usize,
    /// The frame [`Journal::append`] builds, kept so appends reuse its
    /// capacity.
    frame: Vec<u8>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::in_memory()
    }
}

impl Journal {
    /// A journal over fresh in-memory storage.
    pub fn in_memory() -> Self {
        Journal::new(Box::<MemStorage>::default())
    }

    /// A journal over caller-provided storage (e.g. one rescued from a
    /// crashed server).
    pub fn new(storage: Box<dyn Storage>) -> Self {
        let mut j = Journal {
            storage,
            pending_records: 0,
            frame: Vec::new(),
        };
        j.recount();
        j
    }

    /// Appends one record, CRC-framed; returns the framed bytes written
    /// (header + payload), so callers can account journal growth.
    ///
    /// The payload is encoded straight into the reused frame buffer behind
    /// an 8-byte header placeholder, and the header is backpatched once
    /// the payload's length and CRC are known.
    pub fn append(&mut self, rec: &JournalRecord) -> usize {
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; 8]);
        FieldWriter::over(&mut *frame).put(rec);
        let (header, payload) = frame.split_at_mut(8);
        header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_be_bytes());
        self.storage.append(frame);
        self.pending_records += 1;
        frame.len()
    }

    /// Parses the snapshot + log.
    ///
    /// The log is scanned chunk by chunk (frames never span chunks). An
    /// incomplete frame at the end of a chunk (a torn write) counts one
    /// skip and the scan continues with the next chunk; a complete frame
    /// whose CRC or payload does not verify is skipped-and-counted and the
    /// scan continues. A sealed chunk whose certificate fails is still
    /// salvaged frame-by-frame, but it is reported in
    /// [`JournalContents::corrupt_segments`] so the shard can quarantine —
    /// certified bytes going bad is never silently absorbed.
    pub fn read(&self) -> JournalContents {
        let mut contents = JournalContents {
            snapshot: self.storage.snapshot(),
            ..Default::default()
        };
        for chunk in self.storage.chunks() {
            let log = &chunk.data;
            let mut chunk_skips = 0usize;
            let mut pos = 0usize;
            while pos < log.len() {
                let Some(header) = log.get(pos..pos + 8) else {
                    chunk_skips += 1; // torn header
                    break;
                };
                let len = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
                let crc = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes"));
                let Some(payload) = log.get(pos + 8..pos + 8 + len) else {
                    chunk_skips += 1; // torn payload
                    break;
                };
                pos += 8 + len;
                if crc32(payload) != crc {
                    chunk_skips += 1; // bit rot mid-log
                    continue;
                }
                match wire::decode(payload) {
                    Some(rec) => contents.records.push(rec),
                    None => chunk_skips += 1,
                }
            }
            contents.skipped += chunk_skips;
            if chunk.sealed && !chunk.seal_ok {
                contents.corrupt_segments.push(CorruptSegment {
                    segment: chunk.id,
                    skipped: chunk_skips,
                });
            }
        }
        contents
    }

    /// An independent copy of this journal over an independent copy of its
    /// storage. Used to recover a second server instance from a live one's
    /// segments without disturbing the original — e.g. the cross-instance
    /// digest-equality checks.
    pub fn duplicate(&self) -> Journal {
        Journal {
            storage: self.storage.duplicate(),
            pending_records: self.pending_records,
            frame: Vec::new(),
        }
    }

    /// Makes every appended record durable; the barrier every reply waits
    /// behind. Returns the segments certified here so the caller can trace
    /// them; on `Err` the unsynced bytes are retained for retry.
    pub fn sync(&mut self) -> Result<Vec<SealInfo>, StorageError> {
        self.storage.sync()
    }

    /// Simulates process death at the storage layer: unsynced bytes are
    /// lost (or torn, on a faulty disk).
    pub fn crash(&mut self) {
        if self.storage.crash() {
            self.recount();
        }
    }

    /// Drops unsynced bytes without crashing (degraded-mode shedding).
    pub fn discard_unsynced(&mut self) {
        if self.storage.discard_unsynced() {
            self.recount();
        }
    }

    /// Recounts `pending_records` by decoding the log. Only a change that
    /// drops log bytes calls it: the count is exact otherwise, so a crash
    /// that loses nothing (always, in memory) decodes nothing.
    fn recount(&mut self) {
        self.pending_records = self.read().records.len();
    }

    /// Replaces the snapshot with `snapshot` and truncates the log. On
    /// `Err` the previous snapshot and log are intact.
    pub fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        self.storage.install_snapshot(snapshot)?;
        self.pending_records = 0;
        // Unsynced records the snapshot does not cover restart the log
        // (segmented storage keeps them); count them.
        if self.storage.log_len() > 0 {
            self.recount();
        }
        Ok(())
    }

    /// Records appended since the last snapshot.
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Raw log length in bytes.
    pub fn log_len(&self) -> usize {
        self.storage.log_len()
    }

    /// Raw snapshot length in bytes (0 if none was installed).
    pub fn snapshot_len(&self) -> usize {
        self.storage.snapshot_len()
    }

    /// Number of live log segments in the backing storage.
    pub fn segment_count(&self) -> usize {
        self.storage.segment_count()
    }

    /// Log-partition pressure of the backing storage (`None` = unbounded).
    pub fn pressure(&self) -> Option<f64> {
        self.storage.pressure()
    }

    /// Tears `n` bytes off the log tail (simulates a torn final write).
    pub fn tear_tail(&mut self, n: usize) {
        if self.storage.tear_tail(n) {
            self.recount();
        }
    }

    /// Flips one bit in the log byte at `offset` (simulates bit rot).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn corrupt_at(&mut self, offset: usize, bit: u8) {
        self.storage.corrupt_at(offset, bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(i: u8) -> JournalRecord {
        JournalRecord::Registered {
            account: format!("user-{i}").into(),
            public_key: vec![i; 8],
            reset_password: format!("pw-{i}"),
            nonce: Nonce([i; 16]),
            signature: vec![i, i + 1],
            frame_hash: Digest([i; 32]),
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_4_matches_bitwise_reference() {
        // Every remainder length (0..4 tail bytes) and a seeded spread of
        // contents; the bitwise oracle pins the table-driven rewrite.
        let mut rng = SimRng::seed_from(0xC12C);
        for len in 0..64usize {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            assert_eq!(crc32(&buf), crc32_reference(&buf), "len {len}");
        }
    }

    #[test]
    fn records_round_trip() {
        let recs = [
            sample_record(1),
            JournalRecord::SessionTerminated {
                session_id: "sess-1".into(),
                account: "alice".into(),
            },
            JournalRecord::SessionClosed {
                session_id: "sess-2".into(),
                account: "bob".into(),
            },
            JournalRecord::IdentityReset {
                account: "alice".into(),
            },
            JournalRecord::ResetServed {
                account: "bob".into(),
                nonce: Nonce([9; 16]),
                request_digest: Digest([8; 32]),
            },
        ];
        for rec in &recs {
            assert_eq!(wire::decode(&wire::encode(rec)).as_ref(), Some(rec));
        }
    }

    /// One record of every variant, a large one before small ones so a
    /// reused frame buffer would show any stale tail.
    fn every_variant() -> Vec<JournalRecord> {
        let page = |seq: u64, body: usize| ContentPage {
            session_id: "sess-1-00ff".into(),
            account: "alice".into(),
            nonce: Nonce([3; 16]),
            seq,
            page: Page::new("/pay", vec![0xAB; body]),
            mac: Digest([4; 32]),
        };
        let risk = RiskReport {
            window: 12,
            verified: 9,
            mismatched: 1,
        };
        let ack = |last_reply| ResumeAck {
            session_id: "sess-1-00ff".into(),
            account: "alice".into(),
            device_nonce: Nonce([5; 16]),
            nonce: Nonce([6; 16]),
            seq: 9,
            last_reply,
            mac: Digest([7; 32]),
        };
        vec![
            JournalRecord::LoginServed {
                nonce: Nonce([1; 16]),
                signature: vec![2; 64],
                sealed_session_key: vec![3; 80],
                window: 0,
                reply: page(0, 900),
                frame_hash: Digest([8; 32]),
                risk,
            },
            sample_record(1),
            JournalRecord::InteractionServed {
                request_nonce: Nonce([9; 16]),
                request_mac: Digest([10; 32]),
                action: "/pay".into(),
                frame_hash: Digest([11; 32]),
                risk,
                expected_path: "/home".into(),
                stepups: 1,
                reply: page(8, 40),
            },
            JournalRecord::SessionResumed {
                device_nonce: Nonce([5; 16]),
                request_mac: Digest([12; 32]),
                ack: ack(Some(page(8, 40))),
            },
            JournalRecord::SessionResumed {
                device_nonce: Nonce([5; 16]),
                request_mac: Digest([12; 32]),
                ack: ack(None),
            },
            JournalRecord::SessionTerminated {
                session_id: "sess-1".into(),
                account: "alice".into(),
            },
            JournalRecord::SessionClosed {
                session_id: "sess-2".into(),
                account: "bob".into(),
            },
            JournalRecord::IdentityReset {
                account: "alice".into(),
            },
            JournalRecord::ResetServed {
                account: "bob".into(),
                nonce: Nonce([9; 16]),
                request_digest: Digest([8; 32]),
            },
        ]
    }

    /// The log concatenated across chunks.
    fn log_bytes(j: &Journal) -> Vec<u8> {
        j.storage
            .chunks()
            .into_iter()
            .flat_map(|c| c.data)
            .collect()
    }

    #[test]
    fn append_writes_len_crc_payload_for_every_variant() {
        for mut j in [Journal::in_memory(), segmented_journal(1 << 20)] {
            let recs = every_variant();
            for rec in &recs {
                let before = log_bytes(&j).len();
                let written = j.append(rec);
                let payload = wire::encode(rec);
                let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
                frame.extend_from_slice(&crc32(&payload).to_be_bytes());
                frame.extend_from_slice(&payload);
                assert_eq!(written, frame.len());
                assert_eq!(log_bytes(&j)[before..], frame[..], "{rec:?}");
            }
            let contents = j.read();
            assert_eq!(contents.records, recs);
            assert_eq!(contents.skipped, 0);
        }
    }

    /// Pins the payload layout of every variant byte for byte. A round
    /// trip cannot see two same-typed fields swapped on both sides, and
    /// the framing test compares against `encode` itself.
    #[test]
    fn record_layout_matches_known_answer() {
        let bytes: Vec<u8> = every_variant().iter().flat_map(wire::encode).collect();
        assert_eq!(
            btd_crypto::sha256::sha256(&bytes).to_hex(),
            "f445ea7991b6a8d3c36f843c930ad35a7f2f916ceb0077457e4d1ba6965c0bdb"
        );
    }

    #[test]
    fn every_record_routes_to_an_account() {
        assert_eq!(sample_record(2).shard_account(), "user-2");
        let close = JournalRecord::SessionClosed {
            session_id: "sess-9".into(),
            account: "carol".into(),
        };
        assert_eq!(close.shard_account(), "carol");
    }

    #[test]
    fn duplicate_preserves_snapshot_and_log() {
        let mut j = Journal::in_memory();
        j.append(&sample_record(0));
        j.install_snapshot(b"state").expect("mem storage");
        j.append(&sample_record(1));
        let copy = j.duplicate();
        let (a, b) = (j.read(), copy.read());
        assert_eq!(a.snapshot, b.snapshot);
        assert_eq!(a.records, b.records);
        assert_eq!(copy.pending_records(), j.pending_records());
    }

    #[test]
    fn append_read_round_trip() {
        let mut j = Journal::in_memory();
        for i in 0..5 {
            j.append(&sample_record(i));
        }
        let contents = j.read();
        assert_eq!(contents.records.len(), 5);
        assert_eq!(contents.skipped, 0);
        assert_eq!(contents.records[3], sample_record(3));
        assert_eq!(j.pending_records(), 5);
    }

    #[test]
    fn torn_tail_skips_exactly_one() {
        let mut j = Journal::in_memory();
        for i in 0..3 {
            j.append(&sample_record(i));
        }
        j.tear_tail(5);
        let contents = j.read();
        assert_eq!(contents.records.len(), 2, "complete prefix survives");
        assert_eq!(contents.skipped, 1, "the torn record is counted once");
    }

    #[test]
    fn mid_log_corruption_is_skipped_and_counted() {
        let mut j = Journal::in_memory();
        for i in 0..3 {
            j.append(&sample_record(i));
        }
        // Flip a payload bit inside the *first* frame (past its 8-byte
        // header) so later frames still parse.
        j.corrupt_at(12, 0);
        let contents = j.read();
        assert_eq!(contents.records.len(), 2, "later records still recover");
        assert_eq!(contents.skipped, 1);
        assert!(contents.corrupt_segments.is_empty(), "no seal was broken");
        assert_eq!(contents.records[0], sample_record(1));
    }

    #[test]
    fn snapshot_truncates_log() {
        let mut j = Journal::in_memory();
        j.append(&sample_record(0));
        j.install_snapshot(b"state").expect("mem storage");
        assert_eq!(j.log_len(), 0);
        assert_eq!(j.pending_records(), 0);
        j.append(&sample_record(1));
        let contents = j.read();
        assert_eq!(contents.snapshot, b"state");
        assert_eq!(contents.records, vec![sample_record(1)]);
    }

    fn segmented_journal(target: usize) -> Journal {
        use super::super::storage::{SegmentedStorage, SimDisk};
        Journal::new(Box::new(SegmentedStorage::with_config(
            Box::new(SimDisk::faultless()),
            target,
            64,
        )))
    }

    #[test]
    fn segmented_journal_round_trips_across_rotations() {
        let mut j = segmented_journal(100); // a few records per segment
        for i in 0..10 {
            j.append(&sample_record(i));
        }
        j.sync().expect("faultless disk");
        assert!(j.segment_count() > 2, "rotation must have happened");
        let contents = j.read();
        assert_eq!(contents.records.len(), 10);
        assert_eq!(contents.skipped, 0);
        assert_eq!(contents.records[7], sample_record(7));
        // Compaction collapses every segment into the checkpoint.
        j.install_snapshot(b"state").expect("faultless disk");
        assert_eq!(j.segment_count(), 1);
        assert_eq!(j.log_len(), 0);
    }

    #[test]
    fn segmented_crash_loses_only_unsynced_records() {
        let mut j = segmented_journal(1 << 20);
        j.append(&sample_record(0));
        j.sync().expect("faultless disk");
        j.append(&sample_record(1)); // never synced
        j.crash();
        let contents = j.read();
        assert_eq!(contents.records, vec![sample_record(0)]);
        assert_eq!(contents.skipped, 0, "a clean crash tears nothing");
        assert_eq!(j.pending_records(), 1, "pending recounted after crash");
    }

    /// On a faulty segmented disk (torn crashes, failed syncs, a full log
    /// partition) and across compactions that carry unsynced records
    /// over, the pending count equals what a read recovers after every
    /// crash and discard, and after tears of the final write. Bit rot is
    /// left out: it loses a sealed record without dropping a byte, and
    /// recovery quarantines the shard for it instead.
    #[test]
    fn pending_count_matches_the_log_after_every_drop() {
        use super::super::storage::{DiskFaultProfile, SegmentedStorage};
        let profile = DiskFaultProfile {
            torn_append: 0.5,
            sync_fail: 0.3,
            bitrot_seal: 0.0,
        };
        for seed in 0..8u64 {
            let storage = SegmentedStorage::sim(profile, Some(4096), 300, seed);
            let mut j = Journal::new(Box::new(storage));
            let mut rng = SimRng::seed_from(seed);
            for step in 0..300u64 {
                let op = rng.below(9);
                match op {
                    0..=4 => {
                        j.append(&sample_record((step % 200) as u8));
                    }
                    5 => {
                        let _ = j.sync();
                    }
                    6 => j.crash(),
                    7 => j.discard_unsynced(),
                    _ => {
                        let _ = j.install_snapshot(b"state");
                    }
                }
                assert_eq!(
                    j.pending_records(),
                    j.read().records.len(),
                    "seed {seed} step {step} op {op}"
                );
            }
            // A torn final write is a fault hook: nothing is appended
            // behind it, so tear last.
            for _ in 0..4 {
                j.tear_tail(rng.below(40) as usize);
                assert_eq!(
                    j.pending_records(),
                    j.read().records.len(),
                    "seed {seed} tear"
                );
            }
        }
    }

    #[test]
    fn corrupt_sealed_segment_is_reported_not_absorbed() {
        let mut j = segmented_journal(100);
        for i in 0..10 {
            j.append(&sample_record(i));
        }
        j.sync().expect("faultless disk");
        // Flip a payload bit inside the first (sealed) segment.
        j.corrupt_at(12, 0);
        let contents = j.read();
        assert_eq!(contents.corrupt_segments.len(), 1, "seal must break");
        assert_eq!(contents.corrupt_segments[0].skipped, 1);
        assert_eq!(contents.skipped, 1, "per-skip accounting includes it");
        assert_eq!(contents.records.len(), 9, "other frames salvage");
    }

    #[test]
    fn scripted_crash_schedule_fires_once() {
        let mut s = CrashSchedule::once_at(CrashPoint::AfterAppend, 1);
        assert!(!s.visit(CrashPoint::AfterAppend)); // 0th visit
        assert!(!s.visit(CrashPoint::BeforeAppend)); // other point
        assert!(s.visit(CrashPoint::AfterAppend)); // 1st visit: fire
        assert!(!s.visit(CrashPoint::AfterAppend)); // never again
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let visits: Vec<CrashPoint> = (0..60).map(|i| CRASH_POINTS[i % 3]).collect();
        let run = |seed| {
            let mut s = CrashSchedule::seeded(CrashProfile::uniform(0.3), seed);
            visits.iter().map(|p| s.visit(*p)).collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7));
        assert!(run(7).iter().any(|b| *b), "p=0.3 over 60 visits must fire");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary field values drawn from one seeded stream.
    struct Gen(SimRng);

    impl Gen {
        fn bytes(&mut self, max: u64) -> Vec<u8> {
            let mut b = vec![0; self.0.below(max + 1) as usize];
            self.0.fill_bytes(&mut b);
            b
        }
        fn string(&mut self) -> String {
            const CHARS: [char; 5] = ['a', '/', '-', 'é', '😀'];
            (0..self.0.below(12))
                .map(|_| CHARS[self.0.below(5) as usize])
                .collect()
        }
        fn array<const N: usize>(&mut self) -> [u8; N] {
            let mut a = [0; N];
            self.0.fill_bytes(&mut a);
            a
        }
        fn nonce(&mut self) -> Nonce {
            Nonce(self.array())
        }
        fn digest(&mut self) -> Digest {
            Digest(self.array())
        }
        fn risk(&mut self) -> RiskReport {
            RiskReport {
                window: self.0.next_u32(),
                verified: self.0.next_u32(),
                mismatched: self.0.next_u32(),
            }
        }
        fn page(&mut self) -> ContentPage {
            ContentPage {
                session_id: self.string().into(),
                account: self.string().into(),
                nonce: self.nonce(),
                seq: self.0.next_u64(),
                page: Page::new(&self.string(), self.bytes(48)),
                mac: self.digest(),
            }
        }

        /// A record of variant `variant` (0..8); a resume's healed reply
        /// is present or absent at random.
        fn record(&mut self, variant: u8) -> JournalRecord {
            match variant {
                0 => JournalRecord::Registered {
                    account: self.string().into(),
                    public_key: self.bytes(64),
                    reset_password: self.string(),
                    nonce: self.nonce(),
                    signature: self.bytes(64),
                    frame_hash: self.digest(),
                },
                1 => JournalRecord::LoginServed {
                    nonce: self.nonce(),
                    signature: self.bytes(64),
                    sealed_session_key: self.bytes(80),
                    window: self.0.next_u64(),
                    reply: self.page(),
                    frame_hash: self.digest(),
                    risk: self.risk(),
                },
                2 => JournalRecord::InteractionServed {
                    request_nonce: self.nonce(),
                    request_mac: self.digest(),
                    action: self.string().into(),
                    frame_hash: self.digest(),
                    risk: self.risk(),
                    expected_path: self.string().into(),
                    stepups: self.0.next_u64(),
                    reply: self.page(),
                },
                3 => JournalRecord::SessionResumed {
                    device_nonce: self.nonce(),
                    request_mac: self.digest(),
                    ack: ResumeAck {
                        session_id: self.string(),
                        account: self.string(),
                        device_nonce: self.nonce(),
                        nonce: self.nonce(),
                        seq: self.0.next_u64(),
                        last_reply: self.0.chance(0.5).then(|| self.page()),
                        mac: self.digest(),
                    },
                },
                4 => JournalRecord::SessionTerminated {
                    session_id: self.string().into(),
                    account: self.string().into(),
                },
                5 => JournalRecord::SessionClosed {
                    session_id: self.string().into(),
                    account: self.string().into(),
                },
                6 => JournalRecord::IdentityReset {
                    account: self.string().into(),
                },
                _ => JournalRecord::ResetServed {
                    account: self.string().into(),
                    nonce: self.nonce(),
                    request_digest: self.digest(),
                },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Decoding is the exact inverse of encoding: every record round
        /// trips, no strict prefix and no extension decodes, and a flipped
        /// bit never panics; whatever it still decodes to re-encodes to the
        /// flipped bytes, so no two payloads share a record.
        #[test]
        fn record_decoding_is_strict_and_total(seed in any::<u64>(), variant in 0u8..8, extra in any::<u8>()) {
            let rec = Gen(SimRng::seed_from(seed)).record(variant);
            let bytes = wire::encode(&rec);
            prop_assert_eq!(wire::decode::<JournalRecord>(&bytes), Some(rec.clone()));
            for end in 0..bytes.len() {
                prop_assert!(wire::decode::<JournalRecord>(&bytes[..end]).is_none(), "prefix {end}");
            }
            let mut longer = bytes.clone();
            longer.push(extra);
            prop_assert!(wire::decode::<JournalRecord>(&longer).is_none());
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Some(other) = wire::decode::<JournalRecord>(&flipped) {
                    prop_assert_eq!(wire::encode(&other), flipped);
                }
            }
        }
    }
}
