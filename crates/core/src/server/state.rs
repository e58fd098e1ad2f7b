//! A shard's durable state as a value: [`ShardState`] holds no journal,
//! can be cloned, and changes only through [`ShardState::apply`], which
//! live handling and recovery replay share. Its snapshot is its encoding,
//! built from `Durable` impls; only an account's public-key group element
//! and a session's sealed key, which need the server's identity to read,
//! are written by hand.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use btd_crypto::bignum::{LIMBS, U2048};
use btd_crypto::hmac::hmac_sha256;
use btd_crypto::nonce::{Nonce, ReplayGuard};
use btd_crypto::schnorr::{PublicKey, Signature};
use btd_crypto::sha256::Digest;

use crate::messages::{ContentPage, ResumeAck};
use crate::risk_policy::RiskReport;
use crate::trace::CacheKind;
use crate::wire::{self, durable, Durable, FieldReader, FieldWriter, Sink};

use super::journal::JournalRecord;
use super::{ServerIdentity, DEFAULT_CACHE_WATERMARK};

/// The snapshot's format tag.
const SNAPSHOT_TAG: &str = "trust-shard-snapshot-v4";

/// A bound account.
#[derive(Clone, Debug)]
pub(super) struct AccountRecord {
    pub(super) public_key: PublicKey,
    /// Fallback credential for identity reset ("the user can rely on her
    /// old passwords in order to … reset").
    pub(super) reset_password: String,
}

/// A reply served in a session, kept so a retransmitted request can be
/// answered without advancing state (at-most-once semantics).
#[derive(Clone, Debug)]
pub(super) struct CachedInteraction {
    /// Sequence number of the request that produced the reply.
    pub(super) seq: u64,
    /// MAC of that request — identifies a byte-identical retransmit.
    pub(super) request_mac: Digest,
    /// The reply to resend.
    pub(super) reply: ContentPage,
}

durable!(CachedInteraction {
    seq,
    request_mac,
    reply
});

/// A live session: its account, its MAC key, and what it has served.
#[derive(Clone)]
pub(super) struct Session {
    pub(super) account: Arc<str>,
    pub(super) key: Vec<u8>,
    pub(super) state: SessionState,
}

// `key` is the live session MAC key; a derived Debug would copy it into
// any `{:?}` of the server.
impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Session { account, state, .. } = self;
        write!(f, "Session({account}, key <redacted>, {state:?})")
    }
}

/// A session's protocol state, durable as one field list.
///
/// Besides the window, it tracks every nonce the session has consumed
/// (`login_nonce`, `resume_nonces`, `consumed_nonces`) so that closing it
/// can evict the matching idempotency-cache entries and replay-guard
/// entries in one pass.
#[derive(Clone, Debug)]
pub(super) struct SessionState {
    /// The window base: the lowest slot not yet served, advanced past
    /// contiguously served slots on every apply. In lock-step, the
    /// sequence number the next fresh interaction must carry.
    pub(super) expected_seq: u64,
    pub(super) current_path: Arc<str>,
    pub(super) stepups: u32,
    pub(super) terminated: bool,
    pub(super) interactions: u64,
    /// The login nonce that opened this session (keys the login cache).
    pub(super) login_nonce: Nonce,
    /// Resume nonces served for this session (key the resume cache).
    pub(super) resume_nonces: Vec<Nonce>,
    /// Every nonce this session consumed, in consumption order; forgotten
    /// from the replay guard when the session closes.
    pub(super) consumed_nonces: Vec<Nonce>,
    /// Negotiated interaction window, the session's credit: up to
    /// `window >= 1` interactions in flight. Lock-step stop-and-wait is a
    /// window of one.
    pub(super) window: u64,
    /// Served replies, sorted by seq and capped at the session's credit:
    /// a lock-step session keeps its last reply here.
    pub(super) reply_window: Vec<CachedInteraction>,
}

durable!(SessionState {
    expected_seq,
    current_path,
    stepups,
    terminated,
    interactions,
    login_nonce,
    resume_nonces,
    consumed_nonces,
    window,
    reply_window
});

impl SessionState {
    /// The cached reply for slot `seq`, if it is still in the window.
    pub(super) fn window_reply(&self, seq: u64) -> Option<&CachedInteraction> {
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
        let credit = self.window as usize;
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

/// An idempotency cache keyed by nonce and bounded at
/// [`DEFAULT_CACHE_WATERMARK`] entries, evicting the oldest insert first.
/// Its encoding lists the entries in eviction order, so a restored cache
/// evicts exactly as the original would.
#[derive(Clone, Debug)]
pub(super) struct Lru<V> {
    map: HashMap<Nonce, V>,
    order: VecDeque<Nonce>,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<V> Lru<V> {
    pub(super) fn get(&self, nonce: &Nonce) -> Option<&V> {
        self.map.get(nonce)
    }

    pub(super) fn len(&self) -> usize {
        self.map.len()
    }

    /// Inserts `entry` under `nonce`, then evicts past the watermark,
    /// forgetting each evicted nonce in `consumed`. Returns how many left.
    /// A nonce keeps its place if it is cached already, so `order` lists
    /// each nonce once and every snapshot restores.
    fn insert(&mut self, nonce: Nonce, entry: V, consumed: &mut ReplayGuard) -> u64 {
        if self.map.insert(nonce, entry).is_none() {
            self.order.push_back(nonce);
        }
        let mut evicted = 0;
        while self.map.len() > DEFAULT_CACHE_WATERMARK {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
            consumed.forget_consumed(old);
            evicted += 1;
        }
        evicted
    }
}

/// A `u64` count, then each nonce and its entry in eviction order. A
/// nonce listed twice is malformed.
impl<V: Durable> Durable for Lru<V> {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.u64(self.order.len() as u64);
        for n in &self.order {
            w.put(n).put(&self.map[n]);
        }
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        let mut lru = Lru::default();
        for _ in 0..r.u64()? {
            let nonce = r.get()?;
            if lru.map.insert(nonce, r.get()?).is_some() {
                return None;
            }
            lru.order.push_back(nonce);
        }
        Some(lru)
    }
}

/// One shard's durable state: everything its journal records build.
#[derive(Clone, Debug, Default)]
pub(super) struct ShardState {
    pub(super) accounts: HashMap<Arc<str>, AccountRecord>,
    /// Live sessions, keyed by session id (an account's sessions live in
    /// its shard).
    pub(super) sessions: HashMap<Arc<str>, Session>,
    /// Bound registrations, keyed by submission nonce: the submission
    /// signature and the account.
    pub(super) reg_cache: Lru<(Signature, String)>,
    /// Opened logins, keyed by submission nonce; evicted when the session
    /// closes.
    pub(super) login_cache: HashMap<Nonce, (Signature, ContentPage)>,
    /// Served resumes, keyed by the device-chosen resume nonce; evicted
    /// when the session closes.
    pub(super) resume_cache: HashMap<Nonce, (Digest, ResumeAck)>,
    /// Served wire resets, keyed by request nonce: the request digest and
    /// the account.
    pub(super) reset_cache: Lru<(Digest, String)>,
    /// Consumed-nonce registry for this shard's accounts.
    pub(super) consumed: ReplayGuard,
    /// Audit log, per account (batch audit verifies whole windows).
    pub(super) audit: HashMap<Arc<str>, Vec<AuditEntry>>,
    /// Sessions ever opened in this shard (drives globally unique ids).
    pub(super) session_counter: u64,
}

impl ShardState {
    /// Applies one journal record, the only change durable state ever
    /// sees. Cache evictions (session close, LRU watermark) happen here
    /// too, so replay reproduces them; returns the cache that evicted and
    /// how many entries left it, if any did.
    pub(super) fn apply(
        &mut self,
        id: &ServerIdentity,
        rec: &JournalRecord,
    ) -> Option<(CacheKind, u64)> {
        let mut log = |entry: AuditEntry| {
            let account = entry.account.clone();
            self.audit.entry(account).or_default().push(entry);
        };
        let evicted = match rec {
            JournalRecord::Registered {
                account,
                public_key,
                reset_password,
                nonce,
                signature,
                frame_hash,
            } => {
                let group = id.keys.public_key().group();
                let element = U2048::from_be_bytes(public_key);
                let record = AccountRecord {
                    public_key: PublicKey::from_element(group, element),
                    reset_password: reset_password.clone(),
                };
                self.accounts.insert(account.clone(), record);
                self.consumed.mark_consumed(*nonce);
                log(AuditEntry {
                    account: account.clone(),
                    expected_path: Arc::from("/register"),
                    frame_hash: *frame_hash,
                    action: Arc::from("register"),
                    risk: RiskReport::fresh_login(),
                    lookback: 1,
                });
                // A signature that does not parse caches nothing.
                let entry = (Signature::from_bytes(signature)?, account.to_string());
                let evicted = self.reg_cache.insert(*nonce, entry, &mut self.consumed);
                Some((CacheKind::Registration, evicted))
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
                // No writer journals a window of 0 either: a session needs
                // credit for at least one slot.
                let Some(key) = open_session_key(&id.recovery_key, nonce, sealed_session_key)
                    .filter(|_| *window >= 1)
                else {
                    debug_assert!(false, "sealed session key failed to open, or window 0");
                    return None;
                };
                self.session_counter += 1;
                self.consumed.mark_consumed(*nonce);
                log(AuditEntry {
                    account: reply.account.clone(),
                    expected_path: Arc::from("/login"),
                    frame_hash: *frame_hash,
                    action: Arc::from("login"),
                    risk: *risk,
                    lookback: 1,
                });
                let session = Session {
                    account: reply.account.clone(),
                    key,
                    state: SessionState {
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
                };
                self.sessions.insert(reply.session_id.clone(), session);
                if let Some(sig) = Signature::from_bytes(signature) {
                    self.login_cache.insert(*nonce, (sig, reply.clone()));
                }
                None
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
                self.consumed.mark_consumed(*request_nonce);
                // A pipelined device legitimately lags the serve stream by
                // up to its window; lock-step sessions (window 1) stay
                // exact.
                let session = self.sessions.get_mut(&reply.session_id);
                let lookback = session.as_ref().map_or(1, |s| s.state.window);
                log(AuditEntry {
                    account: reply.account.clone(),
                    expected_path: expected_path.clone(),
                    frame_hash: *frame_hash,
                    action: action.clone(),
                    risk: *risk,
                    lookback,
                });
                let s = &mut session?.state;
                // `reply.seq` is `slot + 1`, so the served slot is one
                // less.
                if s.cache_reply(reply.seq.saturating_sub(1), *request_mac, reply) {
                    // The page shown is the highest-seq one served so far
                    // — again independent of apply order.
                    if let Some(last) = s.reply_window.last() {
                        s.current_path.clone_from(&last.reply.page.path);
                    }
                    s.interactions += 1;
                    s.stepups = *stepups as u32;
                    s.consumed_nonces.push(*request_nonce);
                }
                None
            }
            JournalRecord::SessionResumed {
                device_nonce,
                request_mac,
                ack,
            } => {
                self.consumed.mark_consumed(*device_nonce);
                if let Some(session) = self.sessions.get_mut(ack.session_id.as_str()) {
                    session.state.resume_nonces.push(*device_nonce);
                    session.state.consumed_nonces.push(*device_nonce);
                }
                self.resume_cache
                    .insert(*device_nonce, (*request_mac, ack.clone()));
                None
            }
            JournalRecord::SessionTerminated { session_id, .. } => {
                if let Some(session) = self.sessions.get_mut(session_id) {
                    session.state.terminated = true;
                }
                None
            }
            JournalRecord::SessionClosed { session_id, .. } => {
                let closed = self.sessions.remove(session_id)?.state;
                self.login_cache.remove(&closed.login_nonce);
                for n in &closed.resume_nonces {
                    self.resume_cache.remove(n);
                }
                for n in &closed.consumed_nonces {
                    self.consumed.forget_consumed(*n);
                }
                // The session entry plus its login/resume cache entries
                // all left resident state.
                Some((CacheKind::Session, 2 + closed.resume_nonces.len() as u64))
            }
            JournalRecord::IdentityReset { account }
            | JournalRecord::ResetServed { account, .. } => {
                // The binding goes, and with it every live session of the
                // account.
                self.accounts.remove(account);
                for s in self.sessions.values_mut() {
                    if s.account == *account {
                        s.state.terminated = true;
                    }
                }
                let JournalRecord::ResetServed {
                    nonce,
                    request_digest,
                    ..
                } = rec
                else {
                    return None;
                };
                self.consumed.mark_consumed(*nonce);
                let entry = (*request_digest, account.to_string());
                let evicted = self.reset_cache.insert(*nonce, entry, &mut self.consumed);
                Some((CacheKind::Reset, evicted))
            }
        };
        evicted.filter(|&(_, n)| n > 0)
    }

    /// The snapshot: canonical bytes of this state (maps in ascending key
    /// order, LRU caches in eviction order — both deterministic under
    /// replay — so two shards in the same state encode identically).
    /// Session keys are sealed under the recovery key: the snapshot, like
    /// the journal, holds no raw secrets, and sealing is deterministic, so
    /// equal state still means equal bytes.
    pub(super) fn snapshot(&self, id: &ServerIdentity) -> Vec<u8> {
        // One pass: the snapshot is large and its sealing costly.
        let mut bytes = FieldWriter::new();
        let w = &mut bytes;
        w.str(SNAPSHOT_TAG).put(&self.session_counter);
        wire::put_sorted(w, &self.accounts, |w, a| {
            w.bytes(&a.public_key.to_bytes()).put(&a.reset_password);
        });
        wire::put_sorted(w, &self.sessions, |w, s| {
            let sealed = seal_session_key(&id.recovery_key, &s.state.login_nonce, &s.key);
            w.put(&s.account).bytes(&sealed).put(&s.state);
        });
        w.put(&self.reg_cache)
            .put(&self.login_cache)
            .put(&self.resume_cache)
            .put(&self.reset_cache)
            .put(&self.consumed.consumed_sorted())
            .put(&self.audit);
        bytes.finish()
    }

    /// Decodes a whole snapshot, trailing-byte check included; `None`
    /// unless every field decoded and the encoding is the canonical one
    /// (keys ascending, no nonce twice), so restoring and snapshotting
    /// again gives the same bytes.
    pub(super) fn from_snapshot(id: &ServerIdentity, bytes: &[u8]) -> Option<ShardState> {
        let mut r = FieldReader::new(bytes);
        if r.str()? != SNAPSHOT_TAG {
            return None;
        }
        let group = id.keys.public_key().group();
        // Struct fields are read in the order written, the wire order.
        let state = ShardState {
            session_counter: r.get()?,
            accounts: wire::get_sorted(&mut r, |r| {
                let element = U2048::from_be_bytes(&r.array::<{ LIMBS * 8 }>()?);
                Some(AccountRecord {
                    public_key: group
                        .contains(&element)
                        .then(|| PublicKey::from_element(group, element))?,
                    reset_password: r.get()?,
                })
            })?,
            sessions: wire::get_sorted(&mut r, |r| {
                let account = r.get()?;
                // The login nonce that opens the seal follows it.
                let sealed = r.bytes()?;
                let state: SessionState = r.get().filter(|s: &SessionState| s.window >= 1)?;
                let key = open_session_key(&id.recovery_key, &state.login_nonce, sealed)?;
                Some(Session {
                    account,
                    key,
                    state,
                })
            })?,
            reg_cache: r.get()?,
            login_cache: r.get()?,
            resume_cache: r.get()?,
            reset_cache: r.get()?,
            consumed: ReplayGuard::from_consumed(
                r.get::<Vec<Nonce>>()
                    .filter(|c| c.windows(2).all(|p| p[0] < p[1]))?,
            ),
            audit: r.get()?,
        };
        r.is_empty().then_some(state)
    }
}

/// Domain-separation label for sealing session keys into durable state.
const SEAL_LABEL: &[u8] = b"trust-seal-session-key-v1";

/// ChaCha20 stream nonce for sealing: the first 12 bytes of the consumed
/// login nonce, which is unique per login (the replay guard enforces it).
fn seal_stream_nonce(login_nonce: &Nonce) -> [u8; 12] {
    login_nonce.0[..12]
        .try_into()
        .expect("a nonce has 16 bytes")
}

/// Seals a session MAC key for durable storage (journal records and shard
/// snapshots) under the server's recovery key: ChaCha20 keyed by the
/// recovery key with a per-login stream nonce, then an HMAC-SHA256 tag
/// over label, nonce, and ciphertext. The journal therefore never holds a
/// raw session key; a wrong recovery key or tampered record surfaces as
/// `None` from [`open_session_key`], never as silently garbled state.
pub(super) fn seal_session_key(
    recovery_key: &[u8; 32],
    login_nonce: &Nonce,
    key: &[u8],
) -> Vec<u8> {
    let mut sealed =
        btd_crypto::chacha20::encrypt(recovery_key, &seal_stream_nonce(login_nonce), key);
    let tag = seal_tag(recovery_key, login_nonce, &sealed);
    sealed.extend_from_slice(tag.as_bytes());
    sealed
}

/// The seal's HMAC-SHA256 tag over label, login nonce and ciphertext.
fn seal_tag(recovery_key: &[u8; 32], login_nonce: &Nonce, ciphertext: &[u8]) -> Digest {
    let mut tagged = Vec::with_capacity(SEAL_LABEL.len() + 16 + ciphertext.len());
    tagged.extend_from_slice(SEAL_LABEL);
    tagged.extend_from_slice(login_nonce.as_bytes());
    tagged.extend_from_slice(ciphertext);
    hmac_sha256(recovery_key, &tagged)
}

/// Opens a key sealed by [`seal_session_key`]; `None` if the tag does not
/// verify under `recovery_key`.
pub(super) fn open_session_key(
    recovery_key: &[u8; 32],
    login_nonce: &Nonce,
    sealed: &[u8],
) -> Option<Vec<u8>> {
    let (ciphertext, tag) = sealed.split_at(sealed.len().checked_sub(32)?);
    let expect = seal_tag(recovery_key, login_nonce, ciphertext);
    btd_crypto::hmac::constant_time_eq(expect.as_bytes(), tag).then(|| {
        btd_crypto::chacha20::decrypt(recovery_key, &seal_stream_nonce(login_nonce), ciphertext)
    })
}
