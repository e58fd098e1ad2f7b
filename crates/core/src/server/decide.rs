//! Decide, then commit (DESIGN §22). After admission, a `decide_*`
//! function validates the message over the [`ServerIdentity`] and a
//! read-only [`ShardState`], changing only never-journaled draws
//! ([`Ephemeral`]: entropy, challenges, the risk histogram), and returns a
//! [`Decision`]. `WebServer::commit` then journals, syncs and applies its
//! record, trips the before-reply crash point on the way to an `Ok`
//! answer, and counts every refusal.

use std::sync::Arc;

use btd_crypto::bignum::{LIMBS, U2048};
use btd_crypto::cert::Role;
use btd_crypto::entropy::EntropySource;
use btd_crypto::nonce::Nonce;
use btd_crypto::schnorr::PublicKey;
use btd_crypto::sha256::Digest;

use crate::messages::{
    window_nonce, ContentPage, Freshness, InteractionRequest, LoginSubmit, RegistrationAck,
    RegistrationSubmit, Reject, ResetAck, ResetRequest, ResumeAck, ResumeRequest,
};
use crate::risk_policy::RiskDecision;
use crate::wire;

use super::journal::JournalRecord;
use super::state::{seal_session_key, ShardState};
use super::{Ephemeral, ServerIdentity};

/// What a handler decided over a read-only shard, before anything is
/// journaled. [`WebServer::commit`] carries it out.
#[derive(Debug)]
pub(super) enum Decision<R> {
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
pub(super) trait Reply {
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
pub(super) fn decide_registration(
    id: &ServerIdentity,
    shard: &ShardState,
    eph: &mut Ephemeral,
    msg: &RegistrationSubmit,
) -> Result<Decision<(RegistrationAck, Freshness)>, Reject> {
    if let Some((sig, account)) = shard.reg_cache.get(&msg.nonce) {
        if *sig == msg.signature {
            let ack = RegistrationAck {
                account: account.clone(),
                nonce: msg.nonce,
            };
            return Ok(Decision::Answer((ack, Freshness::Resent)));
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
    // Honest keys are `g^x`. A key wider than 2048 bits, or of order 2
    // or 2q (`p−1`, `−g^x`), is refused like a bad signature: the subgroup
    // test is a Jacobi symbol, cheaper than the signature check above.
    if msg.user_public.len() > LIMBS * 8 {
        return Err(Reject::BadSignature);
    }
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
pub(super) fn decide_login(
    id: &ServerIdentity,
    shard: &ShardState,
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

    // Only `ShardState::apply` advances the counters, so the live path
    // and journal replay agree on the session id.
    let mut tag = [0u8; 16];
    eph.entropy.fill(&mut tag);
    let session_id: Arc<str> = Arc::from(format!("sess-{}-{}", opened + 1, Nonce(tag)));
    let home = id.pages.get("/home").expect("home page").page.clone();
    let mut reply = ContentPage {
        session_id,
        account: Arc::clone(account),
        nonce: window_nonce(&session_key, 0),
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
pub(super) fn decide_interaction(
    id: &ServerIdentity,
    shard: &ShardState,
    eph: &mut Ephemeral,
    msg: &InteractionRequest,
) -> Result<Decision<(ContentPage, Freshness)>, Reject> {
    let s = match shard.sessions.get(&msg.session_id) {
        Some(s) if !s.state.terminated && s.account == msg.account => s,
        _ => return Err(Reject::UnknownSession),
    };
    let mac_ok = || wire::mac_matches(&s.key, msg, &msg.mac);
    if let Some(cache) = s.state.window_reply(msg.seq) {
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
    let base = s.state.expected_seq;
    if msg.seq < base {
        // Served long enough ago that the cache evicted it; an honest
        // device cannot still be retransmitting this slot.
        return Err(Reject::Replay);
    }
    if msg.seq >= base.saturating_add(s.state.window) {
        return Err(Reject::UnknownNonce);
    }
    // Both nonces derive from the key (no entropy draw, so serving the
    // same slot set in any order leaves identical durable state).
    if msg.nonce != window_nonce(&s.key, msg.seq) {
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
    let stepups = match id.policy.evaluate(&msg.risk, s.state.stepups) {
        RiskDecision::Terminate => {
            let record = JournalRecord::SessionTerminated {
                session_id: msg.session_id.clone(),
                account: msg.account.clone(),
            };
            return Ok(Decision::CommitThenRefuse(record, Reject::RiskTerminated));
        }
        RiskDecision::StepUp => s.state.stepups + 1,
        _ => 0,
    };

    // The page to serve next (unknown actions bounce to home).
    let page = id
        .pages
        .get(&*msg.action)
        .or_else(|| id.pages.get("/home"))
        .expect("home page")
        .page
        .clone();
    let mut reply = ContentPage {
        session_id: msg.session_id.clone(),
        account: msg.account.clone(),
        nonce: window_nonce(&s.key, msg.seq + 1),
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
        expected_path: s.state.current_path.clone(),
        stepups: u64::from(stepups),
        reply,
    }))
}

/// Resume: an ack with the base slot's nonce and any reply the device
/// missed.
pub(super) fn decide_resume(
    shard: &ShardState,
    msg: &ResumeRequest,
) -> Result<Decision<(ResumeAck, Freshness)>, Reject> {
    if let Some((mac, ack)) = shard.resume_cache.get(&msg.nonce) {
        if *mac == msg.mac {
            return Ok(Decision::Answer((ack.clone(), Freshness::Resent)));
        }
    }
    let s = match shard.sessions.get(msg.session_id.as_str()) {
        Some(s) if !s.state.terminated && *s.account == *msg.account => s,
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
    let base = s.state.expected_seq;
    let last_reply = if msg.last_seq == base {
        // Fully in sync; the device just needs the current nonce.
        None
    } else if msg.last_seq.checked_add(1) == Some(base) {
        // Behind by one with no cached reply: nothing to heal with, the
        // device must treat the session as lost.
        let cache = s.state.window_reply(msg.last_seq);
        Some(cache.ok_or(Reject::UnknownSession)?.reply.clone())
    } else if msg.last_seq < base {
        return Err(Reject::Replay);
    } else {
        // The device claims acks from the future.
        return Err(Reject::UnknownNonce);
    };
    let mut ack = ResumeAck {
        session_id: msg.session_id.clone(),
        account: msg.account.clone(),
        device_nonce: msg.nonce,
        nonce: window_nonce(&s.key, base),
        seq: base,
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
pub(super) fn decide_reset(
    id: &ServerIdentity,
    shard: &ShardState,
    eph: &mut Ephemeral,
    msg: &ResetRequest,
) -> Result<Decision<(ResetAck, Freshness)>, Reject> {
    let digest = msg.request_digest();
    if let Some((d, account)) = shard.reset_cache.get(&msg.nonce) {
        if *d == digest {
            let ack = ResetAck {
                account: account.clone(),
                nonce: msg.nonce,
            };
            return Ok(Decision::Answer((ack, Freshness::Resent)));
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
pub(super) fn decide_identity_reset(
    shard: &ShardState,
    account: &str,
    password: &str,
) -> Result<Decision<()>, Reject> {
    check_reset_password(shard, account, password)?;
    Ok(Decision::Commit(JournalRecord::IdentityReset {
        account: Arc::from(account),
    }))
}

/// The fallback-credential check both reset forms share.
fn check_reset_password(shard: &ShardState, account: &str, password: &str) -> Result<(), Reject> {
    match shard.accounts.get(account) {
        None => Err(Reject::UnknownAccount),
        Some(record) if record.reset_password != password => Err(Reject::BadResetCredential),
        Some(_) => Ok(()),
    }
}

/// Close: a `SessionClosed` record, or `false` for a session not open.
pub(super) fn decide_close(
    shard: &ShardState,
    account: &str,
    session_id: &str,
) -> Result<Decision<bool>, Reject> {
    Ok(match shard.sessions.get_key_value(session_id) {
        Some((id, s)) if *s.account == *account => Decision::Commit(JournalRecord::SessionClosed {
            session_id: Arc::clone(id),
            account: Arc::clone(&s.account),
        }),
        _ => Decision::Answer(false),
    })
}
