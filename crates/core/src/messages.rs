//! The cookie-extension protocol messages of Figures 9 and 10.
//!
//! "The FLock module relies on cookie extensions for exchanging data with
//! a remote server" — each struct here is one such cookie payload. Every
//! message exposes the canonical fields its signature or MAC covers,
//! written with [`crate::wire`] so fields cannot be re-split by an
//! attacker. A signed message builds its bytes; a session-MACed one
//! implements [`Canonical`] and streams its fields into the MAC.

use std::borrow::Cow;
use std::sync::Arc;

use btd_crypto::cert::Certificate;
use btd_crypto::elgamal::SealedBox;
use btd_crypto::hmac::HmacSha256;
use btd_crypto::nonce::Nonce;
use btd_crypto::schnorr::Signature;
use btd_crypto::sha256::{sha256, Digest};

use btd_sim::rng::SimRng;

use crate::channel::{flip_random_bit, NetMessage};
use crate::pages::Page;
use crate::risk_policy::RiskReport;
use crate::wire::{signing_bytes, Canonical, FieldWriter, Sink};

/// Whether the server answered a message by doing new work or from its
/// idempotency cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Freshness {
    /// First delivery: the server advanced state to serve it.
    Fresh,
    /// A byte-identical retransmit: the cached reply was resent and no
    /// state advanced.
    Resent,
    /// A *newer* authentic request arrived while the server still expected
    /// a retransmit of the previous one (the device lost our last reply
    /// and moved on). The cached reply is resent so the device can
    /// re-learn the current nonce/sequence, and no state advanced.
    Resync,
}

/// Server → device: a served page with freshness and authenticity proof
/// (both the registration page of Fig. 9 and the login page of Fig. 10).
#[derive(Clone, Debug)]
pub struct ServerHello {
    /// Serving domain (`www.xyz.com`).
    pub domain: String,
    /// The page content.
    pub page: Page,
    /// Fresh server nonce (`N_WS`).
    pub nonce: Nonce,
    /// The server's CA-signed certificate.
    pub server_cert: Certificate,
    /// Server signature over the hello fields ("MAC … signed by the Web
    /// Server using its private key").
    pub signature: Signature,
}

impl<'a> From<&'a ServerHello> for Cow<'a, ServerHello> {
    fn from(hello: &'a ServerHello) -> Self {
        Cow::Borrowed(hello)
    }
}

impl From<ServerHello> for Cow<'_, ServerHello> {
    fn from(hello: ServerHello) -> Self {
        Cow::Owned(hello)
    }
}

impl ServerHello {
    /// The bytes the server signature covers.
    pub fn signed_bytes(domain: &str, page: &Page, nonce: &Nonce) -> Vec<u8> {
        signing_bytes("trust-server-hello-v1", |w| {
            w.str(domain)
                .str(&page.path)
                .bytes(&page.body)
                .bytes(nonce.as_bytes());
        })
    }
}

/// Device → server: the registration submission of Fig. 9, step 4.
#[derive(Clone, Debug)]
pub struct RegistrationSubmit {
    /// Target domain.
    pub domain: String,
    /// Chosen account identifier.
    pub account: String,
    /// Echo of the server nonce.
    pub nonce: Nonce,
    /// Hash of the registration frame the user actually saw.
    pub frame_hash: Digest,
    /// The fresh per-site user public key (canonical bytes).
    pub user_public: Vec<u8>,
    /// The FLock module's CA-signed certificate.
    pub device_cert: Certificate,
    /// Signature by the FLock device key over the submission.
    pub signature: Signature,
}

impl RegistrationSubmit {
    /// The bytes the device signature covers.
    pub fn signed_bytes(
        domain: &str,
        account: &str,
        nonce: &Nonce,
        frame_hash: &Digest,
        user_public: &[u8],
    ) -> Vec<u8> {
        signing_bytes("trust-registration-v1", |w| {
            w.str(domain)
                .str(account)
                .bytes(nonce.as_bytes())
                .bytes(frame_hash.as_bytes())
                .bytes(user_public);
        })
    }
}

/// A sealed box's fields, nested inside the login signature.
impl Canonical for SealedBox {
    fn fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.str("sealed-box-v1")
            .bytes(&self.ephemeral.to_be_bytes())
            .bytes(&self.ciphertext)
            .bytes(&self.tag);
    }
}

/// The derived per-slot nonce of every session, lock-step or pipelined:
/// both ends compute `truncate16(HMAC-SHA256(key, label || seq))` from
/// the session MAC key, so a device can build requests for every slot in
/// its window without waiting for server-issued challenges, and a
/// recovered server re-issues nothing. Replay protection does not
/// weaken: the nonce is bound to one slot, and the server's reply-window
/// membership test ensures each slot is served fresh at most once.
pub fn window_nonce(key: &[u8], seq: u64) -> Nonce {
    let mut mac = HmacSha256::new(key);
    mac.update(b"trust-window-nonce-v1");
    mac.update(&seq.to_be_bytes());
    let tag = mac.finalize();
    let mut n = [0u8; 16];
    n.copy_from_slice(&tag.as_bytes()[..16]);
    Nonce(n)
}

/// A risk report's fields, nested inside the login signature and the
/// interaction MAC.
impl Canonical for RiskReport {
    fn fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.str("risk-report-v1")
            .u64(self.window as u64)
            .u64(self.verified as u64)
            .u64(self.mismatched as u64);
    }
}

/// Device → server: the login submission of Fig. 10, step 2.
#[derive(Clone, Debug)]
pub struct LoginSubmit {
    /// Target domain.
    pub domain: String,
    /// Account being logged into.
    pub account: String,
    /// Echo of the server's login nonce (`N_WS1`).
    pub nonce: Nonce,
    /// Fresh session key sealed to the server's public key.
    pub sealed_session_key: SealedBox,
    /// Hash of the login frame the user actually saw.
    pub frame_hash: Digest,
    /// The unlock-touch risk state.
    pub risk: RiskReport,
    /// Signature by the account's per-site user key (proves the right
    /// FLock is logging in).
    pub signature: Signature,
}

impl LoginSubmit {
    /// The bytes the user-key signature covers.
    pub fn signed_bytes(
        domain: &str,
        account: &str,
        nonce: &Nonce,
        sealed: &SealedBox,
        frame_hash: &Digest,
        risk: &RiskReport,
    ) -> Vec<u8> {
        signing_bytes("trust-login-v1", |w| {
            w.str(domain)
                .str(account)
                .bytes(nonce.as_bytes())
                .nested(sealed)
                .bytes(frame_hash.as_bytes())
                .nested(risk);
        })
    }
}

/// Server → device: confirmation that a registration submission was
/// bound (Fig. 9, step 5's response leg). Carries no secrets; the nonce
/// echo lets the device match it to its submission.
#[derive(Clone, Debug)]
pub struct RegistrationAck {
    /// Account that was bound.
    pub account: String,
    /// Echo of the submission nonce.
    pub nonce: Nonce,
}

/// Server → device: a content page within a session (Fig. 10, steps 3/4).
/// The names are shared with the session that served the page, so the
/// reply, its journal record and its cached copy reference one string.
#[derive(Clone, PartialEq, Debug)]
pub struct ContentPage {
    /// Session identifier.
    pub session_id: Arc<str>,
    /// Account the session belongs to.
    pub account: Arc<str>,
    /// Fresh nonce for the *next* request (`N_WS2`, `N_WS3`, …).
    pub nonce: Nonce,
    /// Sequence number the *next* interaction must carry.
    pub seq: u64,
    /// The page.
    pub page: Page,
    /// HMAC under the session key.
    pub mac: Digest,
}

/// The fields the session MAC covers: everything but the MAC.
impl Canonical for ContentPage {
    fn fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.str("trust-content-v1")
            .str(&self.session_id)
            .str(&self.account)
            .bytes(self.nonce.as_bytes())
            .u64(self.seq)
            .str(&self.page.path)
            .bytes(&self.page.body);
    }
}

/// Device → server: a post-login interaction (Fig. 10, step 4: "for each
/// subsequent user-to-Web-Server interaction, the above process is
/// repeated"). The names are shared with the device session that signed
/// it, so building and retransmitting a request copies no strings.
#[derive(Clone, Debug)]
pub struct InteractionRequest {
    /// Session identifier.
    pub session_id: Arc<str>,
    /// Account.
    pub account: Arc<str>,
    /// Echo of the nonce from the last content page.
    pub nonce: Nonce,
    /// Per-request sequence number (echo of the last content page's
    /// `seq`); lets the server recognise retransmits idempotently.
    pub seq: u64,
    /// The requested action (link/button identifier).
    pub action: Arc<str>,
    /// Hash of the frame the user was looking at when they touched.
    pub frame_hash: Digest,
    /// Continuous-auth risk state at the moment of the touch.
    pub risk: RiskReport,
    /// HMAC under the session key.
    pub mac: Digest,
}

/// The fields the session MAC covers: everything but the MAC, the risk
/// report nested as one field.
impl Canonical for InteractionRequest {
    fn fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.str("trust-interaction-v1")
            .str(&self.session_id)
            .str(&self.account)
            .bytes(self.nonce.as_bytes())
            .u64(self.seq)
            .str(&self.action)
            .bytes(self.frame_hash.as_bytes())
            .nested(&self.risk);
    }
}

/// Device → server: re-attach to a session across a server restart. The
/// device cannot echo a server nonce — the process that issued the last
/// one is gone — so it proves liveness with a fresh nonce of its own and
/// a MAC under the session key over its last acknowledged sequence
/// number.
#[derive(Clone, Debug)]
pub struct ResumeRequest {
    /// Session to resume.
    pub session_id: String,
    /// Account the session belongs to.
    pub account: String,
    /// Fresh device-chosen nonce (replay protection for the resume
    /// itself).
    pub nonce: Nonce,
    /// Highest content-page sequence number the device has accepted.
    pub last_seq: u64,
    /// HMAC under the session key.
    pub mac: Digest,
}

/// The fields the session MAC covers: everything but the MAC.
impl Canonical for ResumeRequest {
    fn fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.str("trust-resume-v1")
            .str(&self.session_id)
            .str(&self.account)
            .bytes(self.nonce.as_bytes())
            .u64(self.last_seq);
    }
}

/// Server → device: resumption accepted. Re-issues the session's current
/// challenge nonce and sequence number; if the device was one reply
/// behind (the reply died with the crashed process), the cached reply
/// rides along so the interaction is never served twice.
#[derive(Clone, PartialEq, Debug)]
pub struct ResumeAck {
    /// Session that was resumed.
    pub session_id: String,
    /// Account.
    pub account: String,
    /// Echo of the device's resume nonce (binds ack to request).
    pub device_nonce: Nonce,
    /// The current challenge nonce for the next interaction.
    pub nonce: Nonce,
    /// The sequence number the next fresh interaction must carry.
    pub seq: u64,
    /// The last served reply, when the device reported it never arrived.
    pub last_reply: Option<ContentPage>,
    /// HMAC under the session key.
    pub mac: Digest,
}

/// The fields the session MAC covers: everything but the MAC. The
/// optional healed reply is bound in full (its nested fields and its own
/// MAC), so a relay cannot strip or swap it.
impl Canonical for ResumeAck {
    fn fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.str("trust-resume-ack-v1")
            .str(&self.session_id)
            .str(&self.account)
            .bytes(self.device_nonce.as_bytes())
            .bytes(self.nonce.as_bytes())
            .u64(self.seq);
        match &self.last_reply {
            Some(r) => {
                w.u64(1).nested(r).bytes(r.mac.as_bytes());
            }
            None => {
                w.u64(0);
            }
        }
    }
}

/// Device → server: the identity-reset request of §IV carried over the
/// wire. Authenticated by the out-of-band fallback password (the device
/// that held the key is lost), made idempotent by a fresh request nonce.
#[derive(Clone, Debug)]
pub struct ResetRequest {
    /// Target domain.
    pub domain: String,
    /// Account whose binding should be removed.
    pub account: String,
    /// The fallback reset password.
    pub password: String,
    /// Fresh device-chosen nonce (idempotency key).
    pub nonce: Nonce,
}

impl ResetRequest {
    /// A digest of the full request, used by the server's idempotency
    /// cache to tell a retransmit from a different request reusing the
    /// nonce.
    pub fn request_digest(&self) -> Digest {
        sha256(&signing_bytes("trust-reset-v1", |w| {
            w.str(&self.domain)
                .str(&self.account)
                .str(&self.password)
                .bytes(self.nonce.as_bytes());
        }))
    }
}

/// Server → device: the identity binding was removed.
#[derive(Clone, Debug)]
pub struct ResetAck {
    /// Account whose binding was removed.
    pub account: String,
    /// Echo of the request nonce.
    pub nonce: Nonce,
}

// --- Fault-injection support -----------------------------------------------
//
// Every wire message can be damaged in transit. Corruption targets a field
// the protocol integrity-protects (MAC, signature-covered nonce), so a
// flipped bit always surfaces as a verification failure rather than as
// silently altered content — which is the property the experiments measure.

impl NetMessage for ServerHello {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.nonce.0, rng);
    }
}

impl NetMessage for RegistrationSubmit {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.nonce.0, rng);
    }
}

impl NetMessage for LoginSubmit {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.nonce.0, rng);
    }
}

impl NetMessage for RegistrationAck {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.nonce.0, rng);
    }
}

impl NetMessage for ContentPage {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.mac.0, rng);
    }
}

impl NetMessage for InteractionRequest {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.mac.0, rng);
    }
}

impl NetMessage for ResumeRequest {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.mac.0, rng);
    }
}

impl NetMessage for ResumeAck {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.mac.0, rng);
    }
}

impl NetMessage for ResetRequest {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.nonce.0, rng);
    }
}

impl NetMessage for ResetAck {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.nonce.0, rng);
    }
}

/// Why a server rejected a message (each maps to a security property the
/// paper's §IV-B analysis claims).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Reject {
    /// Certificate failed CA verification.
    BadCertificate,
    /// A signature failed verification (tampering or wrong key).
    BadSignature,
    /// A session MAC failed verification.
    BadMac,
    /// The nonce was already consumed — a replay.
    Replay,
    /// The nonce was never issued by this server.
    UnknownNonce,
    /// The account does not exist or has no key binding.
    UnknownAccount,
    /// The account name is already bound.
    AccountExists,
    /// The session id is unknown or already terminated.
    UnknownSession,
    /// The session key could not be unsealed.
    BadSessionKey,
    /// The risk policy terminated the session.
    RiskTerminated,
    /// Identity-reset credential (fallback password) was wrong.
    BadResetCredential,
    /// The server process crashed before answering. Not a protocol
    /// verdict: the request may or may not have been applied, and the
    /// device should retry after the server recovers.
    ServerCrashed,
    /// Storage is under pressure (log partition near or at capacity): the
    /// server sheds state-growing work — new registrations, and any record
    /// even emergency compaction could not make durable — until pressure
    /// clears. The request was not applied; retry later.
    StorageDegraded,
    /// The account's shard is quarantined read-only: recovery found a
    /// sealed journal segment whose certificate no longer verifies, so
    /// mutations are refused until the operator intervenes.
    ShardQuarantined,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Reject::BadCertificate => "bad certificate",
            Reject::BadSignature => "bad signature",
            Reject::BadMac => "bad mac",
            Reject::Replay => "nonce replayed",
            Reject::UnknownNonce => "nonce unknown",
            Reject::UnknownAccount => "unknown account",
            Reject::AccountExists => "account exists",
            Reject::UnknownSession => "unknown session",
            Reject::BadSessionKey => "bad session key",
            Reject::RiskTerminated => "risk policy terminated session",
            Reject::BadResetCredential => "bad reset credential",
            Reject::ServerCrashed => "server crashed",
            Reject::StorageDegraded => "storage degraded",
            Reject::ShardQuarantined => "shard quarantined",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Reject {}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_crypto::bignum::U2048;
    use btd_crypto::hmac::hmac_sha256;

    fn nonce(b: u8) -> Nonce {
        Nonce([b; 16])
    }

    #[test]
    fn hello_bytes_bind_all_fields() {
        let page = Page::new("/register", b"form".to_vec());
        let base = ServerHello::signed_bytes("www.xyz.com", &page, &nonce(1));
        assert_ne!(
            base,
            ServerHello::signed_bytes("www.evil.com", &page, &nonce(1))
        );
        assert_ne!(
            base,
            ServerHello::signed_bytes("www.xyz.com", &page, &nonce(2))
        );
        let other = Page::new("/register", b"evil form".to_vec());
        assert_ne!(
            base,
            ServerHello::signed_bytes("www.xyz.com", &other, &nonce(1))
        );
    }

    #[test]
    fn registration_bytes_bind_key_and_frame() {
        let fh = Digest([7; 32]);
        let base = RegistrationSubmit::signed_bytes("d", "a", &nonce(1), &fh, &[1, 2, 3]);
        assert_ne!(
            base,
            RegistrationSubmit::signed_bytes("d", "a", &nonce(1), &fh, &[1, 2, 4])
        );
        assert_ne!(
            base,
            RegistrationSubmit::signed_bytes("d", "a", &nonce(1), &Digest([8; 32]), &[1, 2, 3])
        );
    }

    /// A sealed box's canonical bytes, as the login signature nests them.
    fn sealed_box_bytes(boxed: &SealedBox) -> Vec<u8> {
        let mut w = FieldWriter::new();
        boxed.fields(&mut w);
        w.finish()
    }

    #[test]
    fn sealed_box_bytes_cover_every_component() {
        let mk = |eph: u64, ct: &[u8], tag: u8| SealedBox {
            ephemeral: U2048::from_u64(eph),
            ciphertext: ct.to_vec(),
            tag: [tag; 32],
        };
        let base = sealed_box_bytes(&mk(1, b"ct", 1));
        assert_ne!(base, sealed_box_bytes(&mk(2, b"ct", 1)));
        assert_ne!(base, sealed_box_bytes(&mk(1, b"cx", 1)));
        assert_ne!(base, sealed_box_bytes(&mk(1, b"ct", 2)));
    }

    #[test]
    fn interaction_bytes_bind_action_and_risk() {
        let risk = RiskReport {
            window: 12,
            verified: 2,
            mismatched: 0,
        };
        let base = interaction(7, risk);
        let tag = |r: &InteractionRequest| crate::wire::mac(KEY, r);
        let mut other = base.clone();
        other.action = "pay-all".into();
        assert_ne!(tag(&base), tag(&other));
        let mut other = base.clone();
        other.seq = 8;
        assert_ne!(
            tag(&base),
            tag(&other),
            "the sequence number must be MAC-covered"
        );
        let worse = RiskReport {
            window: 12,
            verified: 0,
            mismatched: 2,
        };
        assert_ne!(tag(&base), tag(&interaction(7, worse)));
    }

    #[test]
    fn corruption_is_detectable_and_deterministic() {
        let mut rng_a = SimRng::seed_from(31);
        let mut rng_b = SimRng::seed_from(31);
        let clean = ContentPage {
            session_id: "s".into(),
            account: "a".into(),
            nonce: nonce(1),
            seq: 0,
            page: Page::new("/home", b"hi".to_vec()),
            mac: Digest([5; 32]),
        };
        let mut damaged_a = clean.clone();
        damaged_a.corrupt(&mut rng_a);
        let mut damaged_b = clean.clone();
        damaged_b.corrupt(&mut rng_b);
        assert_ne!(damaged_a.mac, clean.mac, "corruption must hit the MAC");
        assert_eq!(damaged_a.mac, damaged_b.mac, "corruption must be seeded");
    }

    const KEY: &[u8] = b"kat-session-key";

    fn interaction(seq: u64, risk: RiskReport) -> InteractionRequest {
        InteractionRequest {
            session_id: "sess-1-00ff".into(),
            account: "alice".into(),
            nonce: nonce(0x11),
            seq,
            action: "/pay".into(),
            frame_hash: Digest([0x22; 32]),
            risk,
            mac: Digest([0; 32]),
        }
    }

    fn content() -> ContentPage {
        ContentPage {
            session_id: "sess-1-00ff".into(),
            account: "alice".into(),
            nonce: nonce(0x33),
            seq: 8,
            page: Page::new("/pay", b"<pay form>".to_vec()),
            mac: Digest([0x44; 32]),
        }
    }

    fn resume_ack(last_reply: Option<ContentPage>) -> ResumeAck {
        ResumeAck {
            session_id: "sess-1-00ff".into(),
            account: "alice".into(),
            device_nonce: nonce(0x55),
            nonce: nonce(0x66),
            seq: 9,
            last_reply,
            mac: Digest([0; 32]),
        }
    }

    // The oracles: each message's MAC input built as a buffer, the
    // layout written out field by field, then MACed in one shot.

    fn risk_bytes(r: &RiskReport) -> Vec<u8> {
        signing_bytes("risk-report-v1", |w| {
            w.u64(r.window as u64)
                .u64(r.verified as u64)
                .u64(r.mismatched as u64);
        })
    }

    fn content_bytes(c: &ContentPage) -> Vec<u8> {
        signing_bytes("trust-content-v1", |w| {
            w.str(&c.session_id)
                .str(&c.account)
                .bytes(c.nonce.as_bytes())
                .u64(c.seq)
                .str(&c.page.path)
                .bytes(&c.page.body);
        })
    }

    pub(super) fn interaction_oracle(key: &[u8], r: &InteractionRequest) -> Digest {
        let risk = risk_bytes(&r.risk);
        hmac_sha256(
            key,
            &signing_bytes("trust-interaction-v1", |w| {
                w.str(&r.session_id)
                    .str(&r.account)
                    .bytes(r.nonce.as_bytes())
                    .u64(r.seq)
                    .str(&r.action)
                    .bytes(r.frame_hash.as_bytes())
                    .bytes(&risk);
            }),
        )
    }

    pub(super) fn content_oracle(key: &[u8], c: &ContentPage) -> Digest {
        hmac_sha256(key, &content_bytes(c))
    }

    pub(super) fn resume_oracle(key: &[u8], r: &ResumeRequest) -> Digest {
        hmac_sha256(
            key,
            &signing_bytes("trust-resume-v1", |w| {
                w.str(&r.session_id)
                    .str(&r.account)
                    .bytes(r.nonce.as_bytes())
                    .u64(r.last_seq);
            }),
        )
    }

    pub(super) fn ack_oracle(key: &[u8], a: &ResumeAck) -> Digest {
        let last_reply = a.last_reply.as_ref().map(|r| (content_bytes(r), r.mac));
        hmac_sha256(
            key,
            &signing_bytes("trust-resume-ack-v1", |w| {
                w.str(&a.session_id)
                    .str(&a.account)
                    .bytes(a.device_nonce.as_bytes())
                    .bytes(a.nonce.as_bytes())
                    .u64(a.seq);
                match &last_reply {
                    Some((content, mac)) => {
                        w.u64(1).bytes(content).bytes(mac.as_bytes());
                    }
                    None => {
                        w.u64(0);
                    }
                }
            }),
        )
    }

    pub(super) fn window_nonce_oracle(key: &[u8], seq: u64) -> Nonce {
        let mut msg = b"trust-window-nonce-v1".to_vec();
        msg.extend_from_slice(&seq.to_be_bytes());
        Nonce(hmac_sha256(key, &msg).as_bytes()[..16].try_into().unwrap())
    }

    /// Tags computed with the buffered encoders the streamed ones
    /// replaced: the wire layout of every session MAC is frozen.
    #[test]
    fn session_macs_match_known_answers() {
        let risk = RiskReport {
            window: 12,
            verified: 9,
            mismatched: 1,
        };
        assert_eq!(risk_bytes(&risk).len(), 54);
        let resume = ResumeRequest {
            session_id: "sess-1-00ff".into(),
            account: "alice".into(),
            nonce: nonce(0x55),
            last_seq: 8,
            mac: Digest([0; 32]),
        };
        let cases = [
            (
                crate::wire::mac(KEY, &interaction(7, risk)),
                interaction_oracle(KEY, &interaction(7, risk)),
                "735f4938d3a3553d20ce7a78e65b0f00ae046cd08eca80ea822ea71259c0e4d0",
            ),
            (
                crate::wire::mac(KEY, &content()),
                content_oracle(KEY, &content()),
                "fd9dd0e658c380e6ccb4ed8b0d605fbc452771669eb46fd5bab066b7aa135ec2",
            ),
            (
                crate::wire::mac(KEY, &resume),
                resume_oracle(KEY, &resume),
                "bd6eadc25ac19c00b82d15e5cdf3a662632c3bc2a5efa45ab568655fded238e8",
            ),
            (
                crate::wire::mac(KEY, &resume_ack(Some(content()))),
                ack_oracle(KEY, &resume_ack(Some(content()))),
                "6773ab9a1f47659854053d54c8bc5258cfbcb096d8e0d8810cb8901f5aeca5e6",
            ),
            (
                crate::wire::mac(KEY, &resume_ack(None)),
                ack_oracle(KEY, &resume_ack(None)),
                "378c955445be231817ffd11b85daf1918a282bedf0cb707c3759741629c96217",
            ),
        ];
        for (streamed, oracle, known) in cases {
            assert_eq!(streamed.to_hex(), known);
            assert_eq!(oracle.to_hex(), known);
        }
        let known = [
            0x6d, 0x01, 0xc3, 0x8f, 0xe0, 0x38, 0x66, 0x73, 0xd9, 0x66, 0xae, 0xe0, 0xfe, 0xf2,
            0x1c, 0xcf,
        ];
        assert_eq!(window_nonce(KEY, 9).0, known);
        assert_eq!(window_nonce_oracle(KEY, 9).0, known);
    }

    #[test]
    fn mac_matches_rejects_a_flipped_tag() {
        let mut page = content();
        page.mac = crate::wire::mac(KEY, &page);
        assert!(crate::wire::mac_matches(KEY, &page, &page.mac));
        let mut bad = page.mac;
        bad.0[31] ^= 1;
        assert!(!crate::wire::mac_matches(KEY, &page, &bad));
        assert!(!crate::wire::mac_matches(b"other key", &page, &page.mac));
    }

    #[test]
    fn reject_display_is_informative() {
        assert_eq!(Reject::Replay.to_string(), "nonce replayed");
        assert_eq!(Reject::BadMac.to_string(), "bad mac");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn text(b: &[u8]) -> String {
        String::from_utf8_lossy(b).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every streamed session MAC equals HMAC over the buffered
        /// canonical bytes, for arbitrary fields and keys (including keys
        /// longer than a block, which HMAC hashes first).
        #[test]
        fn streamed_macs_equal_the_buffered_oracle(
            key in proptest::collection::vec(any::<u8>(), 0..80),
            ids in (
                proptest::collection::vec(any::<u8>(), 0..24),
                proptest::collection::vec(any::<u8>(), 0..24),
                proptest::collection::vec(any::<u8>(), 0..24),
            ),
            nums in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>()),
            digests in (
                proptest::collection::vec(any::<u8>(), 16..17),
                proptest::collection::vec(any::<u8>(), 16..17),
                proptest::collection::vec(any::<u8>(), 32..33),
            ),
            page in (
                proptest::collection::vec(any::<u8>(), 0..16),
                proptest::collection::vec(any::<u8>(), 0..200),
                proptest::collection::vec(any::<u8>(), 32..33),
            ),
            healed in any::<bool>(),
        ) {
            let n1 = Nonce(digests.0[..].try_into().unwrap());
            let n2 = Nonce(digests.1[..].try_into().unwrap());
            let hash = Digest(digests.2[..].try_into().unwrap());
            let risk = RiskReport {
                window: nums.2,
                verified: nums.3,
                mismatched: nums.4,
            };
            let request = InteractionRequest {
                session_id: text(&ids.0).into(),
                account: text(&ids.1).into(),
                nonce: n1,
                seq: nums.0,
                action: text(&ids.2).into(),
                frame_hash: hash,
                risk,
                mac: hash,
            };
            prop_assert_eq!(
                crate::wire::mac(&key, &request),
                tests::interaction_oracle(&key, &request)
            );
            let content = ContentPage {
                session_id: text(&ids.0).into(),
                account: text(&ids.1).into(),
                nonce: n2,
                seq: nums.1,
                page: Page::new(&text(&page.0), page.1.clone()),
                mac: Digest(page.2[..].try_into().unwrap()),
            };
            prop_assert_eq!(
                crate::wire::mac(&key, &content),
                tests::content_oracle(&key, &content)
            );
            let resume = ResumeRequest {
                session_id: text(&ids.0),
                account: text(&ids.1),
                nonce: n1,
                last_seq: nums.0,
                mac: hash,
            };
            prop_assert_eq!(
                crate::wire::mac(&key, &resume),
                tests::resume_oracle(&key, &resume)
            );
            let ack = ResumeAck {
                session_id: text(&ids.0),
                account: text(&ids.2),
                device_nonce: n1,
                nonce: n2,
                seq: nums.1,
                last_reply: healed.then_some(content),
                mac: hash,
            };
            prop_assert_eq!(crate::wire::mac(&key, &ack), tests::ack_oracle(&key, &ack));
            prop_assert_eq!(
                window_nonce(&key, nums.0),
                tests::window_nonce_oracle(&key, nums.0)
            );
        }
    }
}
