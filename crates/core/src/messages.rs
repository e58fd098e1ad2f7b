//! The cookie-extension protocol messages of Figures 9 and 10.
//!
//! "The FLock module relies on cookie extensions for exchanging data with
//! a remote server" — each struct here is one such cookie payload. Every
//! message exposes the canonical bytes its signature or MAC covers, built
//! with [`crate::wire`] so fields cannot be re-split by an attacker.

use std::borrow::Cow;

use btd_crypto::cert::Certificate;
use btd_crypto::elgamal::SealedBox;
use btd_crypto::nonce::Nonce;
use btd_crypto::schnorr::Signature;
use btd_crypto::sha256::{sha256, Digest};

use btd_sim::rng::SimRng;

use crate::channel::{flip_random_bit, NetMessage};
use crate::pages::Page;
use crate::risk_policy::RiskReport;
use crate::wire::signing_bytes;

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

/// Canonical bytes of a sealed box (for inclusion under signatures/MACs).
pub fn sealed_box_bytes(boxed: &SealedBox) -> Vec<u8> {
    signing_bytes("sealed-box-v1", |w| {
        w.bytes(&boxed.ephemeral.to_be_bytes())
            .bytes(&boxed.ciphertext)
            .bytes(&boxed.tag);
    })
}

/// The derived per-slot nonce of the pipelined windowed flow: both ends
/// compute `truncate16(HMAC-SHA256(key, label || seq))` from the session
/// MAC key, so a device can build requests for every slot in its window
/// without waiting for server-issued challenges, and a recovered server
/// needs no resume round to re-learn them. Replay protection does not
/// weaken: the nonce is bound to one slot, and the server's reply-window
/// membership test ensures each slot is served fresh at most once.
pub fn window_nonce(key: &[u8], seq: u64) -> Nonce {
    let mut msg = Vec::with_capacity(29);
    msg.extend_from_slice(b"trust-window-nonce-v1");
    msg.extend_from_slice(&seq.to_be_bytes());
    let tag = btd_crypto::hmac::hmac_sha256(key, &msg);
    let mut n = [0u8; 16];
    n.copy_from_slice(&tag.as_bytes()[..16]);
    Nonce(n)
}

/// Canonical bytes of a risk report.
pub fn risk_report_bytes(r: &RiskReport) -> Vec<u8> {
    signing_bytes("risk-report-v1", |w| {
        w.u64(r.window as u64)
            .u64(r.verified as u64)
            .u64(r.mismatched as u64);
    })
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
                .bytes(&sealed_box_bytes(sealed))
                .bytes(frame_hash.as_bytes())
                .bytes(&risk_report_bytes(risk));
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
#[derive(Clone, PartialEq, Debug)]
pub struct ContentPage {
    /// Session identifier.
    pub session_id: String,
    /// Account the session belongs to.
    pub account: String,
    /// Fresh nonce for the *next* request (`N_WS2`, `N_WS3`, …).
    pub nonce: Nonce,
    /// Sequence number the *next* interaction must carry.
    pub seq: u64,
    /// The page.
    pub page: Page,
    /// HMAC under the session key.
    pub mac: Digest,
}

impl ContentPage {
    /// The bytes the session MAC covers.
    pub fn mac_bytes(
        session_id: &str,
        account: &str,
        nonce: &Nonce,
        seq: u64,
        page: &Page,
    ) -> Vec<u8> {
        signing_bytes("trust-content-v1", |w| {
            w.str(session_id)
                .str(account)
                .bytes(nonce.as_bytes())
                .u64(seq)
                .str(&page.path)
                .bytes(&page.body);
        })
    }
}

/// Device → server: a post-login interaction (Fig. 10, step 4: "for each
/// subsequent user-to-Web-Server interaction, the above process is
/// repeated").
#[derive(Clone, Debug)]
pub struct InteractionRequest {
    /// Session identifier.
    pub session_id: String,
    /// Account.
    pub account: String,
    /// Echo of the nonce from the last content page.
    pub nonce: Nonce,
    /// Per-request sequence number (echo of the last content page's
    /// `seq`); lets the server recognise retransmits idempotently.
    pub seq: u64,
    /// The requested action (link/button identifier).
    pub action: String,
    /// Hash of the frame the user was looking at when they touched.
    pub frame_hash: Digest,
    /// Continuous-auth risk state at the moment of the touch.
    pub risk: RiskReport,
    /// HMAC under the session key.
    pub mac: Digest,
}

impl InteractionRequest {
    /// The bytes the session MAC covers.
    pub fn mac_bytes(
        session_id: &str,
        account: &str,
        nonce: &Nonce,
        seq: u64,
        action: &str,
        frame_hash: &Digest,
        risk: &RiskReport,
    ) -> Vec<u8> {
        signing_bytes("trust-interaction-v1", |w| {
            w.str(session_id)
                .str(account)
                .bytes(nonce.as_bytes())
                .u64(seq)
                .str(action)
                .bytes(frame_hash.as_bytes())
                .bytes(&risk_report_bytes(risk));
        })
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

impl ResumeRequest {
    /// The bytes the session MAC covers.
    pub fn mac_bytes(session_id: &str, account: &str, nonce: &Nonce, last_seq: u64) -> Vec<u8> {
        signing_bytes("trust-resume-v1", |w| {
            w.str(session_id)
                .str(account)
                .bytes(nonce.as_bytes())
                .u64(last_seq);
        })
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

impl ResumeAck {
    /// The bytes the session MAC covers. The optional healed reply is
    /// bound in full (its canonical bytes and its own MAC), so a relay
    /// cannot strip or swap it.
    pub fn mac_bytes(
        session_id: &str,
        account: &str,
        device_nonce: &Nonce,
        nonce: &Nonce,
        seq: u64,
        last_reply: Option<&ContentPage>,
    ) -> Vec<u8> {
        signing_bytes("trust-resume-ack-v1", |w| {
            w.str(session_id)
                .str(account)
                .bytes(device_nonce.as_bytes())
                .bytes(nonce.as_bytes())
                .u64(seq);
            match last_reply {
                Some(r) => {
                    w.u64(1)
                        .bytes(&ContentPage::mac_bytes(
                            &r.session_id,
                            &r.account,
                            &r.nonce,
                            r.seq,
                            &r.page,
                        ))
                        .bytes(r.mac.as_bytes());
                }
                None => {
                    w.u64(0);
                }
            }
        })
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
        let fh = Digest([7; 32]);
        let risk = RiskReport {
            window: 12,
            verified: 2,
            mismatched: 0,
        };
        let base = InteractionRequest::mac_bytes("s", "a", &nonce(1), 3, "pay", &fh, &risk);
        assert_ne!(
            base,
            InteractionRequest::mac_bytes("s", "a", &nonce(1), 3, "pay-all", &fh, &risk)
        );
        assert_ne!(
            base,
            InteractionRequest::mac_bytes("s", "a", &nonce(1), 4, "pay", &fh, &risk),
            "the sequence number must be MAC-covered"
        );
        let worse = RiskReport {
            window: 12,
            verified: 0,
            mismatched: 2,
        };
        assert_ne!(
            base,
            InteractionRequest::mac_bytes("s", "a", &nonce(1), 3, "pay", &fh, &worse)
        );
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

    #[test]
    fn reject_display_is_informative() {
        assert_eq!(Reject::Replay.to_string(), "nonce replayed");
        assert_eq!(Reject::BadMac.to_string(), "bad mac");
    }
}
