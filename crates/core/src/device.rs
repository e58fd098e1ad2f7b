//! The mobile device: an untrusted host stack in front of a FLock module.
//!
//! Per the paper's threat model (§IV-B assumption i), "only the FLock
//! module as well as the Web Server are secure; the mobile device software
//! stack and browser … may be monitored or under the control of a remote
//! attacker through malware. The encryptions and authentication steps take
//! place in the FLock module." [`MobileDevice`] models that split: the
//! session keys and signing keys never leave the [`FlockModule`]; the
//! "browser" only shuttles opaque messages and chooses what to display —
//! which is exactly the power a malware infection has, and no more.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use btd_crypto::cert::Role;
use btd_crypto::nonce::Nonce;
use btd_crypto::sha256::Digest;
use btd_flock::framehash::DisplayFrame;
use btd_flock::module::FlockModule;
use btd_flock::pipeline::TouchAuthOutcome;
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;
use btd_workload::session::TouchSample;

use crate::messages::{
    window_nonce, ContentPage, InteractionRequest, LoginSubmit, RegistrationSubmit, ResumeAck,
    ResumeRequest, ServerHello,
};
use crate::pages::{Page, View};
use crate::risk_policy::RiskReport;
use crate::trace::{EventKind, Tracer};
use crate::wire;

/// A server hello that passed [`MobileDevice::check_hello`]: its
/// certificate chains to the provisioned CA, names a web server for the
/// hello's domain, and signs the hello. Only `check_hello` makes one.
#[derive(Debug)]
pub struct CheckedHello<'a>(Cow<'a, ServerHello>);

impl Deref for CheckedHello<'_> {
    type Target = ServerHello;

    fn deref(&self) -> &ServerHello {
        &self.0
    }
}

/// Why a device-side protocol step failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceError {
    /// The server certificate did not verify against the provisioned CA.
    UntrustedServer,
    /// The server's hello signature failed.
    BadServerSignature,
    /// The owner's explicit touch failed biometric verification.
    BiometricRejected,
    /// No registered identity for the domain.
    UnknownDomain,
    /// No live session for the domain.
    NoSession,
    /// A content page's MAC failed under the session key.
    BadServerMac,
    /// Protected storage is full.
    StorageFull,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceError::UntrustedServer => "server certificate untrusted",
            DeviceError::BadServerSignature => "server signature invalid",
            DeviceError::BiometricRejected => "biometric verification failed",
            DeviceError::UnknownDomain => "no identity for domain",
            DeviceError::NoSession => "no live session",
            DeviceError::BadServerMac => "server mac invalid",
            DeviceError::StorageFull => "protected storage full",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DeviceError {}

/// How a verified reply reconciled into the device's window
/// (see [`MobileDevice::accept_windowed_content`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WindowAccept {
    /// The reply was for the base slot and applied, together with any
    /// buffered out-of-order successors it unlocked.
    Applied {
        /// Total slots applied (>= 1).
        applied: u64,
    },
    /// The reply is ahead of the base; verified and buffered until the
    /// slots before it arrive.
    Buffered,
    /// The reply is behind the base (or outside the window entirely):
    /// authentic, but already superseded — ignored.
    Stale,
}

/// FLock-held session state for one domain. The names are shared with
/// every request the session signs.
struct DeviceSession {
    /// The server's session id, adopted from the first content page
    /// (`None` until it arrives).
    session_id: Option<Arc<str>>,
    /// The account the session logged in as.
    account: Arc<str>,
    key: Vec<u8>,
    /// The cumulative-ack base, echoed from the last applied content
    /// page: the lowest slot whose reply has not been applied yet, which
    /// is the slot a lock-step request carries.
    next_seq: u64,
    current_page: Page,
    /// The nonce of an in-flight resume request, so the matching ack can
    /// be recognised (and a stale or unsolicited one rejected).
    pending_resume: Option<Nonce>,
    /// Interaction window, the session's credit (1 = lock-step
    /// stop-and-wait).
    window: u64,
    /// Verified in-window replies that arrived ahead of the base, sorted
    /// by seq; drained as the base catches up.
    ooo_replies: Vec<ContentPage>,
}

// `key` is the FLock-side session MAC key and must never appear in logs,
// even on a debug build of the device model.
impl std::fmt::Debug for DeviceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSession")
            .field("session_id", &self.session_id)
            .field(
                "key",
                &format_args!("<{}-byte key redacted>", self.key.len()),
            )
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

/// A mobile device.
#[derive(Debug)]
pub struct MobileDevice {
    name: String,
    flock: FlockModule,
    sessions: HashMap<String, DeviceSession>,
    /// Set when malware controls the browser's display path.
    spoofed_page: Option<Page>,
    /// The frame every page is rendered into, kept so each render reuses
    /// its buffer.
    frame: DisplayFrame,
    tracer: Tracer,
}

/// Maximum owner-touch retries for explicit (register/login) verification.
const EXPLICIT_TOUCH_RETRIES: u32 = 6;

impl MobileDevice {
    /// Creates a device around a FLock module.
    pub fn new(name: &str, flock: FlockModule) -> Self {
        MobileDevice {
            name: name.to_owned(),
            flock,
            sessions: HashMap::new(),
            spoofed_page: None,
            frame: DisplayFrame::new(Vec::new(), 0, 0),
            tracer: Tracer::disabled(),
        }
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a tracer; content acceptances and session re-joins are
    /// recorded as device-side point events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The FLock module.
    pub fn flock(&self) -> &FlockModule {
        &self.flock
    }

    /// The FLock module, mutable (enrollment, provisioning).
    pub fn flock_mut(&mut self) -> &mut FlockModule {
        &mut self.flock
    }

    /// Installs a malware display spoof: every subsequent page render shows
    /// `fake` to the user instead of the genuine page. The display
    /// repeater hashes what is *actually* shown, which is how the audit
    /// catches this.
    pub fn infect_display(&mut self, fake: Page) {
        self.spoofed_page = Some(fake);
    }

    /// Removes the display malware.
    pub fn disinfect(&mut self) {
        self.spoofed_page = None;
    }

    /// Renders a page into `frame` and through the FLock display
    /// repeater, honouring any active display malware (`spoofed`);
    /// returns the frame hash of what the user saw. It takes the fields it
    /// needs rather than `self`, so a page borrowed from a session is
    /// shown in place.
    fn display(
        flock: &mut FlockModule,
        frame: &mut DisplayFrame,
        spoofed: Option<&Page>,
        page: &Page,
    ) -> Digest {
        let shown = spoofed.unwrap_or(page);
        shown.render_into(View::default(), frame);
        flock.relay_frame(frame).0
    }

    /// [`MobileDevice::display`] of the session page at `domain`.
    fn display_session(&mut self, domain: &str) -> Digest {
        let page = &self.sessions[domain].current_page;
        Self::display(
            &mut self.flock,
            &mut self.frame,
            self.spoofed_page.as_ref(),
            page,
        )
    }

    /// Validates a server hello inside FLock: CA-chain the certificate,
    /// check the role, and verify the hello signature. The returned
    /// [`CheckedHello`] is the proof the registration and login steps
    /// take, so a hello the retry loop already checked (telling a damaged
    /// hello, which it refetches, from a forged one) is not verified again.
    /// Takes the hello by reference or by value.
    ///
    /// # Errors
    ///
    /// Fails if the certificate or hello signature does not verify.
    pub fn check_hello<'a>(
        &mut self,
        hello: impl Into<Cow<'a, ServerHello>>,
    ) -> Result<CheckedHello<'a>, DeviceError> {
        let hello = hello.into();
        if !self.flock.verify_certificate(&hello.server_cert)
            || hello.server_cert.role() != Role::WebServer
            || hello.server_cert.subject() != hello.domain
        {
            return Err(DeviceError::UntrustedServer);
        }
        let bytes = ServerHello::signed_bytes(&hello.domain, &hello.page, &hello.nonce);
        if !hello
            .server_cert
            .public_key()
            .verify(&bytes, &hello.signature)
        {
            return Err(DeviceError::BadServerSignature);
        }
        Ok(CheckedHello(hello))
    }

    /// An explicit, deliberate owner touch on a button drawn over the
    /// first sensor; returns `Ok` only if a capture verified.
    fn explicit_verified_touch(
        &mut self,
        user_id: u64,
        finger_index: u8,
        rng: &mut SimRng,
    ) -> Result<(), DeviceError> {
        let button = self
            .flock
            .auth()
            .capture_pipeline()
            .sensors()
            .first()
            .expect("flock has sensors")
            .bounds()
            .center();
        let mut mismatches = 0;
        for _ in 0..EXPLICIT_TOUCH_RETRIES {
            let sample = TouchSample {
                at: btd_sim::time::SimTime::ZERO,
                pos: button,
                finger_center: button
                    .offset(rng.gaussian_with(0.0, 0.6), rng.gaussian_with(1.0, 0.6)),
                user_id,
                finger_index,
                speed_mm_s: rng.range_f64(0.0, 5.0),
                pressure: rng.gaussian_with(0.55, 0.08).clamp(0.2, 0.9),
                contact_radius_mm: rng.range_f64(4.0, 5.5),
                moisture: rng.range_f64(0.2, 0.5),
                dwell: SimDuration::from_millis(250),
            };
            let processed = self.flock.process_touch(&sample, rng);
            match processed.outcome {
                TouchAuthOutcome::Verified { .. } => return Ok(()),
                // A single conclusive mismatch can be capture noise even
                // for the genuine owner; two is evidence.
                TouchAuthOutcome::Mismatched { .. } => {
                    mismatches += 1;
                    if mismatches >= 2 {
                        return Err(DeviceError::BiometricRejected);
                    }
                }
                _ => continue,
            }
        }
        Err(DeviceError::BiometricRejected)
    }

    /// Runs the device side of registration (Fig. 9, steps 2–4): validate
    /// the hello, show the page, capture the registering user's
    /// fingerprint on the register button, mint a per-site key pair, and
    /// build the signed submission.
    ///
    /// # Errors
    ///
    /// Fails if the server is untrusted, the touch does not verify as the
    /// enrolled owner, or protected storage is full.
    pub fn begin_registration(
        &mut self,
        hello: &ServerHello,
        account: &str,
        user_id: u64,
        rng: &mut SimRng,
    ) -> Result<RegistrationSubmit, DeviceError> {
        let hello = self.check_hello(hello)?;
        self.begin_registration_checked(&hello, account, user_id, rng)
    }

    /// [`MobileDevice::begin_registration`] for a hello FLock already
    /// validated.
    pub(crate) fn begin_registration_checked(
        &mut self,
        hello: &CheckedHello<'_>,
        account: &str,
        user_id: u64,
        rng: &mut SimRng,
    ) -> Result<RegistrationSubmit, DeviceError> {
        let frame_hash = Self::display(
            &mut self.flock,
            &mut self.frame,
            self.spoofed_page.as_ref(),
            &hello.page,
        );
        self.explicit_verified_touch(user_id, 0, rng)?;
        let user_public = self
            .flock
            .register_domain(&hello.domain, account, hello.server_cert.public_key())
            .map_err(|_| DeviceError::StorageFull)?;
        let bytes = RegistrationSubmit::signed_bytes(
            &hello.domain,
            account,
            &hello.nonce,
            &frame_hash,
            &user_public.to_bytes(),
        );
        let signature = self.flock.sign_with_device_key(&bytes);
        let device_cert = self
            .flock
            .certificate()
            .expect("device provisioned with certificate")
            .clone();
        Ok(RegistrationSubmit {
            domain: hello.domain.clone(),
            account: account.to_owned(),
            nonce: hello.nonce,
            frame_hash,
            user_public: user_public.to_bytes(),
            device_cert,
            signature,
        })
    }

    /// Runs the device side of login (Fig. 10, step 2).
    ///
    /// # Errors
    ///
    /// Fails if the server is untrusted, the domain is unregistered, or
    /// the owner's touch does not verify.
    pub fn begin_login(
        &mut self,
        hello: &ServerHello,
        user_id: u64,
        rng: &mut SimRng,
    ) -> Result<LoginSubmit, DeviceError> {
        let hello = self.check_hello(hello)?;
        self.begin_login_checked(&hello, user_id, rng)
    }

    /// [`MobileDevice::begin_login`] for a hello FLock already validated.
    pub(crate) fn begin_login_checked(
        &mut self,
        hello: &CheckedHello<'_>,
        user_id: u64,
        rng: &mut SimRng,
    ) -> Result<LoginSubmit, DeviceError> {
        let record = self
            .flock
            .domain_record(&hello.domain)
            .ok_or(DeviceError::UnknownDomain)?;
        let account = record.account.clone();
        let server_key = record.server_key.clone();

        let frame_hash = Self::display(
            &mut self.flock,
            &mut self.frame,
            self.spoofed_page.as_ref(),
            &hello.page,
        );
        self.explicit_verified_touch(user_id, 0, rng)?;
        let risk = RiskReport::from_tracker(self.flock.auth().risk());

        let session_key = self.flock.crypto_mut().random_bytes(32);
        let sealed = self.flock.crypto_mut().seal_to(&server_key, &session_key);
        let bytes = LoginSubmit::signed_bytes(
            &hello.domain,
            &account,
            &hello.nonce,
            &sealed,
            &frame_hash,
            &risk,
        );
        let signature = self
            .flock
            .sign_with_domain_key(&hello.domain, &bytes)
            .expect("domain record present");

        // Session key is held by FLock pending the server's first page.
        self.sessions.insert(
            hello.domain.clone(),
            DeviceSession {
                session_id: None,
                account: Arc::from(account.as_str()),
                key: session_key,
                next_seq: 0,
                current_page: hello.page.clone(),
                pending_resume: None,
                window: 1,
                ooo_replies: Vec::new(),
            },
        );
        Ok(LoginSubmit {
            domain: hello.domain.clone(),
            account,
            nonce: hello.nonce,
            sealed_session_key: sealed,
            frame_hash,
            risk,
            signature,
        })
    }

    /// Accepts a content page from the server (login response,
    /// interaction response, or a reply healed by a resume ack); see
    /// [`MobileDevice::accept_windowed_content`], which this forwards to
    /// for the callers that do not need the [`WindowAccept`] verdict.
    ///
    /// # Errors
    ///
    /// Fails without a live session or on MAC mismatch.
    pub fn accept_content(
        &mut self,
        domain: &str,
        content: &ContentPage,
    ) -> Result<(), DeviceError> {
        self.accept_windowed_content(domain, content).map(|_| ())
    }

    /// Switches the session at `domain` into pipelined windowed mode with
    /// up to `window >= 1` interactions in flight. Call once after login,
    /// mirroring the window the server advertised for the session; the
    /// per-slot nonces are derived from the session key on both ends, so
    /// no server round trip is needed to arm the window.
    ///
    /// # Errors
    ///
    /// Fails without a live session.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0.
    pub fn enable_window(&mut self, domain: &str, window: u64) -> Result<(), DeviceError> {
        assert!(window >= 1, "window must be at least 1");
        let session = self
            .sessions
            .get_mut(domain)
            .ok_or(DeviceError::NoSession)?;
        if session.session_id.is_none() {
            return Err(DeviceError::NoSession);
        }
        session.window = window;
        Ok(())
    }

    /// Builds the interaction request for `action` at an explicit `slot`
    /// in `[base, base + window)`: the slot's derived nonce, the current
    /// risk window, the frame hash of what the user is looking at, and the
    /// session MAC. Unlike [`MobileDevice::build_interaction`] the
    /// sequence number is the caller's, so a pipelined runner can keep
    /// several slots in flight and retransmit any one of them
    /// selectively.
    ///
    /// # Errors
    ///
    /// Fails without a live session, or when `slot` is outside the
    /// window.
    pub fn windowed_request(
        &mut self,
        domain: &str,
        action: impl Into<Arc<str>>,
        slot: u64,
    ) -> Result<InteractionRequest, DeviceError> {
        let risk = RiskReport::from_tracker(self.flock.auth().risk());
        let session = self.sessions.get(domain).ok_or(DeviceError::NoSession)?;
        if slot < session.next_seq || slot >= session.next_seq + session.window {
            return Err(DeviceError::NoSession);
        }
        let Some(session_id) = session.session_id.clone() else {
            return Err(DeviceError::NoSession);
        };
        let record = self
            .flock
            .domain_record(domain)
            .ok_or(DeviceError::UnknownDomain)?;
        // The session's copy, unless the domain was re-bound since login.
        let account = if *session.account == *record.account {
            Arc::clone(&session.account)
        } else {
            Arc::from(record.account.as_str())
        };
        let nonce = window_nonce(&session.key, slot);
        let frame_hash = self.display_session(domain);
        let mut request = InteractionRequest {
            session_id,
            account,
            nonce,
            seq: slot,
            action: action.into(),
            frame_hash,
            risk,
            mac: Digest([0; 32]),
        };
        request.mac = wire::mac(&self.sessions[domain].key, &request);
        Ok(request)
    }

    /// Accepts a content page into the session's window: the device-side
    /// mirror of the server's admission rule, with credit `window`
    /// (lock-step is a window of one). After the session MAC verifies:
    ///
    /// * a session still waiting for its login page adopts the page;
    /// * a reply for slot `s` carries seq `s + 1`. Below the base it is
    ///   stale; at the base it applies, then drains every buffered
    ///   successor it unlocks (cumulative ack); inside
    ///   `(base, base + credit)` it is buffered; anything else is stale.
    ///
    /// A stale reply is authentic but superseded and changes nothing, so
    /// adversarial re-deliveries can never roll the session backwards.
    ///
    /// # Errors
    ///
    /// Fails without a live session or on MAC mismatch.
    pub fn accept_windowed_content(
        &mut self,
        domain: &str,
        content: &ContentPage,
    ) -> Result<WindowAccept, DeviceError> {
        let session = self
            .sessions
            .get_mut(domain)
            .ok_or(DeviceError::NoSession)?;
        if !wire::mac_matches(&session.key, content, &content.mac) {
            return Err(DeviceError::BadServerMac);
        }
        if session.session_id.is_none() {
            session.session_id = Some(Arc::clone(&content.session_id));
        } else {
            let base = session.next_seq;
            if content.seq <= base || content.seq > base + session.window {
                return Ok(WindowAccept::Stale);
            }
            if content.seq > base + 1 {
                let at = session.ooo_replies.partition_point(|p| p.seq < content.seq);
                if session.ooo_replies.get(at).map(|p| p.seq) != Some(content.seq) {
                    session.ooo_replies.insert(at, content.clone());
                }
                return Ok(WindowAccept::Buffered);
            }
        }
        session.next_seq = content.seq;
        self.tracer
            .record(EventKind::ContentAccepted { seq: content.seq });
        let mut applied = 1;
        // The page of the last drained successor, if any.
        let mut drained_page = None;
        while session
            .ooo_replies
            .first()
            .is_some_and(|p| p.seq == session.next_seq + 1)
        {
            let next = session.ooo_replies.remove(0);
            session.next_seq = next.seq;
            drained_page = Some(next.page);
            applied += 1;
            self.tracer
                .record(EventKind::ContentAccepted { seq: next.seq });
        }
        session.current_page = drained_page.unwrap_or_else(|| content.page.clone());
        self.display_session(domain);
        Ok(WindowAccept::Applied { applied })
    }

    /// Feeds one physical touch through the continuous-auth pipeline,
    /// possibly triggering a re-authentication prompt, without building a
    /// request. Split from [`MobileDevice::build_interaction`] so a retry
    /// loop can rebuild a request after a resync without double-counting
    /// the touch as fresh biometric evidence.
    pub fn observe_touch(&mut self, touch: &TouchSample, rng: &mut SimRng) {
        // The touch itself is opportunistic continuous authentication.
        let processed = self.flock.process_touch(touch, rng);
        if processed.action == btd_flock::risk::RiskAction::Reauthenticate {
            // The k-of-n window ran dry: the system displays a verify
            // button over a sensor region (paper §IV-A, preventive measure
            // 1). Whoever is holding the phone must touch it; the attempt
            // is processed through the same pipeline, so a genuine owner
            // refreshes the window and an impostor adds mismatch evidence.
            let _ = self.explicit_verified_touch(touch.user_id, touch.finger_index, rng);
        }
    }

    /// Builds a post-login interaction request for `action` at the
    /// session's base slot (its current sequence number), attaching the
    /// current risk window: the [`MobileDevice::windowed_request`] a
    /// lock-step flow sends.
    ///
    /// # Errors
    ///
    /// Fails without a live session.
    pub fn build_interaction(
        &mut self,
        domain: &str,
        action: impl Into<Arc<str>>,
    ) -> Result<InteractionRequest, DeviceError> {
        let session = self.sessions.get(domain).ok_or(DeviceError::NoSession)?;
        let slot = session.next_seq;
        self.windowed_request(domain, action, slot)
    }

    /// Builds a post-login interaction request for `action`, driven by a
    /// physical touch: the touch goes through the continuous-auth pipeline
    /// and the current risk window rides along in the request.
    ///
    /// # Errors
    ///
    /// Fails without a live session.
    pub fn interact(
        &mut self,
        domain: &str,
        action: &str,
        touch: &TouchSample,
        rng: &mut SimRng,
    ) -> Result<InteractionRequest, DeviceError> {
        self.observe_touch(touch, rng);
        self.build_interaction(domain, action)
    }

    /// Malware-forged interaction: crafted entirely in the compromised
    /// host, without FLock — so without the session key. The MAC is
    /// necessarily garbage; the experiment shows the server rejecting it.
    pub fn malware_forge_interaction(
        &self,
        domain: &str,
        action: &str,
    ) -> Option<InteractionRequest> {
        let session = self.sessions.get(domain)?;
        // The account name is on screen, so malware knows it.
        let account = self
            .flock
            .domain_record(domain)
            .map_or("forged", |r| r.account.as_str());
        Some(InteractionRequest {
            session_id: session.session_id.clone().unwrap_or_else(|| Arc::from("")),
            account: Arc::from(account),
            // The nonce the last reply carried, which the host saw on the
            // wire.
            nonce: window_nonce(&session.key, session.next_seq),
            seq: session.next_seq,
            action: Arc::from(action),
            frame_hash: Digest([0xEE; 32]),
            risk: RiskReport {
                window: 12,
                verified: 12,
                mismatched: 0,
            },
            mac: Digest([0xEE; 32]), // malware cannot compute the real MAC
        })
    }

    /// Builds a session-resumption request: a fresh FLock-chosen nonce
    /// plus a MAC under the session key over the last acknowledged
    /// sequence number. Used when every retry of an exchange timed out —
    /// the likely cause is a server restart that lost the issued nonce.
    ///
    /// # Errors
    ///
    /// Fails without a live session.
    pub fn begin_resume(&mut self, domain: &str) -> Result<ResumeRequest, DeviceError> {
        let session = self.sessions.get(domain).ok_or(DeviceError::NoSession)?;
        let Some(session_id) = session.session_id.as_deref().map(str::to_owned) else {
            return Err(DeviceError::NoSession);
        };
        let last_seq = session.next_seq;
        let key = session.key.clone();
        let account = self
            .flock
            .domain_record(domain)
            .ok_or(DeviceError::UnknownDomain)?
            .account
            .clone();
        let nonce = Nonce(
            self.flock
                .crypto_mut()
                .random_bytes(16)
                .try_into()
                .expect("16 bytes"),
        );
        let mut request = ResumeRequest {
            session_id,
            account,
            nonce,
            last_seq,
            mac: Digest([0; 32]),
        };
        request.mac = wire::mac(&key, &request);
        self.sessions
            .get_mut(domain)
            .expect("session checked")
            .pending_resume = Some(nonce);
        Ok(request)
    }

    /// Accepts a resume acknowledgement: verifies the MAC and the echo of
    /// the in-flight resume nonce, applies the healed reply if the server
    /// included one (the device was one page behind), and re-arms the
    /// session's sequence number from the ack.
    ///
    /// # Errors
    ///
    /// Fails without a live session, on MAC failure, or when the ack does
    /// not answer the in-flight resume request.
    pub fn accept_resume(&mut self, domain: &str, ack: &ResumeAck) -> Result<(), DeviceError> {
        let session = self.sessions.get(domain).ok_or(DeviceError::NoSession)?;
        if session.session_id.as_deref() != Some(ack.session_id.as_str()) {
            return Err(DeviceError::NoSession);
        }
        if !wire::mac_matches(&session.key, ack, &ack.mac) {
            return Err(DeviceError::BadServerMac);
        }
        if session.pending_resume != Some(ack.device_nonce) {
            // Authentic but answering some other (stale) resume request.
            return Err(DeviceError::BadServerMac);
        }
        // The healed reply first: it displays and advances state like any
        // content page. Then adopt the ack's seq, the server's base.
        if let Some(reply) = &ack.last_reply {
            let reply = reply.clone();
            self.accept_content(domain, &reply)?;
        }
        let session = self.sessions.get_mut(domain).expect("session checked");
        session.next_seq = ack.seq;
        session.pending_resume = None;
        self.tracer.record(EventKind::ResumeAccepted {
            healed_reply: ack.last_reply.is_some(),
        });
        Ok(())
    }

    /// The sequence number the device will put on its next interaction
    /// request (its last acknowledged server sequence).
    pub fn session_seq(&self, domain: &str) -> Option<u64> {
        self.sessions
            .get(domain)
            .filter(|s| s.session_id.is_some())
            .map(|s| s.next_seq)
    }

    /// The device-side session id for a domain, if logged in.
    pub fn session_id(&self, domain: &str) -> Option<&str> {
        self.shared_session_id(domain).map(|id| &**id)
    }

    /// [`MobileDevice::session_id`] as the shared string every request
    /// of the session carries.
    pub(crate) fn shared_session_id(&self, domain: &str) -> Option<&Arc<str>> {
        self.sessions.get(domain)?.session_id.as_ref()
    }

    /// The account registered for a domain, if any.
    pub fn account_for(&self, domain: &str) -> Option<&str> {
        self.flock.domain_record(domain).map(|r| r.account.as_str())
    }

    /// Drops the device-side session state for a domain (logout). Returns
    /// whether a session was present. The server-side twin is
    /// [`WebServer::close_session`](crate::server::WebServer::close_session).
    pub fn end_session(&mut self, domain: &str) -> bool {
        self.sessions.remove(domain).is_some()
    }
}
