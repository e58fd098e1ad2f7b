//! Identity transfer to a new device (paper §IV, "Identity Transfer").
//!
//! "The user sends an identity transfer request from the new mobile device
//! along with its built-in public key certificate to the old mobile
//! device. … The user can authorize the operation by verifying her
//! fingerprint. When the authentication process is completed, the old
//! mobile device encrypts — using the new device's public key — all the
//! web service information and the corresponding (public, private) key
//! pairs along with the user's biometric identity, and transfers the
//! resulting information to the new mobile device."
//!
//! The two legs — the new device's [`TransferOffer`] and the old device's
//! sealed [`TransferPayload`] — cross the same fault-injecting
//! [`Channel`] as every other flow, under the [`RetryPolicy`]. Transit
//! damage is detectable on both legs (a digest over the offered
//! certificate; the sealed box's authentication tag), so a lossy or
//! corrupting link costs retries, never a wrong import.

use btd_crypto::cert::Certificate;
use btd_crypto::elgamal::SealedBox;
use btd_crypto::sha256::{sha256, Digest};
use btd_flock::module::ImportError;
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;

use crate::auth::{retry, Attempt};
use crate::channel::{flip_random_bit, Channel, NetMessage};
use crate::device::{DeviceError, MobileDevice};
use crate::metrics::{Phase, ProtocolMetrics, RetryPolicy};
use crate::trace::{EventKind, Tracer};
use crate::wire::signing_bytes;

/// Why an identity transfer failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferError {
    /// The new device's certificate did not verify on the old device.
    UntrustedNewDevice,
    /// The owner's authorizing fingerprint did not verify.
    AuthorizationFailed,
    /// The sealed payload could not be imported on the new device.
    ImportFailed,
    /// The local link defeated every retry attempt.
    ChannelFailed,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TransferError::UntrustedNewDevice => "new device certificate untrusted",
            TransferError::AuthorizationFailed => "owner fingerprint authorization failed",
            TransferError::ImportFailed => "identity import failed on new device",
            TransferError::ChannelFailed => "transfer link defeated every retry",
        };
        f.write_str(s)
    }
}

impl std::error::Error for TransferError {}

/// The new device's opening message: its certificate plus an integrity
/// digest so transit damage is distinguishable from a genuinely untrusted
/// certificate.
#[derive(Clone, Debug)]
pub struct TransferOffer {
    /// The new device's CA-signed certificate.
    pub cert: Certificate,
    /// Digest over the certificate's certified fields.
    pub digest: Digest,
}

/// Digest binding a [`TransferOffer`] to the certificate it carries.
fn offer_digest(cert: &Certificate) -> Digest {
    let key = cert.public_key().to_bytes();
    sha256(&signing_bytes("trust-transfer-offer-v1", |w| {
        w.str(cert.subject())
            .str(cert.role().name())
            .bytes(&key)
            .u64(cert.serial());
    }))
}

impl TransferOffer {
    /// Builds an offer for `cert`.
    pub fn new(cert: Certificate) -> Self {
        let digest = offer_digest(&cert);
        TransferOffer { cert, digest }
    }

    /// Whether the digest still matches the carried certificate.
    pub fn intact(&self) -> bool {
        self.digest == offer_digest(&self.cert)
    }
}

impl NetMessage for TransferOffer {
    fn corrupt(&mut self, rng: &mut SimRng) {
        flip_random_bit(&mut self.digest.0, rng);
    }
}

/// The old device's sealed identity export in transit.
#[derive(Clone, Debug)]
pub struct TransferPayload {
    /// The identity sealed to the new device's built-in key.
    pub sealed: SealedBox,
}

impl NetMessage for TransferPayload {
    fn corrupt(&mut self, rng: &mut SimRng) {
        // Damage the authentication tag: the import detects it and the
        // sender re-exports.
        flip_random_bit(&mut self.sealed.tag, rng);
    }
}

/// What happened during a transfer run.
#[derive(Clone, Debug, Default)]
pub struct TransferReport {
    /// Total link latency, including retry timeouts and backoff.
    pub latency: SimDuration,
    /// Link/retry accounting for both transfer legs.
    pub metrics: ProtocolMetrics,
}

/// Runs the full transfer over the channel: certificate offer, fingerprint
/// authorization on the old device, sealed export, and import on the new
/// device, retrying either leg under the policy.
///
/// Both legs run the shared lock-step retry driver with a disabled
/// tracer: the link is device-to-device, outside any server session, so
/// it records no trace events but keeps its counters through the same
/// emit points as every other flow.
///
/// # Errors
///
/// [`TransferError`] at whichever step fails conclusively; on failure no
/// state is changed on the new device.
pub fn transfer_identity(
    old: &mut MobileDevice,
    new: &mut MobileDevice,
    owner_user: u64,
    channel: &mut Channel,
    policy: &RetryPolicy,
    rng: &mut SimRng,
) -> Result<TransferReport, TransferError> {
    let mut report = TransferReport::default();

    let offer = TransferOffer::new(
        new.flock()
            .certificate()
            .cloned()
            .ok_or(TransferError::UntrustedNewDevice)?,
    );
    let cert = deliver_offer(old, channel, policy, &offer, &mut report)?;

    // The owner authorizes with a fingerprint on the old device — once,
    // regardless of how many link retries either leg needs.
    authorize_with_fingerprint(old, owner_user, rng)
        .map_err(|_| TransferError::AuthorizationFailed)?;

    deliver_payload(old, new, channel, policy, &cert, &mut report)?;
    Ok(report)
}

/// Leg 1: the new device presents its certificate. A damaged offer
/// (digest mismatch) burns a retry; a verifying digest over a
/// non-verifying certificate is conclusive distrust.
fn deliver_offer(
    old: &mut MobileDevice,
    channel: &mut Channel,
    policy: &RetryPolicy,
    offer: &TransferOffer,
    report: &mut TransferReport,
) -> Result<Certificate, TransferError> {
    let untraced = Tracer::disabled();
    retry(
        policy,
        &untraced,
        &mut report.metrics,
        &mut report.latency,
        Phase::Lifecycle,
        TransferError::ChannelFailed,
        |attempt, metrics| {
            let mut arrivals = channel.transmit(offer.clone()).into_iter();
            let Some(first) = arrivals.next() else {
                return Attempt::Lost;
            };
            let stale = arrivals.count() as u64;
            untraced.emit(metrics, EventKind::StaleContent { copies: stale });
            if first.delay > policy.timeout {
                return Attempt::Lost;
            }
            if !first.msg.intact() {
                return Attempt::Bounced(EventKind::ReplyRejected { attempt }, first.delay);
            }
            if !old.flock_mut().verify_certificate(&first.msg.cert) {
                return Attempt::Failed(TransferError::UntrustedNewDevice, first.delay);
            }
            Attempt::Served(first.msg.cert, first.delay)
        },
    )
}

/// Leg 2: sealed export to the new device's built-in key. Each retry
/// re-exports fresh (sealing is cheap; the payload never crosses the
/// link unauthenticated).
fn deliver_payload(
    old: &mut MobileDevice,
    new: &mut MobileDevice,
    channel: &mut Channel,
    policy: &RetryPolicy,
    cert: &Certificate,
    report: &mut TransferReport,
) -> Result<(), TransferError> {
    let untraced = Tracer::disabled();
    retry(
        policy,
        &untraced,
        &mut report.metrics,
        &mut report.latency,
        Phase::Lifecycle,
        TransferError::ChannelFailed,
        |attempt, metrics| {
            let payload = TransferPayload {
                sealed: old.flock_mut().export_identity(cert.public_key()),
            };
            let mut arrivals = channel.transmit(payload).into_iter();
            let Some(first) = arrivals.next() else {
                return Attempt::Lost;
            };
            let stale = arrivals.count() as u64;
            untraced.emit(metrics, EventKind::StaleContent { copies: stale });
            if first.delay > policy.timeout {
                return Attempt::Lost;
            }
            match new.flock_mut().import_identity(&first.msg.sealed) {
                Ok(()) => Attempt::Served((), first.delay),
                // Tampered or damaged in transit; the re-export heals it.
                Err(ImportError::Unsealable) => {
                    Attempt::Bounced(EventKind::ReplyRejected { attempt }, first.delay)
                }
                Err(_) => Attempt::Failed(TransferError::ImportFailed, SimDuration::ZERO),
            }
        },
    )
}

/// An explicit verified touch on the old device.
fn authorize_with_fingerprint(
    device: &mut MobileDevice,
    owner_user: u64,
    rng: &mut SimRng,
) -> Result<(), DeviceError> {
    use btd_flock::pipeline::TouchAuthOutcome;
    use btd_sim::time::SimDuration;
    use btd_workload::session::TouchSample;

    let button = device
        .flock()
        .auth()
        .capture_pipeline()
        .sensors()
        .first()
        .expect("sensors present")
        .bounds()
        .center();
    let mut mismatches = 0;
    for _ in 0..6 {
        let sample = TouchSample {
            at: btd_sim::time::SimTime::ZERO,
            pos: button,
            finger_center: button.offset(rng.gaussian_with(0.0, 0.6), rng.gaussian_with(1.0, 0.6)),
            user_id: owner_user,
            finger_index: 0,
            speed_mm_s: rng.range_f64(0.0, 5.0),
            pressure: rng.gaussian_with(0.55, 0.08).clamp(0.2, 0.9),
            contact_radius_mm: rng.range_f64(4.0, 5.5),
            moisture: rng.range_f64(0.2, 0.5),
            dwell: SimDuration::from_millis(250),
        };
        match device.flock_mut().process_touch(&sample, rng).outcome {
            TouchAuthOutcome::Verified { .. } => return Ok(()),
            // One conclusive mismatch can be noise; two is evidence.
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
