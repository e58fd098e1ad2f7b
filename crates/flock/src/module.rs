//! The assembled FLock module.
//!
//! [`FlockModule`] wires the Figure 5 blocks together behind the host
//! interface the TRUST protocol uses: the built-in device key pair and CA
//! provisioning, per-web-site key management in protected storage, frame
//! relaying with hashing, the continuous-authentication pipeline, and the
//! identity-transfer flow (paper §IV, "Identity Transfer").

use btd_crypto::bignum::{LIMBS, U2048};
use btd_crypto::cert::Certificate;
use btd_crypto::elgamal::SealedBox;
use btd_crypto::entropy::ChaChaEntropy;
use btd_crypto::group::DhGroup;
use btd_crypto::schnorr::{KeyPair, PublicKey, Signature};
use btd_crypto::sha256::Digest;
use btd_fingerprint::minutiae::{Minutia, MinutiaKind};
use btd_fingerprint::quality::QualityGate;
use btd_fingerprint::template::Template;
use btd_sensor::array::PlacedSensor;
use btd_sensor::capture::CapturePipeline;
use btd_sensor::readout::ReadoutConfig;
use btd_sensor::spec::SensorSpec;
use btd_sim::geom::MmPoint;
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;
use btd_workload::session::TouchSample;

use crate::crypto_proc::CryptoProcessor;
use crate::display::DisplayRepeater;
use crate::fp_processor::FingerprintProcessor;
use crate::framehash::DisplayFrame;
use crate::pipeline::{AuthPipeline, ProcessedTouch};
use crate::risk::RiskConfig;
use crate::storage::{DomainRecord, SecureStorage, StorageError};

/// Configuration for building a [`FlockModule`].
#[derive(Clone, Debug)]
pub struct FlockConfig {
    /// The DH group for all asymmetric operations.
    pub group: &'static DhGroup,
    /// Sensor patches and their panel placement.
    pub sensors: Vec<PlacedSensor>,
    /// Readout architecture.
    pub readout: ReadoutConfig,
    /// Capture-quality gate.
    pub gate: QualityGate,
    /// Identity-risk policy.
    pub risk: RiskConfig,
    /// Protected flash capacity, bytes.
    pub flash_bytes: usize,
    /// Touchscreen frame time.
    pub touch_frame: SimDuration,
}

impl FlockConfig {
    /// The default placement used across experiments: three 8 × 8 mm
    /// patches over the shared hot spots of the built-in user profiles.
    pub fn default_sensors() -> Vec<PlacedSensor> {
        vec![
            PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(22.0, 70.0)),
            PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(22.0, 84.0)),
            PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(41.0, 58.0)),
        ]
    }

    /// Fast parameters for tests: the 512-bit group.
    pub fn fast_test() -> Self {
        FlockConfig {
            group: DhGroup::test_512(),
            sensors: FlockConfig::default_sensors(),
            readout: ReadoutConfig::default(),
            gate: QualityGate::default(),
            risk: RiskConfig::default(),
            flash_bytes: 1 << 20,
            touch_frame: SimDuration::from_millis(4),
        }
    }
}

/// Errors from identity import.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ImportError {
    /// The sealed payload failed to open (wrong device or tampered).
    Unsealable,
    /// The payload did not decode as an identity export.
    Malformed,
    /// The imported records did not fit in flash.
    Storage(StorageError),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Unsealable => f.write_str("identity payload could not be unsealed"),
            ImportError::Malformed => f.write_str("identity payload is malformed"),
            ImportError::Storage(e) => write!(f, "identity import storage failure: {e}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// The FLock module.
#[derive(Debug)]
pub struct FlockModule {
    device_id: String,
    group: &'static DhGroup,
    device_keys: KeyPair,
    certificate: Option<Certificate>,
    ca_key: Option<PublicKey>,
    crypto: CryptoProcessor,
    storage: SecureStorage,
    display: DisplayRepeater,
    auth: AuthPipeline,
}

impl FlockModule {
    /// Builds a module; the built-in key pair is generated immediately
    /// (the paper: "Each FLock module has a unique built-in
    /// (public, private) key pair").
    pub fn new(device_id: &str, config: FlockConfig, rng: &mut SimRng) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let mut crypto = CryptoProcessor::new(config.group, ChaChaEntropy::from_seed(seed));
        let device_keys = crypto.generate_keypair();
        let auth = AuthPipeline::new(
            CapturePipeline::new(config.sensors, config.readout),
            config.gate,
            FingerprintProcessor::new(),
            config.risk,
            config.touch_frame,
        );
        FlockModule {
            device_id: device_id.to_owned(),
            group: config.group,
            device_keys,
            certificate: None,
            ca_key: None,
            crypto,
            storage: SecureStorage::new(config.flash_bytes),
            display: DisplayRepeater::new(),
            auth,
        }
    }

    /// The device identifier.
    pub fn device_id(&self) -> &str {
        &self.device_id
    }

    /// The DH group in use.
    pub fn group(&self) -> &'static DhGroup {
        self.group
    }

    /// The built-in device public key.
    pub fn device_public_key(&self) -> &PublicKey {
        self.device_keys.public_key()
    }

    /// Provisions the CA root key (factory step).
    pub fn provision_ca(&mut self, ca_key: PublicKey) {
        self.ca_key = Some(ca_key);
    }

    /// Installs this device's CA-issued certificate.
    pub fn install_certificate(&mut self, cert: Certificate) {
        self.certificate = Some(cert);
    }

    /// The device certificate, if issued.
    pub fn certificate(&self) -> Option<&Certificate> {
        self.certificate.as_ref()
    }

    /// Verifies a peer certificate against the provisioned CA. Returns
    /// `false` when no CA key is provisioned (fail closed).
    pub fn verify_certificate(&mut self, cert: &Certificate) -> bool {
        match &self.ca_key {
            Some(ca) => cert.verify(ca),
            None => false,
        }
    }

    // --- Biometric side -------------------------------------------------

    /// Enrolls the device owner's fingers (guided flow).
    pub fn enroll_owner(&mut self, user_id: u64, finger_count: u8, rng: &mut SimRng) {
        self.auth
            .processor_mut()
            .enroll_user(user_id, finger_count, rng);
    }

    /// Enrolls an additional authorized user (shared device).
    pub fn enroll_additional_user(&mut self, user_id: u64, finger_count: u8, rng: &mut SimRng) {
        self.auth
            .processor_mut()
            .add_user(user_id, finger_count, rng);
    }

    /// All users with enrolled templates.
    pub fn enrolled_users(&self) -> Vec<u64> {
        self.auth.processor().enrolled_users()
    }

    /// Number of enrolled finger templates.
    pub fn enrolled_finger_count(&self) -> usize {
        self.auth.processor().template_count()
    }

    /// The enrolled owner, if any.
    pub fn owner(&self) -> Option<u64> {
        self.auth.processor().owner()
    }

    /// Runs one touch through the continuous-auth pipeline.
    pub fn process_touch(&mut self, sample: &TouchSample, rng: &mut SimRng) -> ProcessedTouch {
        self.auth.process_touch(sample, rng)
    }

    /// The continuous-auth pipeline (stats, risk state).
    pub fn auth(&self) -> &AuthPipeline {
        &self.auth
    }

    /// The continuous-auth pipeline, mutable.
    pub fn auth_mut(&mut self) -> &mut AuthPipeline {
        &mut self.auth
    }

    // --- Display side ---------------------------------------------------

    /// Relays a frame to the panel, returning its hash and engine time.
    pub fn relay_frame(&mut self, frame: &DisplayFrame) -> (Digest, SimDuration) {
        self.display.relay(frame)
    }

    // --- Identity / key management ---------------------------------------

    /// Registers a new web-site identity: generates a per-site key pair,
    /// stores the record, and returns the site public key.
    ///
    /// # Errors
    ///
    /// [`StorageError::CapacityExceeded`] if the flash is full.
    pub fn register_domain(
        &mut self,
        domain: &str,
        account: &str,
        server_key: &PublicKey,
    ) -> Result<PublicKey, StorageError> {
        let keys = self.crypto.generate_keypair();
        let public = keys.public_key().clone();
        let record = DomainRecord {
            domain: domain.to_owned(),
            account: account.to_owned(),
            keys,
            server_key: server_key.clone(),
        };
        self.storage.put_record(record)?;
        Ok(public)
    }

    /// The stored record for `domain`.
    pub fn domain_record(&self, domain: &str) -> Option<&DomainRecord> {
        self.storage.record(domain)
    }

    /// The key pair for `domain`.
    pub fn domain_keypair(&self, domain: &str) -> Option<&KeyPair> {
        self.storage.record(domain).map(|r| &r.keys)
    }

    /// Number of registered domains.
    pub fn domain_count(&self) -> usize {
        self.storage.record_count()
    }

    /// Signs with the built-in device key.
    pub fn sign_with_device_key(&mut self, message: &[u8]) -> Signature {
        let keys = self.device_keys.clone();
        self.crypto.sign(&keys, message)
    }

    /// Signs with a domain key pair, or `None` if the domain is unknown.
    pub fn sign_with_domain_key(&mut self, domain: &str, message: &[u8]) -> Option<Signature> {
        let record = self.storage.record(domain)?;
        Some(self.crypto.sign(&record.keys, message))
    }

    /// The crypto processor (for the protocol layer's seal/open/MAC needs
    /// and latency accounting).
    pub fn crypto_mut(&mut self) -> &mut CryptoProcessor {
        &mut self.crypto
    }

    /// The crypto processor, read-only.
    pub fn crypto(&self) -> &CryptoProcessor {
        &self.crypto
    }

    /// Protected storage statistics: `(used, capacity)` bytes.
    pub fn storage_usage(&self) -> (usize, usize) {
        (self.storage.used(), self.storage.capacity())
    }

    // --- Identity transfer (paper §IV, "Identity Transfer") ---------------

    /// Exports the full identity (templates + all domain records) sealed
    /// to the new device's public key; requires a verified owner touch in
    /// the real flow (enforced by the caller's UI).
    pub fn export_identity(&mut self, new_device_key: &PublicKey) -> SealedBox {
        let owner = self.owner().unwrap_or(0);
        let templates = self.auth.processor().export_templates();
        let records: Vec<DomainRecord> = self.storage.records().cloned().collect();
        let payload = encode_identity(owner, &templates, &records);
        self.crypto.seal_to(new_device_key, &payload)
    }

    /// Imports a sealed identity exported by another device.
    ///
    /// # Errors
    ///
    /// [`ImportError`] if unsealing, decoding, or storage fails.
    pub fn import_identity(&mut self, sealed: &SealedBox) -> Result<(), ImportError> {
        let keys = self.device_keys.clone();
        let payload = self
            .crypto
            .open_with(&keys, sealed)
            .map_err(|_| ImportError::Unsealable)?;
        let (owner, templates, records) =
            decode_identity(&payload, self.group).ok_or(ImportError::Malformed)?;
        if !templates.is_empty() {
            self.auth
                .processor_mut()
                .install_templates(owner, templates);
        }
        for r in records {
            self.storage.put_record(r).map_err(ImportError::Storage)?;
        }
        Ok(())
    }
}

// --- Identity wire codec -------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    out.extend_from_slice(data);
}

fn get_bytes<'a>(input: &mut &'a [u8]) -> Option<&'a [u8]> {
    if input.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes(input[..4].try_into().ok()?) as usize;
    if input.len() < 4 + len {
        return None;
    }
    let (head, rest) = input[4..].split_at(len);
    *input = rest;
    Some(head)
}

/// A length-prefixed big-endian number, or `None` if it is wider than
/// 2048 bits.
fn get_u2048(input: &mut &[u8]) -> Option<U2048> {
    let bytes = get_bytes(input)?;
    (bytes.len() <= LIMBS * 8).then(|| U2048::from_be_bytes(bytes))
}

fn encode_identity(owner: u64, templates: &[Template], records: &[DomainRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&owner.to_be_bytes());
    out.extend_from_slice(&(templates.len() as u32).to_be_bytes());
    for t in templates {
        out.extend_from_slice(&t.user_id().to_be_bytes());
        out.push(t.finger_index());
        out.extend_from_slice(&(t.minutiae().len() as u32).to_be_bytes());
        for m in t.minutiae() {
            out.extend_from_slice(&m.pos.x.to_be_bytes());
            out.extend_from_slice(&m.pos.y.to_be_bytes());
            out.extend_from_slice(&m.angle.to_be_bytes());
            out.push(match m.kind {
                MinutiaKind::Ending => 0,
                MinutiaKind::Bifurcation => 1,
            });
        }
    }
    out.extend_from_slice(&(records.len() as u32).to_be_bytes());
    for r in records {
        put_bytes(&mut out, r.domain.as_bytes());
        put_bytes(&mut out, r.account.as_bytes());
        put_bytes(&mut out, &r.keys.secret_scalar().to_be_bytes());
        put_bytes(&mut out, &r.server_key.to_bytes());
    }
    out
}

fn decode_identity(
    mut input: &[u8],
    group: &'static DhGroup,
) -> Option<(u64, Vec<Template>, Vec<DomainRecord>)> {
    let take = |input: &mut &[u8], n: usize| -> Option<Vec<u8>> {
        if input.len() < n {
            return None;
        }
        let (head, rest) = input.split_at(n);
        *input = rest;
        Some(head.to_vec())
    };
    let owner = u64::from_be_bytes(take(&mut input, 8)?.try_into().ok()?);
    let n_templates = u32::from_be_bytes(take(&mut input, 4)?.try_into().ok()?) as usize;
    let mut templates = Vec::with_capacity(n_templates);
    for _ in 0..n_templates {
        let user_id = u64::from_be_bytes(take(&mut input, 8)?.try_into().ok()?);
        let finger = take(&mut input, 1)?[0];
        let n_min = u32::from_be_bytes(take(&mut input, 4)?.try_into().ok()?) as usize;
        let mut minutiae = Vec::with_capacity(n_min);
        for _ in 0..n_min {
            let x = f64::from_be_bytes(take(&mut input, 8)?.try_into().ok()?);
            let y = f64::from_be_bytes(take(&mut input, 8)?.try_into().ok()?);
            let angle = f64::from_be_bytes(take(&mut input, 8)?.try_into().ok()?);
            let kind = match take(&mut input, 1)?[0] {
                0 => MinutiaKind::Ending,
                1 => MinutiaKind::Bifurcation,
                _ => return None,
            };
            minutiae.push(Minutia::new(MmPoint::new(x, y), angle, kind));
        }
        if minutiae.is_empty() {
            return None;
        }
        templates.push(Template::new(user_id, finger, minutiae));
    }
    let n_records = u32::from_be_bytes(take(&mut input, 4)?.try_into().ok()?) as usize;
    let mut records = Vec::with_capacity(n_records);
    for _ in 0..n_records {
        let domain = String::from_utf8(get_bytes(&mut input)?.to_vec()).ok()?;
        let account = String::from_utf8(get_bytes(&mut input)?.to_vec()).ok()?;
        let secret = get_u2048(&mut input)?;
        let server_element = get_u2048(&mut input)?;
        if secret.is_zero() || &secret >= group.order() || !group.contains(&server_element) {
            return None;
        }
        records.push(DomainRecord {
            domain,
            account,
            keys: KeyPair::from_secret(group, secret),
            server_key: PublicKey::from_element(group, server_element),
        });
    }
    if input.is_empty() {
        Some((owner, templates, records))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_crypto::cert::{CertificateAuthority, Role};

    fn module(seed: u64) -> (FlockModule, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let m = FlockModule::new("device-1", FlockConfig::fast_test(), &mut rng);
        (m, rng)
    }

    #[test]
    fn device_key_is_unique_per_device() {
        let (a, _) = module(1);
        let (b, _) = module(2);
        assert_ne!(a.device_public_key(), b.device_public_key());
    }

    #[test]
    fn certificate_verification_fails_closed() {
        let (mut m, mut rng) = module(3);
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let mut entropy = ChaChaEntropy::from_seed(seed);
        let mut ca = CertificateAuthority::new(DhGroup::test_512(), &mut entropy);
        let cert = ca.issue(
            "www.xyz.com",
            Role::WebServer,
            m.device_public_key(),
            &mut entropy,
        );
        // No CA provisioned: reject.
        assert!(!m.verify_certificate(&cert));
        m.provision_ca(ca.public_key().clone());
        assert!(m.verify_certificate(&cert));
        // A rogue CA's cert is rejected.
        let mut rogue = CertificateAuthority::new(DhGroup::test_512(), &mut entropy);
        let bad = rogue.issue(
            "www.xyz.com",
            Role::WebServer,
            m.device_public_key(),
            &mut entropy,
        );
        assert!(!m.verify_certificate(&bad));
    }

    #[test]
    fn domain_registration_and_signing() {
        let (mut m, mut rng) = module(4);
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let mut entropy = ChaChaEntropy::from_seed(seed);
        let server = KeyPair::generate(DhGroup::test_512(), &mut entropy);
        let user_pub = m
            .register_domain("www.xyz.com", "ab12xyom", server.public_key())
            .unwrap();
        assert_eq!(m.domain_count(), 1);
        let sig = m
            .sign_with_domain_key("www.xyz.com", b"login request")
            .unwrap();
        assert!(user_pub.verify(b"login request", &sig));
        // Unknown domain yields no signature.
        assert!(m.sign_with_domain_key("other.com", b"x").is_none());
        // Different domains get different keys.
        let other_pub = m
            .register_domain("bank.com", "acct2", server.public_key())
            .unwrap();
        assert_ne!(user_pub, other_pub);
    }

    #[test]
    fn identity_transfer_moves_domains_and_templates() {
        let (mut old, mut rng) = module(5);
        old.enroll_owner(42, 2, &mut rng);
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let mut entropy = ChaChaEntropy::from_seed(seed);
        let server = KeyPair::generate(DhGroup::test_512(), &mut entropy);
        old.register_domain("www.xyz.com", "alice", server.public_key())
            .unwrap();
        old.register_domain("bank.com", "alice2", server.public_key())
            .unwrap();

        let (mut new, _) = module(6);
        let sealed = old.export_identity(new.device_public_key());
        new.import_identity(&sealed).unwrap();

        assert_eq!(new.domain_count(), 2);
        assert_eq!(new.owner(), Some(42));
        assert_eq!(new.enrolled_finger_count(), 2);
        // The new device signs for the domain with the *same* site key.
        let msg = b"post-transfer request";
        let sig = new.sign_with_domain_key("www.xyz.com", msg).unwrap();
        let old_record = old.domain_record("www.xyz.com").unwrap();
        assert!(old_record.keys.public_key().verify(msg, &sig));
    }

    #[test]
    fn identity_export_cannot_be_opened_by_a_third_device() {
        let (mut old, mut rng) = module(7);
        old.enroll_owner(42, 1, &mut rng);
        let (new, _) = module(8);
        let (mut thief, _) = module(9);
        let sealed = old.export_identity(new.device_public_key());
        assert_eq!(thief.import_identity(&sealed), Err(ImportError::Unsealable));
    }

    #[test]
    fn malformed_identity_rejected() {
        let (mut new, _) = module(10);
        let (mut old, _) = module(11);
        // Seal garbage to the new device: unseals fine, fails decoding.
        let garbage = old.crypto_mut().seal_to(new.device_public_key(), b"junk");
        assert_eq!(new.import_identity(&garbage), Err(ImportError::Malformed));
    }

    #[test]
    fn frame_relay_updates_last_hash() {
        let (mut m, _) = module(12);
        assert!(m.last_frame_hash().is_none());
        let frame = DisplayFrame::new(b"login".to_vec(), 480, 800);
        let (h, _) = m.relay_frame(&frame);
        assert_eq!(m.last_frame_hash(), Some(h));
    }

    #[test]
    fn codec_roundtrips_empty_and_full() {
        let group = DhGroup::test_512();
        let (owner, templates, records) =
            decode_identity(&encode_identity(9, &[], &[]), group).unwrap();
        // The identity blob is secret-bearing (encode_identity ->
        // DomainRecord.keys), and field-insensitive taint smears
        // onto every binding destructured from it; `owner` is the plain
        // u64 account id, so printing it on failure leaks nothing.
        // trust-lint: allow(secret-taint) -- owner is the non-secret half of the decoded tuple
        assert_eq!(owner, 9);
        assert!(templates.is_empty());
        assert!(records.is_empty());
        // Trailing garbage is rejected.
        let mut bytes = encode_identity(9, &[], &[]);
        bytes.push(0);
        assert!(decode_identity(&bytes, group).is_none());
        // Truncation is rejected.
        let bytes = encode_identity(9, &[], &[]);
        assert!(decode_identity(&bytes[..bytes.len() - 1], group).is_none());
    }

    #[test]
    fn codec_refuses_secrets_no_key_pair_can_hold() {
        // The payload arrives sealed to the device's public key, which
        // anyone can seal to: a zero secret, one at or above the group
        // order, or a number wider than 2048 bits decodes to `None`
        // instead of panicking at the next signature or in the decoder.
        let group = DhGroup::test_512();
        let server = KeyPair::from_secret(group, U2048::from_u64(5));
        let payload = |secret: &[u8]| {
            let mut out = Vec::new();
            out.extend_from_slice(&9u64.to_be_bytes());
            out.extend_from_slice(&0u32.to_be_bytes());
            out.extend_from_slice(&1u32.to_be_bytes());
            put_bytes(&mut out, b"www.xyz.com");
            put_bytes(&mut out, b"alice");
            put_bytes(&mut out, secret);
            put_bytes(&mut out, &server.public_key().to_bytes());
            out
        };
        let mut wide = vec![0u8];
        wide.extend_from_slice(&U2048::from_u64(7).to_be_bytes());
        for bad in [
            U2048::ZERO.to_be_bytes().to_vec(),
            group.order().to_be_bytes().to_vec(),
            wide,
        ] {
            assert!(decode_identity(&payload(&bad), group).is_none());
        }
        let good = decode_identity(&payload(&U2048::from_u64(7).to_be_bytes()), group);
        assert_eq!(good.map(|(_, _, records)| records.len()), Some(1));
    }

    impl FlockModule {
        /// Hash of the most recently displayed frame.
        pub fn last_frame_hash(&self) -> Option<Digest> {
            self.display.last_frame_hash()
        }
    }
}
