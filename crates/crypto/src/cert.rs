//! CA-signed public-key certificates.
//!
//! The TRUST architecture (Fig. 8) assumes "each Web Server and each FLock
//! module of a mobile device have a public key certificate signed by the
//! CA", and the CA's public key is provisioned into every FLock module.
//! [`Certificate`] binds a subject name and role to a public key under a
//! Schnorr signature from the CA.

use std::fmt;

use crate::entropy::EntropySource;
use crate::schnorr::{KeyPair, PublicKey, Signature};
use crate::sha256::Sha256;

/// What kind of principal a certificate vouches for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// A web service endpoint (e.g. `www.xyz.com`).
    WebServer,
    /// A FLock module embedded in a mobile device.
    FlockModule,
    /// A certificate authority (self-signed root).
    CertificateAuthority,
}

impl Role {
    /// The role's name, as certificates carry it.
    pub fn name(self) -> &'static str {
        match self {
            Role::WebServer => "web-server",
            Role::FlockModule => "flock-module",
            Role::CertificateAuthority => "certificate-authority",
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A public-key certificate signed by a CA.
#[derive(Clone, PartialEq, Debug)]
pub struct Certificate {
    subject: String,
    role: Role,
    public_key: PublicKey,
    serial: u64,
    signature: Signature,
}

impl Certificate {
    /// The certified subject name (domain for servers, device id for FLock
    /// modules).
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// The certified role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The certified public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public_key
    }

    /// The issuing serial number.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// The bytes covered by the CA signature: a digest of the fields, the
    /// key as its canonical encoding ([`PublicKey::to_bytes`]), hashed
    /// from the stack.
    fn signed_bytes(subject: &str, role: Role, public_key: &PublicKey, serial: u64) -> [u8; 32] {
        let mut hasher = Sha256::new();
        hasher.update_field(b"trust-certificate-v1");
        hasher.update_field(subject.as_bytes());
        hasher.update_field(role.name().as_bytes());
        hasher.update_field(&public_key.element().to_be_bytes());
        hasher.update_field(&serial.to_be_bytes());
        *hasher.finalize().as_bytes()
    }

    /// Verifies the certificate against the CA public key, and that the
    /// subject/role match what the caller expects.
    pub fn verify(&self, ca_key: &PublicKey) -> bool {
        let bytes =
            Certificate::signed_bytes(&self.subject, self.role, &self.public_key, self.serial);
        ca_key.verify(&bytes, &self.signature)
    }
}

/// A certificate authority that can issue [`Certificate`]s.
///
/// # Example
///
/// ```
/// use btd_crypto::cert::{CertificateAuthority, Role};
/// use btd_crypto::entropy::ChaChaEntropy;
/// use btd_crypto::group::DhGroup;
/// use btd_crypto::schnorr::KeyPair;
///
/// let mut entropy = ChaChaEntropy::from_u64_seed(1);
/// let mut ca = CertificateAuthority::new(DhGroup::test_512(), &mut entropy);
/// let server = KeyPair::generate(DhGroup::test_512(), &mut entropy);
/// let cert = ca.issue("www.xyz.com", Role::WebServer, server.public_key(), &mut entropy);
/// assert!(cert.verify(ca.public_key()));
/// ```
#[derive(Debug)]
pub struct CertificateAuthority {
    keys: KeyPair,
    next_serial: u64,
}

impl CertificateAuthority {
    /// Creates a CA with a fresh root key.
    pub fn new(group: &'static crate::group::DhGroup, entropy: &mut dyn EntropySource) -> Self {
        CertificateAuthority {
            keys: KeyPair::generate(group, entropy),
            next_serial: 1,
        }
    }

    /// The CA root public key (provisioned into FLock modules).
    pub fn public_key(&self) -> &PublicKey {
        self.keys.public_key()
    }

    /// Issues a certificate for `subject` with `role`.
    pub fn issue(
        &mut self,
        subject: &str,
        role: Role,
        key: &PublicKey,
        entropy: &mut dyn EntropySource,
    ) -> Certificate {
        let serial = self.next_serial;
        self.next_serial += 1;
        let bytes = Certificate::signed_bytes(subject, role, key, serial);
        let signature = self.keys.sign(&bytes, entropy);
        Certificate {
            subject: subject.to_owned(),
            role,
            public_key: key.clone(),
            serial,
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ChaChaEntropy;
    use crate::group::DhGroup;

    fn setup() -> (CertificateAuthority, KeyPair, ChaChaEntropy) {
        let mut e = ChaChaEntropy::from_u64_seed(42);
        let ca = CertificateAuthority::new(DhGroup::test_512(), &mut e);
        let subject = KeyPair::generate(DhGroup::test_512(), &mut e);
        (ca, subject, e)
    }

    #[test]
    fn issued_certificate_verifies() {
        let (mut ca, subject, mut e) = setup();
        let cert = ca.issue("www.xyz.com", Role::WebServer, subject.public_key(), &mut e);
        assert!(cert.verify(ca.public_key()));
        assert_eq!(cert.subject(), "www.xyz.com");
        assert_eq!(cert.role(), Role::WebServer);
        assert_eq!(cert.public_key(), subject.public_key());
    }

    #[test]
    fn wrong_ca_rejected() {
        let (mut ca, subject, mut e) = setup();
        let rogue_ca = CertificateAuthority::new(DhGroup::test_512(), &mut e);
        let cert = ca.issue("www.xyz.com", Role::WebServer, subject.public_key(), &mut e);
        assert!(!cert.verify(rogue_ca.public_key()));
    }

    #[test]
    fn forged_subject_rejected() {
        let (mut ca, subject, mut e) = setup();
        let cert = ca.issue("www.xyz.com", Role::WebServer, subject.public_key(), &mut e);
        let forged = Certificate {
            subject: "www.evil.com".to_owned(),
            ..cert
        };
        assert!(!forged.verify(ca.public_key()));
    }

    #[test]
    fn forged_role_rejected() {
        let (mut ca, subject, mut e) = setup();
        let cert = ca.issue("device-1", Role::FlockModule, subject.public_key(), &mut e);
        let forged = Certificate {
            role: Role::WebServer,
            ..cert
        };
        assert!(!forged.verify(ca.public_key()));
    }

    #[test]
    fn serials_are_unique_and_increasing() {
        let (mut ca, subject, mut e) = setup();
        let c1 = ca.issue("a", Role::WebServer, subject.public_key(), &mut e);
        let c2 = ca.issue("b", Role::WebServer, subject.public_key(), &mut e);
        assert!(c2.serial() > c1.serial());
    }

    #[test]
    fn substituted_key_rejected() {
        let (mut ca, subject, mut e) = setup();
        let other = KeyPair::generate(DhGroup::test_512(), &mut e);
        let cert = ca.issue("www.xyz.com", Role::WebServer, subject.public_key(), &mut e);
        let forged = Certificate {
            public_key: other.public_key().clone(),
            ..cert
        };
        assert!(!forged.verify(ca.public_key()));
    }
}
