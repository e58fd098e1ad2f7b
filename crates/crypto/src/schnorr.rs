//! Schnorr signatures over a prime-order subgroup.
//!
//! Each FLock module "has a unique built-in (public, private) key pair" and
//! signs protocol messages with its private key; web servers do the same
//! (Figs. 9 and 10). Schnorr over a safe-prime group gives those semantics
//! with only the [`crate::bignum`] machinery.
//!
//! Scheme (group `(p, q, g)`, secret `x`, public `y = g^x`):
//!
//! * sign(m): pick `k ∈ [1, q)`, compute `r = g^k`, challenge
//!   `e = H(group ∥ y ∥ r ∥ m) mod q`, response `s = k + x·e mod q`;
//!   signature is `(e, s)`.
//! * verify(m, (e, s)): recompute `r' = g^s · y^(−e)` and accept iff
//!   `H(group ∥ y ∥ r' ∥ m) mod q == e`. Since `y^(p−1) = 1` for every
//!   `y ∈ [1, p)`, `y^(−e)` is computed as `y^(p−1−e)`, with no inversion.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use crate::bignum::U2048;
use crate::entropy::EntropySource;
use crate::group::{DhGroup, DigitPowers};
use crate::sha256::Sha256;

/// A Schnorr public key bound to its group.
///
/// Equality compares the group and `y`; the shared table cache takes no
/// part.
#[derive(Clone)]
pub struct PublicKey {
    group: &'static DhGroup,
    y: U2048,
    table: Arc<KeyTable>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        (self.group, &self.y) == (other.group, &other.y)
    }
}

impl Eq for PublicKey {}

/// The lazily built fixed-base table of one key, shared by all its
/// clones: the CA key provisioned into every FLock module and held by
/// the server, or a server key cloned into every hello and domain record,
/// builds one table between them.
///
/// The first exponentiation runs the variable-base window; the second
/// builds the table, so a key used once never allocates one.
#[derive(Default)]
struct KeyTable {
    used: AtomicBool,
    powers: OnceLock<Box<DigitPowers>>,
}

impl KeyTable {
    /// `y^e mod p` through the table, building it on the second call.
    fn pow(&self, group: &DhGroup, y: &U2048, e: &U2048) -> U2048 {
        // Relaxed suffices: `used` guards no other data (the OnceLock
        // publishes the table), and the OnceLock builds it at most once.
        if self.powers.get().is_none() && !self.used.swap(true, Ordering::Relaxed) {
            return group.pow(y, e);
        }
        self.powers
            .get_or_init(|| Box::new(DigitPowers::new(y, group.modulus())))
            .pow(e)
    }
}

/// A Schnorr key pair.
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    x: U2048,
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Challenge scalar.
    pub e: U2048,
    /// Response scalar.
    pub s: U2048,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.y.to_hex();
        write!(
            f,
            "PublicKey({}, y=0x{}…)",
            self.group.name(),
            &hex[..hex.len().min(12)]
        )
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyPair({:?}, secret: <redacted>)", self.public)
    }
}

impl PublicKey {
    /// Reconstructs a public key from a group element.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not a valid group element.
    pub fn from_element(group: &'static DhGroup, y: U2048) -> Self {
        assert!(group.contains(&y), "public key must be a group element");
        PublicKey::new(group, y)
    }

    fn new(group: &'static DhGroup, y: U2048) -> Self {
        PublicKey {
            group,
            y,
            table: Arc::default(),
        }
    }

    /// `y^e mod p`, from the key's shared table once the key is in reuse.
    pub(crate) fn pow(&self, e: &U2048) -> U2048 {
        self.table.pow(self.group, &self.y, e)
    }

    /// The group this key lives in.
    pub fn group(&self) -> &'static DhGroup {
        self.group
    }

    /// The public group element `y = g^x`.
    pub fn element(&self) -> &U2048 {
        &self.y
    }

    /// Canonical byte encoding (big-endian element, fixed 256 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.y.to_be_bytes().to_vec()
    }

    /// A short fingerprint of the key for logs and audit records.
    pub fn fingerprint(&self) -> String {
        let digest = crate::sha256::sha256(&self.y.to_be_bytes());
        crate::sha256::hex(&digest.as_bytes()[..8])
    }

    /// Verifies `sig` over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let q = self.group.order();
        if sig.e.is_zero() || &sig.e >= q || &sig.s >= q {
            return false;
        }
        // r' = g^s * y^(p-1-e) mod p
        let g_s = self.group.pow_g(&sig.s);
        let neg_e = self
            .group
            .modulus()
            .checked_sub(&U2048::ONE)
            .checked_sub(&sig.e);
        let y_neg_e = self.pow(&neg_e);
        let r = self.group.mul(&g_s, &y_neg_e);
        let e2 = challenge(self.group, &self.y, &r, message);
        e2 == sig.e
    }
}

impl KeyPair {
    /// Generates a fresh key pair from `entropy`.
    pub fn generate(group: &'static DhGroup, entropy: &mut dyn EntropySource) -> Self {
        let x = group.random_scalar(entropy);
        let y = group.pow_g(&x);
        KeyPair {
            public: PublicKey::new(group, y),
            x,
        }
    }

    /// Reconstructs a key pair from a stored secret scalar (identity
    /// transfer moves key material between devices this way).
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero or not below the group order.
    pub fn from_secret(group: &'static DhGroup, x: U2048) -> Self {
        assert!(!x.is_zero() && &x < group.order(), "invalid secret scalar");
        let y = group.pow_g(&x);
        KeyPair {
            public: PublicKey::new(group, y),
            x,
        }
    }

    /// The public half.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// The secret scalar (exposed so protected storage can persist it; the
    /// simulation's FLock flash is the only intended consumer).
    pub fn secret_scalar(&self) -> &U2048 {
        &self.x
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8], entropy: &mut dyn EntropySource) -> Signature {
        let group = self.public.group;
        let q = group.order();
        let k = group.random_scalar(entropy);
        let r = group.pow_g(&k);
        let e = challenge(group, &self.public.y, &r, message);
        // s = k + x*e mod q
        let xe = self.x.mul_mod(&e, q);
        let s = k.rem(q).add_mod(&xe, q);
        Signature { e, s }
    }
}

/// Fiat–Shamir challenge `H(group ∥ y ∥ r ∥ m) mod q`.
fn challenge(group: &DhGroup, y: &U2048, r: &U2048, message: &[u8]) -> U2048 {
    let mut h = Sha256::new();
    h.update_field(group.name().as_bytes());
    h.update_field(&y.to_be_bytes());
    h.update_field(&r.to_be_bytes());
    h.update_field(message);
    let digest = h.finalize();
    let wide = U2048::from_be_bytes(digest.as_bytes());
    let e = wide.rem(group.order());
    if e.is_zero() {
        U2048::ONE
    } else {
        e
    }
}

impl Signature {
    /// Canonical byte encoding (fixed 512 bytes: `e ∥ s`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        out.extend_from_slice(&self.e.to_be_bytes());
        out.extend_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decodes from [`Signature::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns `None` if `bytes` is not exactly 512 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() != 512 {
            return None;
        }
        Some(Signature {
            e: U2048::from_be_bytes(&bytes[..256]),
            s: U2048::from_be_bytes(&bytes[256..]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ChaChaEntropy;

    #[test]
    fn fingerprint_is_the_first_16_hex_digits_of_the_key_digest() {
        for seed in 0..8 {
            let (kp, _) = keys(seed);
            let key = kp.public_key();
            let full = crate::sha256::sha256(&key.to_bytes()).to_hex();
            assert_eq!(key.fingerprint(), full[..16]);
        }
    }

    fn keys(seed: u64) -> (KeyPair, ChaChaEntropy) {
        let mut e = ChaChaEntropy::from_u64_seed(seed);
        let kp = KeyPair::generate(DhGroup::test_512(), &mut e);
        (kp, e)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (kp, mut e) = keys(1);
        let sig = kp.sign(b"hello trust", &mut e);
        assert!(kp.public_key().verify(b"hello trust", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let (kp, mut e) = keys(2);
        let sig = kp.sign(b"amount=10", &mut e);
        assert!(!kp.public_key().verify(b"amount=1000", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (kp1, mut e) = keys(3);
        let kp2 = KeyPair::generate(DhGroup::test_512(), &mut e);
        let sig = kp1.sign(b"msg", &mut e);
        assert!(!kp2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (kp, mut e) = keys(4);
        let mut sig = kp.sign(b"msg", &mut e);
        sig.s = sig.s.add_mod(&U2048::ONE, kp.public_key().group().order());
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let (kp, mut e) = keys(5);
        let sig = kp.sign(b"msg", &mut e);
        let big = *kp.public_key().group().order();
        assert!(!kp
            .public_key()
            .verify(b"msg", &Signature { e: big, s: sig.s }));
        assert!(!kp.public_key().verify(
            b"msg",
            &Signature {
                e: U2048::ZERO,
                s: sig.s
            }
        ));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let (kp, mut e) = keys(6);
        let sig = kp.sign(b"wire", &mut e);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), 512);
        let back = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(Signature::from_bytes(&bytes[..100]).is_none());
    }

    #[test]
    fn from_secret_restores_same_identity() {
        let (kp, mut e) = keys(7);
        let restored = KeyPair::from_secret(DhGroup::test_512(), *kp.secret_scalar());
        assert_eq!(restored.public_key(), kp.public_key());
        let sig = restored.sign(b"migrated", &mut e);
        assert!(kp.public_key().verify(b"migrated", &sig));
    }

    #[test]
    fn signatures_are_randomized() {
        let (kp, mut e) = keys(8);
        let s1 = kp.sign(b"m", &mut e);
        let s2 = kp.sign(b"m", &mut e);
        assert_ne!(s1, s2, "fresh k per signature");
        assert!(kp.public_key().verify(b"m", &s1));
        assert!(kp.public_key().verify(b"m", &s2));
    }

    #[test]
    fn public_key_encoding_roundtrip() {
        let (kp, _) = keys(9);
        let bytes = kp.public_key().to_bytes();
        let restored = PublicKey::from_element(DhGroup::test_512(), U2048::from_be_bytes(&bytes));
        assert_eq!(&restored, kp.public_key());
        assert_eq!(restored.fingerprint().len(), 16);
    }

    #[test]
    fn clones_share_one_table_built_on_second_use() {
        use crate::group::ModexpCounts;
        let (kp, mut e) = keys(11);
        let sig = kp.sign(b"hello", &mut e);
        let key = kp.public_key().clone();
        let clones = [key.clone(), key.clone(), key.clone()];
        let before = ModexpCounts::current();
        // Use 1 runs the variable-base window; use 2, on another clone,
        // builds the table every clone then shares.
        assert!(clones[0].verify(b"hello", &sig));
        assert!(clones[1].table.powers.get().is_none());
        assert!(clones[1].verify(b"hello", &sig));
        for clone in &clones {
            assert!(clone.verify(b"hello", &sig));
            assert!(Arc::ptr_eq(&clone.table, &key.table));
        }
        assert!(key.table.powers.get().is_some());
        let counts = ModexpCounts::current().since(&before);
        assert_eq!(
            (counts.variable_base, counts.key_table, counts.table_builds),
            (1, 4, 1)
        );
        // A key rebuilt from the same element is equal but has its own
        // (still unbuilt) cache.
        let rebuilt = PublicKey::from_element(key.group(), *key.element());
        assert_eq!(rebuilt, key);
        assert!(!Arc::ptr_eq(&rebuilt.table, &key.table));
        assert!(rebuilt.table.powers.get().is_none());
    }

    #[test]
    fn works_on_production_group_too() {
        // One (slower) smoke test on the 2048-bit group.
        let mut e = ChaChaEntropy::from_u64_seed(10);
        let kp = KeyPair::generate(DhGroup::modp_2048(), &mut e);
        let sig = kp.sign(b"production", &mut e);
        assert!(kp.public_key().verify(b"production", &sig));
        assert!(!kp.public_key().verify(b"other", &sig));
    }
}
