//! ElGamal-style hybrid public-key encryption.
//!
//! In the continuous-authentication flow (Fig. 10, step 2) FLock sends "a
//! freshly generated session key encrypted with the Web Server's public
//! key". This module provides that operation: an ephemeral Diffie–Hellman
//! share derives a ChaCha20 key and an HMAC key (encrypt-then-MAC), so
//! arbitrary payloads can be sealed to a [`PublicKey`].

use crate::bignum::U2048;
use crate::chacha20;
use crate::entropy::EntropySource;
use crate::hmac::{constant_time_eq, hmac_sha256};
use crate::schnorr::{KeyPair, PublicKey};
use crate::sha256::Sha256;

/// A sealed (encrypted + authenticated) payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedBox {
    /// Ephemeral public share `g^k`.
    pub ephemeral: U2048,
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA256 tag over the ephemeral share and ciphertext.
    pub tag: [u8; 32],
}

/// Why opening a sealed box failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpenError {
    /// The ephemeral share was not an element of the order-`q` subgroup.
    InvalidEphemeral,
    /// The authentication tag did not verify (tampering or wrong key).
    TagMismatch,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::InvalidEphemeral => f.write_str("invalid ephemeral group element"),
            OpenError::TagMismatch => f.write_str("authentication tag mismatch"),
        }
    }
}

impl std::error::Error for OpenError {}

/// Derives (cipher key, mac key, nonce) from the DH shared secret.
fn derive_keys(shared: &U2048, ephemeral: &U2048) -> ([u8; 32], [u8; 32], [u8; 12]) {
    let mut h = Sha256::new();
    h.update_field(b"elgamal-kdf");
    h.update_field(&shared.to_be_bytes());
    h.update_field(&ephemeral.to_be_bytes());
    let base = h.finalize();
    let expand = |label: u8| {
        let mut hh = Sha256::new();
        hh.update(base.as_bytes());
        hh.update(&[label]);
        hh.finalize()
    };
    let cipher_key = *expand(1).as_bytes();
    let mac_key = *expand(2).as_bytes();
    let nonce_full = expand(3);
    let mut nonce = [0u8; 12];
    nonce.copy_from_slice(&nonce_full.as_bytes()[..12]);
    (cipher_key, mac_key, nonce)
}

/// Seals `plaintext` to `recipient`.
///
/// # Example
///
/// ```
/// use btd_crypto::elgamal::{seal, open};
/// use btd_crypto::entropy::ChaChaEntropy;
/// use btd_crypto::group::DhGroup;
/// use btd_crypto::schnorr::KeyPair;
///
/// let mut entropy = ChaChaEntropy::from_u64_seed(1);
/// let server = KeyPair::generate(DhGroup::test_512(), &mut entropy);
/// let boxed = seal(server.public_key(), b"session key material", &mut entropy);
/// let opened = open(&server, &boxed).unwrap();
/// assert_eq!(opened, b"session key material");
/// ```
pub fn seal(recipient: &PublicKey, plaintext: &[u8], entropy: &mut dyn EntropySource) -> SealedBox {
    let group = recipient.group();
    let k = group.random_scalar(entropy);
    let ephemeral = group.pow_g(&k);
    let shared = recipient.pow(&k);
    let (cipher_key, mac_key, nonce) = derive_keys(&shared, &ephemeral);
    let ciphertext = chacha20::encrypt(&cipher_key, &nonce, plaintext);
    let tag = tag_for(&mac_key, &ephemeral, &ciphertext);
    SealedBox {
        ephemeral,
        ciphertext,
        tag,
    }
}

/// Opens a sealed box with the recipient's key pair.
///
/// # Errors
///
/// Returns [`OpenError`] if the ephemeral element is invalid or the tag does
/// not verify (wrong key, tampered ciphertext, or tampered ephemeral).
///
/// Honest ephemerals are `g^k`. One outside the order-`q` subgroup (order
/// 2 or `2q`) is refused before the secret touches it: its shared value
/// depends on the secret's parity, so a tag check against it would tell a
/// sender who guessed that parity whether the guess was right.
pub fn open(recipient: &KeyPair, boxed: &SealedBox) -> Result<Vec<u8>, OpenError> {
    let group = recipient.public_key().group();
    if !group.in_subgroup(&boxed.ephemeral) {
        return Err(OpenError::InvalidEphemeral);
    }
    let shared = group.pow(&boxed.ephemeral, recipient.secret_scalar());
    let (cipher_key, mac_key, nonce) = derive_keys(&shared, &boxed.ephemeral);
    let expected = tag_for(&mac_key, &boxed.ephemeral, &boxed.ciphertext);
    if !constant_time_eq(&expected, &boxed.tag) {
        return Err(OpenError::TagMismatch);
    }
    Ok(chacha20::decrypt(&cipher_key, &nonce, &boxed.ciphertext))
}

fn tag_for(mac_key: &[u8; 32], ephemeral: &U2048, ciphertext: &[u8]) -> [u8; 32] {
    let mut data = Vec::with_capacity(256 + ciphertext.len());
    data.extend_from_slice(&ephemeral.to_be_bytes());
    data.extend_from_slice(ciphertext);
    *hmac_sha256(mac_key, &data).as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ChaChaEntropy;
    use crate::group::DhGroup;

    fn setup(seed: u64) -> (KeyPair, ChaChaEntropy) {
        let mut e = ChaChaEntropy::from_u64_seed(seed);
        let kp = KeyPair::generate(DhGroup::test_512(), &mut e);
        (kp, e)
    }

    #[test]
    fn roundtrip() {
        let (kp, mut e) = setup(1);
        let boxed = seal(kp.public_key(), b"secret session key", &mut e);
        assert_eq!(open(&kp, &boxed).unwrap(), b"secret session key");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (kp, mut e) = setup(2);
        let boxed = seal(kp.public_key(), b"", &mut e);
        assert_eq!(open(&kp, &boxed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (kp, mut e) = setup(3);
        let mut boxed = seal(kp.public_key(), b"payload", &mut e);
        boxed.ciphertext[0] ^= 1;
        assert_eq!(open(&kp, &boxed), Err(OpenError::TagMismatch));
    }

    #[test]
    fn tampered_tag_rejected() {
        let (kp, mut e) = setup(4);
        let mut boxed = seal(kp.public_key(), b"payload", &mut e);
        boxed.tag[5] ^= 0xFF;
        assert_eq!(open(&kp, &boxed), Err(OpenError::TagMismatch));
    }

    #[test]
    fn tampered_ephemeral_rejected() {
        let (kp, mut e) = setup(5);
        let mut boxed = seal(kp.public_key(), b"payload", &mut e);
        boxed.ephemeral = boxed
            .ephemeral
            .add_mod(&U2048::ONE, kp.public_key().group().modulus());
        let result = open(&kp, &boxed);
        assert!(result.is_err());
    }

    #[test]
    fn invalid_ephemeral_rejected() {
        let (kp, mut e) = setup(6);
        let mut boxed = seal(kp.public_key(), b"payload", &mut e);
        boxed.ephemeral = U2048::ZERO;
        assert_eq!(open(&kp, &boxed), Err(OpenError::InvalidEphemeral));
    }

    #[test]
    fn small_subgroup_ephemerals_rejected() {
        // A sender who picks an ephemeral of order 2 (p−1) or 2q (−g^k)
        // knows the shared value up to the parity of the recipient's
        // secret. Both parity guesses must fail the same way, or the
        // answer reveals that bit.
        let (kp, mut e) = setup(10);
        let group = kp.public_key().group();
        let p = group.modulus();
        let minus_one = p.checked_sub(&U2048::ONE);
        let k = group.random_scalar(&mut e);
        let g_k = group.pow_g(&k);
        let minus_g_k = group.mul(&g_k, &minus_one);
        let y_k = group.pow(kp.public_key().element(), &k);
        for (ephemeral, even, odd) in [
            (minus_one, U2048::ONE, minus_one),
            (minus_g_k, y_k, group.mul(&y_k, &minus_one)),
        ] {
            for shared in [even, odd] {
                let (cipher_key, mac_key, nonce) = derive_keys(&shared, &ephemeral);
                let ciphertext = chacha20::encrypt(&cipher_key, &nonce, b"guess");
                let tag = tag_for(&mac_key, &ephemeral, &ciphertext);
                let boxed = SealedBox {
                    ephemeral,
                    ciphertext,
                    tag,
                };
                assert_eq!(open(&kp, &boxed), Err(OpenError::InvalidEphemeral));
            }
        }
    }

    #[test]
    fn wrong_recipient_rejected() {
        let (kp1, mut e) = setup(7);
        let kp2 = KeyPair::generate(DhGroup::test_512(), &mut e);
        let boxed = seal(kp1.public_key(), b"payload", &mut e);
        assert_eq!(open(&kp2, &boxed), Err(OpenError::TagMismatch));
    }

    #[test]
    fn sealing_is_randomized() {
        let (kp, mut e) = setup(8);
        let b1 = seal(kp.public_key(), b"same", &mut e);
        let b2 = seal(kp.public_key(), b"same", &mut e);
        assert_ne!(b1.ephemeral, b2.ephemeral);
        assert_ne!(b1.ciphertext, b2.ciphertext);
    }

    #[test]
    fn seals_to_a_reused_key_open_alike() {
        // Seal 1 raises the recipient key by the variable-base window,
        // seal 2 builds the key's table, seal 3 reads it.
        let (kp, mut e) = setup(11);
        let recipient = kp.public_key().clone();
        for i in 0..3u8 {
            let boxed = seal(&recipient, &[i; 8], &mut e);
            assert_eq!(open(&kp, &boxed).unwrap(), [i; 8]);
        }
    }

    #[test]
    fn large_payload() {
        let (kp, mut e) = setup(9);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let boxed = seal(kp.public_key(), &payload, &mut e);
        assert_eq!(open(&kp, &boxed).unwrap(), payload);
    }
}
