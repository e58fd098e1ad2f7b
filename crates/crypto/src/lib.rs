#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Cryptographic substrate for the TRUST / FLock reproduction, implemented
//! from scratch (no external dependencies).
//!
//! The paper assumes a crypto processor inside the FLock module that can
//! generate (public, private) key pairs, sign and verify message
//! authentication codes, encrypt session keys, and hash displayed frames
//! (MD5 or SHA-256 are named). The paper does not fix an algorithm suite, so
//! this crate provides a discrete-log suite over standard groups:
//!
//! * [`bignum`] — fixed-width 2048-bit unsigned arithmetic with Knuth
//!   division and Montgomery-domain modular exponentiation.
//! * [`group`] — Diffie–Hellman groups: the RFC 3526 2048-bit MODP group for
//!   production parameters and a 512-bit safe-prime group for fast tests.
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104).
//! * [`chacha20`] — the RFC 7539 stream cipher, used for session encryption
//!   and as a deterministic entropy source.
//! * [`schnorr`] — Schnorr signatures over a prime-order subgroup; these
//!   play the role of the paper's "MAC signed with the private key".
//! * [`elgamal`] — ElGamal-style hybrid public-key encryption (used to send
//!   the session key encrypted under the Web Server's public key, Fig. 10).
//! * [`cert`] — CA-signed public-key certificates (Fig. 8/9).
//! * [`nonce`] — fresh-nonce generation and replay registries.
//!
//! # Example
//!
//! ```
//! use btd_crypto::group::DhGroup;
//! use btd_crypto::schnorr::KeyPair;
//! use btd_crypto::entropy::ChaChaEntropy;
//!
//! let group = DhGroup::test_512();
//! let mut entropy = ChaChaEntropy::from_seed([7u8; 32]);
//! let keys = KeyPair::generate(&group, &mut entropy);
//! let sig = keys.sign(b"registration request", &mut entropy);
//! assert!(keys.public_key().verify(b"registration request", &sig));
//! ```

pub mod bignum;
pub mod cert;
pub mod chacha20;
pub mod elgamal;
pub mod entropy;
pub mod group;
pub mod hmac;
pub mod nonce;
/// Miller–Rabin, used only to check the group moduli in tests.
#[cfg(test)]
mod primality;
pub mod schnorr;
pub mod sha256;

pub use bignum::U2048;
pub use entropy::{ChaChaEntropy, EntropySource};
pub use group::{DhGroup, ModexpCounts};
pub use schnorr::{KeyPair, PublicKey, Signature};
pub use sha256::{sha256, Digest};
