//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! In Figure 10 of the paper, every post-login request carries a MAC
//! computed under the session key; this module provides that keyed MAC,
//! plus constant-time verification.

use crate::sha256::{Digest, Sha256};

/// A 256-bit message authentication tag.
pub type Tag = Digest;

/// Computes `HMAC-SHA256(key, message)`.
///
/// # Example
///
/// ```
/// use btd_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"session key", b"request body");
/// assert_eq!(tag.as_bytes().len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Tag {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Verifies a tag in constant time.
pub fn verify_hmac(key: &[u8], message: &[u8], tag: &Tag) -> bool {
    constant_time_eq(hmac_sha256(key, message).as_bytes(), tag.as_bytes())
}

/// Constant-time byte-slice equality (length leak only).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Incremental HMAC-SHA256.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    outer_key: [u8; 64],
}

impl HmacSha256 {
    /// Creates a MAC instance for `key` (any length; long keys are hashed
    /// first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            let digest = crate::sha256::sha256(key);
            key_block[..32].copy_from_slice(digest.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; 64];
        let mut opad = [0u8; 64];
        for i in 0..64 {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            outer_key: opad,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the tag.
    pub fn finalize(self) -> Tag {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.outer_key);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let tag = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_hmac(b"k", b"m", &tag));
        assert!(!verify_hmac(b"k", b"m2", &tag));
        assert!(!verify_hmac(b"k2", b"m", &tag));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"key", b"hello world"));
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }
}
