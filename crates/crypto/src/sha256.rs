//! FIPS 180-4 SHA-256.
//!
//! The FLock frame-hash engine hashes every displayed frame (the paper names
//! "MD5 or SHA256"; this reproduction uses SHA-256 throughout), and the
//! protocol MACs and signatures are built over SHA-256 digests.

use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        hex(&self.0)
    }
}

/// Lowercase hex of `bytes`, written into one pre-sized string.
pub(crate) fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0x0F)]));
    }
    out
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// An incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use btd_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Absorbs a length-prefixed field — used by the protocol layer so that
    /// adjacent variable-length fields cannot be re-split by an attacker.
    pub fn update_field(&mut self, data: &[u8]) {
        self.update(&(data.len() as u64).to_be_bytes());
        self.update(data);
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit length,
        // written straight into the last block, or the last two when
        // more than 55 bytes are buffered.
        let mut block = self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            self.compress(&block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// use btd_crypto::sha256::sha256;
///
/// assert_eq!(
///     sha256(b"").to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_matches_per_byte_format() {
        let bytes: Vec<u8> = (0..=255).collect();
        let formatted: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&bytes), formatted);
        assert_eq!(hex(&[]), "");
    }

    #[test]
    fn nist_vectors() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            sha256(&[0x61; 1_000_000]).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u32..1_000).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for chunk_size in [1usize, 3, 63, 64, 65, 200] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    /// Digests of `(31·i + 7) mod 256` byte strings at the padding
    /// boundaries (the length field fits, just fits, or needs a second
    /// block), computed independently with Python's `hashlib.sha256`.
    #[test]
    fn known_answers_at_padding_boundaries() {
        let cases = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                55,
                "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b",
            ),
            (
                56,
                "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63",
            ),
            (
                63,
                "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076",
            ),
            (
                64,
                "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd",
            ),
            (
                119,
                "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe",
            ),
            (
                120,
                "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656",
            ),
            (
                1000,
                "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179",
            ),
        ];
        for (len, hex) in cases {
            let msg: Vec<u8> = (0..len).map(|i| (31 * i + 7) as u8).collect();
            assert_eq!(sha256(&msg).to_hex(), hex, "len {len}");
            let mut h = Sha256::new();
            for byte in msg.chunks(1) {
                h.update(byte);
            }
            assert_eq!(h.finalize().to_hex(), hex, "len {len}, byte by byte");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Messages around the 55/56/64-byte padding boundaries.
        for len in 53..=70 {
            let msg = vec![0xABu8; len];
            let d1 = sha256(&msg);
            let mut h = Sha256::new();
            h.update(&msg[..len / 2]);
            h.update(&msg[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn update_field_prevents_resplitting() {
        let mut a = Sha256::new();
        a.update_field(b"ab");
        a.update_field(b"c");
        let mut b = Sha256::new();
        b.update_field(b"a");
        b.update_field(b"bc");
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn digest_display() {
        let d = sha256(b"x");
        assert_eq!(d.to_string().len(), 64);
        assert_eq!(d.as_bytes().len(), 32);
    }
}
