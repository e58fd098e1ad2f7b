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
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        // Whole blocks are compressed in place, in one call, so the
        // state stays in registers from one block to the next.
        let (blocks, rest) = input.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
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
        let mut tail = [[0u8; 64]; 2];
        tail[0][..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[0][self.buffered] = 0x80;
        let n = if self.buffered >= 56 { 2 } else { 1 };
        tail[n - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..n]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Compresses `blocks` into `state`, on the CPU's SHA extensions when it
/// has them and in portable code otherwise. Both give the same state.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 compression function, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions (SHA-NI), in the
/// round structure of Intel's reference code: the state is held as two
/// vectors, `ABEF` and `CDGH`, and each `sha256rnds2` runs two rounds.
/// All of this file's `unsafe` code is here.
#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Compresses `blocks` into `state` and returns `true`, or returns
    /// `false` without touching `state` when the CPU lacks a feature the
    /// kernel needs. Detection is cached by the standard library, so a
    /// call costs a few loads before the first block.
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available` just checked that the CPU has every feature
        // `compress_unchecked` is compiled with.
        unsafe { compress_unchecked(state, blocks) };
        true
    }

    /// Whether the CPU has every feature `compress_unchecked` uses
    /// (`sse2` is part of the x86_64 baseline).
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }

    /// Rounds `4 * $i .. 4 * $i + 4` on the message words in `$w`.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:literal) => {{
            let wk = _mm_add_epi32(
                $w,
                _mm_set_epi32(
                    K[4 * $i + 3] as i32,
                    K[4 * $i + 2] as i32,
                    K[4 * $i + 1] as i32,
                    K[4 * $i] as i32,
                ),
            );
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    /// Message words `W[t..t + 4]` from the four vectors before them.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_unchecked(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Per 32-bit lane, big-endian bytes to native order.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let ptr = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `compress` checked the CPU features (`available`) before
        // calling this kernel; `state` is 32 bytes, two 16-byte vectors at
        // offsets 0 and 16, and `loadu` has no alignment requirement.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(ptr), _mm_loadu_si128(ptr.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: the features are checked as for the state loads;
            // `block` is 64 bytes, four 16-byte vectors at offsets 0, 16,
            // 32 and 48, and `loadu` has no alignment requirement.
            let (mut w0, mut w1, mut w2, mut w3) = unsafe {
                (
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                )
            };
            w0 = _mm_shuffle_epi8(w0, bswap);
            w1 = _mm_shuffle_epi8(w1, bswap);
            w2 = _mm_shuffle_epi8(w2, bswap);
            w3 = _mm_shuffle_epi8(w3, bswap);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 4);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 5);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 6);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 7);
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 8);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 9);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 10);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 11);
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 12);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 13);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 14);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: the features are checked and the bounds hold as for the
        // loads above; `ptr` came from `&mut state`, which nothing else
        // borrows here.
        unsafe {
            _mm_storeu_si128(ptr, dcba);
            _mm_storeu_si128(ptr.add(1), hgfe);
        }
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
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn hex_matches_per_byte_format() {
        let bytes: Vec<u8> = (0..=255).collect();
        let formatted: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&bytes), formatted);
        assert_eq!(hex(&[]), "");
    }

    /// The FIPS 180-4 example messages and their digests.
    fn nist_cases() -> [(Vec<u8>, &'static str); 3] {
        [
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                vec![0x61; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    /// Digests of `(31·i + 7) mod 256` byte strings at the padding
    /// boundaries (the length field fits, just fits, or needs a second
    /// block), computed independently with Python's `hashlib.sha256`.
    fn padding_cases() -> Vec<(Vec<u8>, &'static str)> {
        [
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
        ]
        .into_iter()
        .map(|(len, hex)| ((0..len).map(|i| (31 * i + 7) as u8).collect(), hex))
        .collect()
    }

    /// A compression backend.
    type Backend = fn(&mut [u32; 8], &[[u8; 64]]);

    /// Every backend this CPU can run, by name. The hardware one is left
    /// out only when the CPU lacks the SHA extensions.
    fn backends() -> Vec<(&'static str, Backend)> {
        let mut out: Vec<(&'static str, Backend)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            out.push(("sha-ni", |state, blocks| {
                assert!(shani::compress(state, blocks));
            }));
        } else {
            eprintln!("no SHA extensions on this CPU: hardware backend not tested");
        }
        out
    }

    /// SHA-256 of `msg` on one backend, padded here rather than by
    /// [`Sha256::finalize`].
    fn digest_with(backend: Backend, msg: &[u8]) -> String {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(8 * msg.len() as u64).to_be_bytes());
        let mut state = H0;
        backend(&mut state, padded.as_chunks::<64>().0);
        let mut out = [0u8; 32];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
            *bytes = word.to_be_bytes();
        }
        Digest(out).to_hex()
    }

    #[test]
    fn nist_vectors() {
        for (msg, hex) in nist_cases() {
            assert_eq!(sha256(&msg).to_hex(), hex);
        }
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

    #[test]
    fn known_answers_at_padding_boundaries() {
        for (msg, hex) in padding_cases() {
            let len = msg.len();
            assert_eq!(sha256(&msg).to_hex(), hex, "len {len}");
            let mut h = Sha256::new();
            for byte in msg.chunks(1) {
                h.update(byte);
            }
            assert_eq!(h.finalize().to_hex(), hex, "len {len}, byte by byte");
        }
    }

    #[test]
    fn every_backend_meets_the_known_answers() {
        for (name, backend) in backends() {
            for (msg, hex) in nist_cases().into_iter().chain(padding_cases()) {
                let len = msg.len();
                assert_eq!(digest_with(backend, &msg), hex, "{name}, len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn backends_agree_on_random_states_and_blocks(
            state in collection::vec(any::<u32>(), 8..=8),
            bytes in collection::vec(any::<u8>(), 64..=256),
        ) {
            let start: [u32; 8] = state.try_into().expect("eight words");
            let blocks = bytes.as_chunks::<64>().0;
            let mut want = start;
            compress_portable(&mut want, blocks);
            for (name, backend) in backends() {
                let mut got = start;
                backend(&mut got, blocks);
                prop_assert!(got == want, "{name}: {got:08x?} != {want:08x?}");
            }
        }
    }

    #[test]
    fn update_split_at_every_offset_matches_oneshot() {
        let data: Vec<u8> = (0u32..3 * 64 + 17).map(|i| (i * 37 + 5) as u8).collect();
        let oneshot = sha256(&data);
        for i in 0..=data.len() {
            for j in i..=data.len() {
                let mut h = Sha256::new();
                h.update(&data[..i]);
                h.update(&data[i..j]);
                h.update(&data[j..]);
                assert_eq!(h.finalize(), oneshot, "split at {i} and {j}");
            }
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
