//! Diffie–Hellman groups over safe primes.
//!
//! A [`DhGroup`] carries a safe prime `p`, a generator `g` of the
//! prime-order subgroup of quadratic residues, and the subgroup order
//! `q = (p - 1) / 2`. Two parameter sets ship with the crate:
//!
//! * [`DhGroup::modp_2048`] — the RFC 3526 group 14 modulus, realistic
//!   production parameters;
//! * [`DhGroup::test_512`] — a locally generated 512-bit safe prime so unit
//!   tests and benches run in microseconds rather than milliseconds.

use std::fmt;
use std::sync::OnceLock;

use crate::bignum::{Montgomery, LIMBS, U2048};
use crate::entropy::EntropySource;

/// RFC 3526 group 14 (2048-bit MODP) modulus.
const MODP_2048_P: &str = "
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1 29024E08 8A67CC74
    020BBEA6 3B139B22 514A0879 8E3404DD EF9519B3 CD3A431B 302B0A6D F25F1437
    4FE1356D 6D51C245 E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
    EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D C2007CB8 A163BF05
    98DA4836 1C55D39A 69163FA8 FD24CF5F 83655D23 DCA3AD96 1C62F356 208552BB
    9ED52907 7096966D 670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
    E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9 DE2BCBF6 95581718
    3995497C EA956AE5 15D22618 98FA0510 15728E5A 8AACAA68 FFFFFFFF FFFFFFFF";

/// Locally generated 512-bit safe prime (seeded, reproducible; see DESIGN.md).
const TEST_512_P: &str = "
    e436cc12cc40f7d99dda4196ff7c95e079e89758fb4d1a238d9034267aaaced3
    cda249dd0ca53cce9ac2dfbfad68b840d02a01837ec075b1dc145ad6bdbb28bf";

/// A safe-prime Diffie–Hellman group.
///
/// Equality compares the parameters; the cached fixed-base table is
/// derived from them and takes no part.
#[derive(Clone)]
pub struct DhGroup {
    name: &'static str,
    p: U2048,
    q: U2048,
    g: U2048,
    g_table: OnceLock<FixedBase>,
}

impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        (self.name, &self.p, &self.q, &self.g) == (other.name, &other.p, &other.q, &other.g)
    }
}

impl Eq for DhGroup {}

/// Precomputed powers `g^(j·16^i)` in Montgomery form, for every 4-bit
/// digit position `i` of a `q`-sized exponent and every digit `j ∈ [1, 16)`.
///
/// `g^e` is then the product of one entry per non-zero digit of `e`: no
/// squarings at all. Entries are stored at the modulus's limb width, so
/// the table is `digits × 15 × n × 8` bytes: 120 KiB for `test_512`
/// (128 digits × 8 limbs), 1.9 MiB for `modp_2048` (512 × 32).
#[derive(Clone)]
struct FixedBase {
    mont: Montgomery,
    digits: usize,
    entries: Vec<u64>,
}

impl FixedBase {
    fn new(g: &U2048, p: &U2048, exp_bits: usize) -> Self {
        let mont = Montgomery::new(p);
        let n = mont.width();
        let digits = exp_bits.div_ceil(4);
        let mut entries = Vec::with_capacity(digits * 15 * n);
        // base = g^(16^i): the entries for digit i are base^1 .. base^15,
        // and base^16 starts digit i+1.
        let mut base = mont.to_mont(g);
        for _ in 0..digits {
            let mut power = base;
            for _ in 1..16 {
                entries.extend_from_slice(&power[..n]);
                power = mont.mul(&power, &base);
            }
            base = power;
        }
        FixedBase {
            mont,
            digits,
            entries,
        }
    }

    /// `g^e` for `e` no wider than the table.
    fn pow(&self, e: &U2048) -> U2048 {
        let n = self.mont.width();
        let mut acc: [u64; LIMBS] = self.mont.one();
        for i in 0..self.digits {
            let j = e.nibble(i);
            if j != 0 {
                let at = (i * 15 + j - 1) * n;
                acc = self.mont.mul(&acc, &self.entries[at..at + n]);
            }
        }
        self.mont.to_normal(&acc)
    }
}

impl fmt::Debug for DhGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DhGroup({}, {} bits)", self.name, self.p.bits())
    }
}

impl DhGroup {
    /// The RFC 3526 2048-bit MODP group (generator 2 squared to 4, which
    /// generates the order-`q` subgroup of quadratic residues).
    pub fn modp_2048() -> &'static DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP.get_or_init(|| {
            let p = U2048::from_hex(MODP_2048_P);
            let q = p.checked_sub(&U2048::ONE).shr1();
            DhGroup {
                name: "modp-2048",
                p,
                q,
                g: U2048::from_u64(4),
                g_table: OnceLock::new(),
            }
        })
    }

    /// A 512-bit safe-prime group for fast tests (generator 4).
    pub fn test_512() -> &'static DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP.get_or_init(|| {
            let p = U2048::from_hex(TEST_512_P);
            let q = p.checked_sub(&U2048::ONE).shr1();
            DhGroup {
                name: "test-512",
                p,
                q,
                g: U2048::from_u64(4),
                g_table: OnceLock::new(),
            }
        })
    }

    /// Group name (`"modp-2048"` or `"test-512"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The prime modulus `p`.
    pub fn modulus(&self) -> &U2048 {
        &self.p
    }

    /// The subgroup order `q = (p - 1) / 2`.
    pub fn order(&self) -> &U2048 {
        &self.q
    }

    /// The subgroup generator `g`.
    pub fn generator(&self) -> &U2048 {
        &self.g
    }

    /// `g^e mod p`, from the group's fixed-base table (built on first
    /// use). Exponents wider than `q` fall back to [`U2048::pow_mod`].
    pub fn pow_g(&self, e: &U2048) -> U2048 {
        let table = self
            .g_table
            .get_or_init(|| FixedBase::new(&self.g, &self.p, self.q.bits()));
        if e.bits() > 4 * table.digits {
            return self.g.pow_mod(e, &self.p);
        }
        table.pow(e)
    }

    /// `base^e mod p`.
    pub fn pow(&self, base: &U2048, e: &U2048) -> U2048 {
        base.pow_mod(e, &self.p)
    }

    /// Multiplies two group elements mod `p`.
    pub fn mul(&self, a: &U2048, b: &U2048) -> U2048 {
        a.mul_mod(b, &self.p)
    }

    /// Draws a uniformly random scalar in `[1, q)`.
    pub fn random_scalar(&self, entropy: &mut dyn EntropySource) -> U2048 {
        // Rejection-sample 2048-bit candidates masked to the order's bit
        // length; expected < 2 iterations.
        let qbits = self.q.bits();
        let nbytes = qbits.div_ceil(8);
        loop {
            let mut buf = vec![0u8; nbytes];
            entropy.fill(&mut buf);
            // Mask excess high bits.
            let excess = nbytes * 8 - qbits;
            if excess > 0 {
                buf[0] &= 0xFF >> excess;
            }
            let candidate = U2048::from_be_bytes(&buf);
            if !candidate.is_zero() && candidate < self.q {
                return candidate;
            }
        }
    }

    /// Whether `x` is a valid group element in `[1, p)`.
    pub fn contains(&self, x: &U2048) -> bool {
        !x.is_zero() && x < &self.p
    }

    /// Whether `x` lies in the order-`q` subgroup generated by `g`
    /// (`x ∈ [1, p)` and `x^q = 1`). In a safe-prime group the only other
    /// elements have order 2 or `2q`, and a Diffie–Hellman share of that
    /// kind would leak the parity of the secret exponent it meets.
    pub fn in_subgroup(&self, x: &U2048) -> bool {
        self.contains(x) && self.pow(x, &self.q) == U2048::ONE
    }

    /// Hashes arbitrary bytes to a scalar mod `q` (SHA-256 output reduced).
    pub fn hash_to_scalar(&self, data: &[u8]) -> U2048 {
        let digest = crate::sha256::sha256(data);
        let wide = U2048::from_be_bytes(digest.as_bytes());
        let r = wide.rem(&self.q);
        if r.is_zero() {
            U2048::ONE
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ChaChaEntropy;

    #[test]
    fn modp_2048_has_expected_size() {
        let g = DhGroup::modp_2048();
        assert_eq!(g.modulus().bits(), 2048);
        assert_eq!(g.order().bits(), 2047);
    }

    #[test]
    fn test_512_generator_has_order_q() {
        let g = DhGroup::test_512();
        assert_eq!(g.modulus().bits(), 512);
        // g^q == 1 (g generates the order-q subgroup).
        assert_eq!(g.pow_g(g.order()), U2048::ONE);
        // g^1 != 1.
        assert_ne!(g.pow_g(&U2048::ONE), U2048::ONE);
    }

    #[test]
    fn safe_prime_relation_holds() {
        for g in [DhGroup::test_512(), DhGroup::modp_2048()] {
            // p == 2q + 1
            let (two_q, carry) = g.order().overflowing_add(g.order());
            assert!(!carry);
            let expect = g.modulus().checked_sub(&U2048::ONE);
            assert_eq!(two_q, expect, "p = 2q+1 for {}", g.name());
        }
    }

    #[test]
    fn exponent_laws() {
        let g = DhGroup::test_512();
        let a = U2048::from_u64(12345);
        let b = U2048::from_u64(67890);
        // g^a * g^b == g^(a+b)
        let lhs = g.mul(&g.pow_g(&a), &g.pow_g(&b));
        let (sum, _) = a.overflowing_add(&b);
        assert_eq!(lhs, g.pow_g(&sum));
    }

    #[test]
    fn random_scalars_are_in_range_and_distinct() {
        let g = DhGroup::test_512();
        let mut e = ChaChaEntropy::from_u64_seed(1);
        let mut seen = Vec::new();
        for _ in 0..10 {
            let s = g.random_scalar(&mut e);
            assert!(!s.is_zero());
            assert!(&s < g.order());
            assert!(!seen.contains(&s));
            seen.push(s);
        }
    }

    #[test]
    fn hash_to_scalar_is_reduced_and_deterministic() {
        let g = DhGroup::test_512();
        let s1 = g.hash_to_scalar(b"hello");
        let s2 = g.hash_to_scalar(b"hello");
        assert_eq!(s1, s2);
        assert!(&s1 < g.order());
        assert_ne!(g.hash_to_scalar(b"a"), g.hash_to_scalar(b"b"));
    }

    #[test]
    fn fixed_base_pow_g_matches_pow_mod() {
        let mut e = ChaChaEntropy::from_u64_seed(2);
        for g in [DhGroup::test_512(), DhGroup::modp_2048()] {
            let p = g.modulus();
            let mut exps = vec![
                U2048::ZERO,
                U2048::ONE,
                U2048::from_u64(16),
                *g.order(),
                p.checked_sub(&U2048::ONE),
            ];
            exps.extend((0..3).map(|_| g.random_scalar(&mut e)));
            // 2p is wider than test_512's table (q's 511 bits round up to
            // 512): the pow_mod fallback. modp_2048's table spans all 2048
            // bits, so no U2048 exponent falls back there.
            if let (wide, false) = p.overflowing_add(p) {
                assert!(wide.bits() > g.order().bits().div_ceil(4) * 4);
                exps.push(wide);
            }
            for exp in &exps {
                assert_eq!(
                    g.pow_g(exp),
                    g.generator().pow_mod(exp, p),
                    "{}: g^{exp:?}",
                    g.name()
                );
            }
            assert_eq!(g.pow_g(g.order()), U2048::ONE);
        }
    }

    #[test]
    fn subgroup_membership() {
        let g = DhGroup::test_512();
        let p_minus_1 = g.modulus().checked_sub(&U2048::ONE);
        let element = g.pow_g(&U2048::from_u64(77));
        assert!(g.in_subgroup(&U2048::ONE));
        assert!(g.in_subgroup(&element));
        // Order 2, and an element of order 2q.
        assert!(!g.in_subgroup(&p_minus_1));
        assert!(!g.in_subgroup(&g.mul(&element, &p_minus_1)));
        assert!(!g.in_subgroup(&U2048::ZERO));
        assert!(!g.in_subgroup(g.modulus()));
    }

    #[test]
    fn contains_checks_bounds() {
        let g = DhGroup::test_512();
        assert!(!g.contains(&U2048::ZERO));
        assert!(g.contains(&U2048::ONE));
        assert!(!g.contains(g.modulus()));
    }
}
