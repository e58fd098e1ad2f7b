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

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

use crate::bignum::{jacobi, Montgomery, LIMBS, U2048};
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

/// Precomputed powers `y^(16^i)` in Montgomery form, one per 4-bit digit
/// position `i` of a modulus-sized exponent: the per-key table behind
/// [`crate::schnorr::PublicKey`]'s exponentiations.
///
/// `y^e` is evaluated by the Brickell–Gordon–McCurley–Wilson method: the
/// entries of all digits equal to `d` multiply into bucket `B_d`, and
/// `∏ B_d^d` is folded from the top digit value down as a running
/// product, so an exponent of `k` digits costs about `k + 28` products
/// and no squarings. The table stores one entry per digit where the `g`
/// table stores fifteen: 8 KiB for `test_512` (128 digits × 8 limbs),
/// 128 KiB for `modp_2048` (512 × 32).
pub(crate) struct DigitPowers {
    mont: Montgomery,
    digits: usize,
    entries: Vec<u64>,
}

impl DigitPowers {
    /// The table for base `y < p`, covering exponents of up to
    /// `p.bits()` bits: every `y^(p−1−e)` and `y^k` the protocol raises.
    pub(crate) fn new(y: &U2048, p: &U2048) -> Self {
        let mont = Montgomery::new(p);
        let n = mont.width();
        let digits = p.bits().div_ceil(4);
        let mut entries = Vec::with_capacity(digits * n);
        let mut base = mont.to_mont(y);
        for i in 0..digits {
            entries.extend_from_slice(&base[..n]);
            if i + 1 < digits {
                for _ in 0..4 {
                    base = mont.mul(&base, &base);
                }
            }
        }
        count(|c| c.table_builds += 1);
        DigitPowers {
            mont,
            digits,
            entries,
        }
    }

    /// `y^e mod p` for `e` below `2^(4·digits)`, which holds for every
    /// exponent below `p`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is wider than the table.
    pub(crate) fn pow(&self, e: &U2048) -> U2048 {
        assert!(e.bits() <= 4 * self.digits, "exponent wider than the table");
        count(|c| c.key_table += 1);
        let n = self.mont.width();
        let mut buckets = [[0u64; LIMBS]; 16];
        let mut filled = [false; 16];
        for (i, entry) in self.entries.chunks_exact(n).enumerate() {
            let d = e.nibble(i);
            if d == 0 {
                continue;
            }
            if filled[d] {
                buckets[d] = self.mont.mul(&buckets[d], entry);
            } else {
                buckets[d][..n].copy_from_slice(entry);
                filled[d] = true;
            }
        }
        // ∏ B_d^d = ∏_d (∏_{d' ≥ d} B_d'): `run` is the inner product.
        let mut run: Option<[u64; LIMBS]> = None;
        let mut acc: Option<[u64; LIMBS]> = None;
        for d in (1..16).rev() {
            if filled[d] {
                run = Some(match run {
                    Some(r) => self.mont.mul(&r, &buckets[d]),
                    None => buckets[d],
                });
            }
            if let Some(r) = &run {
                acc = Some(match acc {
                    Some(a) => self.mont.mul(&a, r),
                    None => *r,
                });
            }
        }
        acc.map_or(U2048::ONE, |a| self.mont.to_normal(&a))
    }
}

/// Modular exponentiations by kind, as counted on one thread.
///
/// The counters are per thread, so a shard driven start to finish on one
/// worker reads exact, schedule-independent deltas with
/// [`ModexpCounts::since`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ModexpCounts {
    /// Fixed-window exponentiations of an arbitrary base
    /// ([`DhGroup::pow`]), including `pow_g`'s fallback for exponents
    /// wider than its table.
    pub variable_base: u64,
    /// `g^e` from the group's fixed-base table ([`DhGroup::pow_g`]).
    pub g_table: u64,
    /// `y^e` from a public key's table (Schnorr verify, ElGamal seal).
    pub key_table: u64,
    /// Public-key tables built (about one variable-base exponentiation
    /// of squarings each). The group's `g` table is built once per
    /// process and is not counted.
    pub table_builds: u64,
}

impl ModexpCounts {
    /// The counts on the calling thread since it started.
    pub fn current() -> ModexpCounts {
        COUNTS.with(Cell::get)
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(&self, earlier: &ModexpCounts) -> ModexpCounts {
        ModexpCounts {
            variable_base: self.variable_base - earlier.variable_base,
            g_table: self.g_table - earlier.g_table,
            key_table: self.key_table - earlier.key_table,
            table_builds: self.table_builds - earlier.table_builds,
        }
    }
}

thread_local! {
    static COUNTS: Cell<ModexpCounts> = const {
        Cell::new(ModexpCounts {
            variable_base: 0,
            g_table: 0,
            key_table: 0,
            table_builds: 0,
        })
    };
}

/// Bumps this thread's counters.
fn count(bump: impl FnOnce(&mut ModexpCounts)) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        bump(&mut counts);
        c.set(counts);
    });
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
            return self.pow(&self.g, e);
        }
        count(|c| c.g_table += 1);
        table.pow(e)
    }

    /// `base^e mod p`.
    pub fn pow(&self, base: &U2048, e: &U2048) -> U2048 {
        count(|c| c.variable_base += 1);
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
        let mut full = [0u8; LIMBS * 8];
        let buf = &mut full[..nbytes];
        loop {
            entropy.fill(buf);
            // Mask excess high bits.
            let excess = nbytes * 8 - qbits;
            if excess > 0 {
                buf[0] &= 0xFF >> excess;
            }
            let candidate = U2048::from_be_bytes(buf);
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
    ///
    /// For a safe prime the order-`q` subgroup is exactly the quadratic
    /// residues, so by Euler's criterion `x^q = 1` is the Legendre symbol
    /// `(x/p) = 1`: a binary Jacobi loop, with no exponentiation.
    /// Variable-time, which suits its public inputs.
    pub fn in_subgroup(&self, x: &U2048) -> bool {
        self.contains(x) && jacobi(x, &self.p) == 1
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

    /// Euler's criterion by exponentiation: the definition `in_subgroup`
    /// replaced.
    fn in_subgroup_by_pow(g: &DhGroup, x: &U2048) -> bool {
        g.contains(x) && x.pow_mod(g.order(), g.modulus()) == U2048::ONE
    }

    /// A uniformly random value below `p`.
    fn random_below(g: &DhGroup, e: &mut ChaChaEntropy) -> U2048 {
        let mut buf = [0u8; 256];
        e.fill(&mut buf);
        U2048::from_be_bytes(&buf).rem(g.modulus())
    }

    #[test]
    fn jacobi_subgroup_test_matches_euler_criterion() {
        let mut e = ChaChaEntropy::from_u64_seed(3);
        for g in [DhGroup::test_512(), DhGroup::modp_2048()] {
            let p = g.modulus();
            let minus_one = p.checked_sub(&U2048::ONE);
            let k = g.random_scalar(&mut e);
            let g_k = g.pow_g(&k);
            // 0, 1, p−1 (order 2), −g^k (order 2q: attack case 3b's
            // ephemerals), g^k, p and values with long runs of low zeros.
            let mut xs = vec![
                U2048::ZERO,
                U2048::ONE,
                minus_one,
                g.mul(&g_k, &minus_one),
                g_k,
                *p,
                U2048::from_u64(2),
                U2048::from_hex("3 0000000000000000 0000000000000000 0000000000000000"),
            ];
            xs.extend((0..200).map(|_| random_below(g, &mut e)));
            let mut residues = 0;
            for x in &xs {
                let expected = in_subgroup_by_pow(g, x);
                assert_eq!(g.in_subgroup(x), expected, "{}: {x:?}", g.name());
                residues += usize::from(expected);
            }
            // Random elements split about evenly between the two cosets.
            assert!((60..=150).contains(&residues), "{residues}");
            assert!(g.in_subgroup(&g_k) && !g.in_subgroup(&g.mul(&g_k, &minus_one)));
        }
    }

    #[test]
    fn digit_power_table_matches_pow_mod() {
        let mut e = ChaChaEntropy::from_u64_seed(4);
        for g in [DhGroup::test_512(), DhGroup::modp_2048()] {
            let p = g.modulus();
            let minus_one = p.checked_sub(&U2048::ONE);
            let g_x = g.pow_g(&g.random_scalar(&mut e));
            let mut outside = random_below(g, &mut e);
            while g.in_subgroup(&outside) || outside.is_zero() {
                outside = random_below(g, &mut e);
            }
            // Keys inside the subgroup (g^x, 1) and outside it (−g^x, p−1,
            // a random non-residue).
            let keys = [g_x, U2048::ONE, g.mul(&g_x, &minus_one), minus_one, outside];
            let sig_e = g.random_scalar(&mut e);
            let digits = p.bits().div_ceil(4);
            // The widest exponent the table covers: 4·digits one bits.
            let widest = U2048::from_hex(&"f".repeat(digits));
            let exps = [
                U2048::ZERO,
                U2048::ONE,
                U2048::from_u64(15),
                U2048::from_u64(16),
                *g.order(),
                minus_one.checked_sub(&sig_e),
                minus_one,
                g.random_scalar(&mut e),
                widest,
            ];
            for y in &keys {
                let table = DigitPowers::new(y, p);
                for exp in &exps {
                    assert_eq!(
                        table.pow(exp),
                        y.pow_mod(exp, p),
                        "{}: {y:?}^{exp:?}",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn counters_record_each_kind() {
        let g = DhGroup::test_512();
        let y = g.pow_g(&U2048::from_u64(5));
        let before = ModexpCounts::current();
        g.pow_g(&U2048::from_u64(7));
        g.pow(&y, &U2048::from_u64(7));
        let table = DigitPowers::new(&y, g.modulus());
        table.pow(g.order());
        assert!(g.in_subgroup(&y));
        assert_eq!(
            ModexpCounts::current().since(&before),
            ModexpCounts {
                variable_base: 1,
                g_table: 1,
                key_table: 1,
                table_builds: 1,
            },
            "the subgroup test is no exponentiation"
        );
    }

    #[test]
    fn contains_checks_bounds() {
        let g = DhGroup::test_512();
        assert!(!g.contains(&U2048::ZERO));
        assert!(g.contains(&U2048::ONE));
        assert!(!g.contains(g.modulus()));
    }

    impl DhGroup {
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
}
