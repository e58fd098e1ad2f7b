//! Fixed-width 2048-bit unsigned integer arithmetic.
//!
//! [`U2048`] stores 32 little-endian `u64` limbs. The crate needs exactly
//! the operations required by discrete-log cryptography over ≤2048-bit
//! moduli: comparison, addition/subtraction with carry, full 4096-bit
//! multiplication, Knuth Algorithm D division (for reduction mod `p` and
//! mod `q`), and modular exponentiation, which for odd moduli runs in the
//! Montgomery domain (CIOS products, 4-bit fixed window).

use std::cmp::Ordering;
use std::fmt;

/// Number of 64-bit limbs in a [`U2048`].
pub const LIMBS: usize = 32;

/// A 2048-bit unsigned integer (little-endian limbs).
///
/// # Example
///
/// ```
/// use btd_crypto::bignum::U2048;
///
/// let a = U2048::from_u64(10);
/// let b = U2048::from_u64(3);
/// let m = U2048::from_u64(7);
/// assert_eq!(a.mul_mod(&b, &m), U2048::from_u64(2)); // 30 mod 7
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct U2048 {
    limbs: [u64; LIMBS],
}

impl U2048 {
    /// The value 0.
    pub const ZERO: U2048 = U2048 { limbs: [0; LIMBS] };

    /// The value 1.
    pub const ONE: U2048 = {
        let mut limbs = [0u64; LIMBS];
        limbs[0] = 1;
        U2048 { limbs }
    };

    /// Creates a value from a single `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; LIMBS];
        limbs[0] = v;
        U2048 { limbs }
    }

    /// Creates a value from big-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than 256 bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= LIMBS * 8, "input exceeds 2048 bits");
        let mut limbs = [0u64; LIMBS];
        for (i, &b) in bytes.iter().rev().enumerate() {
            limbs[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        U2048 { limbs }
    }

    /// The value as 256 big-endian bytes (zero-padded on the left).
    pub fn to_be_bytes(&self) -> [u8; LIMBS * 8] {
        let mut out = [0u8; LIMBS * 8];
        for (i, limb) in self.limbs.iter().enumerate() {
            let be = limb.to_be_bytes();
            let start = (LIMBS - 1 - i) * 8;
            out[start..start + 8].copy_from_slice(&be);
        }
        out
    }

    /// Parses a (case-insensitive) hexadecimal string, ignoring ASCII
    /// whitespace.
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters or input longer than 512 hex digits.
    pub fn from_hex(hex: &str) -> Self {
        let digits: Vec<u8> = hex
            .bytes()
            .filter(|b| !b.is_ascii_whitespace())
            .map(|b| match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => panic!("invalid hex digit {:?}", b as char),
            })
            .collect();
        assert!(digits.len() <= LIMBS * 16, "hex input exceeds 2048 bits");
        let mut limbs = [0u64; LIMBS];
        for (i, &d) in digits.iter().rev().enumerate() {
            limbs[i / 16] |= (d as u64) << (4 * (i % 16));
        }
        U2048 { limbs }
    }

    /// Lowercase hex rendering without leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        let mut started = false;
        for limb in self.limbs.iter().rev() {
            if started {
                s.push_str(&format!("{:016x}", limb));
            } else if *limb != 0 {
                s.push_str(&format!("{:x}", limb));
                started = true;
            }
        }
        if s.is_empty() {
            s.push('0');
        }
        s
    }

    /// The raw limbs, least-significant first.
    pub fn limbs(&self) -> &[u64; LIMBS] {
        &self.limbs
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|l| *l == 0)
    }

    /// Whether the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs[0] & 1 == 0
    }

    /// Value of bit `i` (little-endian bit order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 2048`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < LIMBS * 64, "bit index out of range");
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Position of the highest set bit plus one (0 for the value zero).
    pub fn bits(&self) -> usize {
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if *limb != 0 {
                return i * 64 + (64 - limb.leading_zeros() as usize);
            }
        }
        0
    }

    /// `self + other`, returning the sum and the carry-out bit.
    #[allow(clippy::needless_range_loop)] // limb indexing mirrors the maths
    pub fn overflowing_add(&self, other: &U2048) -> (U2048, bool) {
        let mut out = [0u64; LIMBS];
        let mut carry = false;
        for i in 0..LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U2048 { limbs: out }, carry)
    }

    /// `self - other`, returning the difference and the borrow-out bit.
    #[allow(clippy::needless_range_loop)] // limb indexing mirrors the maths
    pub fn overflowing_sub(&self, other: &U2048) -> (U2048, bool) {
        let mut out = [0u64; LIMBS];
        let mut borrow = false;
        for i in 0..LIMBS {
            let (d1, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U2048 { limbs: out }, borrow)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn checked_sub(&self, other: &U2048) -> U2048 {
        let (diff, borrow) = self.overflowing_sub(other);
        assert!(!borrow, "bignum subtraction underflow");
        diff
    }

    /// Full 4096-bit product as 64 little-endian limbs.
    ///
    /// Both loops are bounded by the operands' occupied limbs: residues in
    /// a 512-bit group fill 8 of the 32 limbs, and scanning the zero tail
    /// would quadruple the work of every modular multiply.
    pub fn mul_wide(&self, other: &U2048) -> [u64; LIMBS * 2] {
        let mut out = [0u64; LIMBS * 2];
        let an = trim(&self.limbs).len();
        let bn = trim(&other.limbs).len();
        for i in 0..an {
            if self.limbs[i] == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in 0..bn {
                let cur =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (other.limbs[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            // Row i's carry slot i+bn sits strictly above everything rows
            // 0..i wrote, so plain assignment is exact.
            out[i + bn] = carry as u64;
        }
        out
    }

    /// `(self + other) mod m`. Inputs must already be `< m`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if an input is not reduced.
    pub fn add_mod(&self, other: &U2048, m: &U2048) -> U2048 {
        debug_assert!(self < m && other < m, "add_mod inputs must be reduced");
        let (sum, carry) = self.overflowing_add(other);
        if carry || &sum >= m {
            // carry implies sum+2^2048 >= m, so wrapping subtraction of m is
            // the correct residue in both branches.
            let (r, _) = sum.overflowing_sub(m);
            r
        } else {
            sum
        }
    }

    /// `(self - other) mod m`. Inputs must already be `< m`.
    pub fn sub_mod(&self, other: &U2048, m: &U2048) -> U2048 {
        debug_assert!(self < m && other < m, "sub_mod inputs must be reduced");
        let (diff, borrow) = self.overflowing_sub(other);
        if borrow {
            let (r, _) = diff.overflowing_add(m);
            r
        } else {
            diff
        }
    }

    /// `(self * other) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mul_mod(&self, other: &U2048, m: &U2048) -> U2048 {
        let wide = self.mul_wide(other);
        rem_wide(&wide, m)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &U2048) -> U2048 {
        let mut wide = [0u64; LIMBS * 2];
        wide[..LIMBS].copy_from_slice(&self.limbs);
        rem_wide(&wide, m)
    }

    /// `self^exp mod m`.
    ///
    /// Odd moduli (every group modulus and order here) run in the
    /// Montgomery domain with a 4-bit fixed window; even moduli take the
    /// square-and-multiply path.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero. `m == 1` yields zero.
    pub fn pow_mod(&self, exp: &U2048, m: &U2048) -> U2048 {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m == &U2048::ONE {
            return U2048::ZERO;
        }
        if m.is_even() {
            return self.pow_mod_square_multiply(exp, m);
        }
        Montgomery::new(m).pow(&self.rem(m), exp)
    }

    /// `self^exp mod m` by left-to-right square-and-multiply over
    /// [`U2048::mul_mod`]; `m` must exceed 1.
    fn pow_mod_square_multiply(&self, exp: &U2048, m: &U2048) -> U2048 {
        let base = self.rem(m);
        let mut acc = U2048::ONE;
        for i in (0..exp.bits()).rev() {
            acc = acc.mul_mod(&acc, m);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, m);
            }
        }
        acc
    }

    /// The 4-bit digit `i` of `self` (bits `4i .. 4i+4`).
    pub(crate) fn nibble(&self, i: usize) -> usize {
        // 4 divides 64, so a digit never straddles two limbs.
        ((self.limbs[i / 16] >> (4 * (i % 16))) & 0xF) as usize
    }

    /// `self^(-1) mod m` for prime `m`, via Fermat's little theorem.
    ///
    /// Schnorr verification does not call this: it computes `y^(p−1−e)`
    /// directly rather than inverting `y^e`.
    ///
    /// # Panics
    ///
    /// Panics if `self` reduces to zero mod `m` (no inverse) or if `m < 2`.
    pub fn inv_mod_prime(&self, m: &U2048) -> U2048 {
        assert!(m > &U2048::ONE, "modulus must exceed 1");
        let reduced = self.rem(m);
        assert!(!reduced.is_zero(), "zero has no modular inverse");
        let exp = m.checked_sub(&U2048::from_u64(2));
        reduced.pow_mod(&exp, m)
    }

    /// Shifts right by one bit.
    #[allow(clippy::needless_range_loop)] // limb indexing mirrors the maths
    pub fn shr1(&self) -> U2048 {
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS {
            out[i] = self.limbs[i] >> 1;
            if i + 1 < LIMBS {
                out[i] |= self.limbs[i + 1] << 63;
            }
        }
        U2048 { limbs: out }
    }
}

impl Ord for U2048 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..LIMBS).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U2048 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for U2048 {
    fn default() -> Self {
        U2048::ZERO
    }
}

impl fmt::Debug for U2048 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U2048(0x{})", self.to_hex())
    }
}

impl fmt::Display for U2048 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for U2048 {
    fn from(v: u64) -> Self {
        U2048::from_u64(v)
    }
}

/// Reduces a 4096-bit value (64 little-endian limbs) modulo `m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn rem_wide(wide: &[u64; LIMBS * 2], m: &U2048) -> U2048 {
    assert!(!m.is_zero(), "modulus must be non-zero");
    let num = trim(wide);
    let den = trim(&m.limbs);

    // num < den: the remainder is num itself (it fits — trimmed num can be
    // no longer than the trimmed modulus here).
    if cmp_limbs(num, den) == Ordering::Less {
        let mut limbs = [0u64; LIMBS];
        limbs[..num.len()].copy_from_slice(num);
        return U2048 { limbs };
    }

    // Single-limb divisor: schoolbook remainder.
    if den.len() == 1 {
        let d = den[0] as u128;
        let mut r: u128 = 0;
        for i in (0..num.len()).rev() {
            r = ((r << 64) | num[i] as u128) % d;
        }
        return U2048::from_u64(r as u64);
    }

    // Knuth Algorithm D, remainder only, on stack buffers: this sits on
    // the hot path of every modular multiply, so the quotient is never
    // materialised and nothing is heap-allocated.
    //
    // Normalize: shift so the divisor's top limb has its high bit set.
    let n = den.len();
    let shift = den[n - 1].leading_zeros() as usize;
    let mut v = [0u64; LIMBS];
    v[..n].copy_from_slice(den);
    if shift > 0 {
        for i in (1..n).rev() {
            v[i] = (v[i] << shift) | (v[i - 1] >> (64 - shift));
        }
        v[0] <<= shift;
    }

    // u = num << shift; u[num.len()] starts zero, so the top iteration
    // catches the shifted-out spill, and one further limb stays zero for
    // the algorithm's extra high digit.
    let mut u = [0u64; LIMBS * 2 + 2];
    u[..num.len()].copy_from_slice(num);
    if shift > 0 {
        for i in (1..=num.len()).rev() {
            u[i] = (u[i] << shift) | (u[i - 1] >> (64 - shift));
        }
        u[0] <<= shift;
    }
    let sn = if u[num.len()] != 0 {
        num.len() + 1
    } else {
        num.len()
    };

    let v_hi = v[n - 1] as u128;
    let v_next = v[n - 2] as u128;
    for j in (0..=sn - n).rev() {
        // Estimate the quotient digit from the top limbs.
        let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
        let mut qhat = top / v_hi;
        let mut rhat = top % v_hi;
        while qhat >= 1u128 << 64 || qhat * v_next > ((rhat << 64) | u[j + n - 2] as u128) {
            qhat -= 1;
            rhat += v_hi;
            if rhat >= 1u128 << 64 {
                break;
            }
        }

        // Multiply-and-subtract qhat * v from u[j .. j+n]; the quotient
        // digit itself is discarded.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * v[i] as u128 + carry;
            carry = p >> 64;
            let sub = (u[j + i] as i128) - (p as u64 as i128) - borrow;
            u[j + i] = sub as u64;
            borrow = if sub < 0 { 1 } else { 0 };
        }
        let sub = (u[j + n] as i128) - (carry as i128) - borrow;
        u[j + n] = sub as u64;

        if sub < 0 {
            // Estimate was one too large: add back.
            let mut c: u128 = 0;
            for i in 0..n {
                let s = u[j + i] as u128 + v[i] as u128 + c;
                u[j + i] = s as u64;
                c = s >> 64;
            }
            u[j + n] = u[j + n].wrapping_add(c as u64);
        }
    }

    // The remainder is u[..n] shifted back down.
    let mut limbs = [0u64; LIMBS];
    limbs[..n].copy_from_slice(&u[..n]);
    if shift > 0 {
        for i in 0..n {
            limbs[i] >>= shift;
            if i + 1 < n {
                limbs[i] |= u[i + 1] << (64 - shift);
            }
        }
    }
    U2048 { limbs }
}

/// Strips high zero limbs (returns at least one limb).
fn trim(a: &[u64]) -> &[u64] {
    let mut n = a.len();
    while n > 1 && a[n - 1] == 0 {
        n -= 1;
    }
    &a[..n]
}

/// Compares two little-endian limb slices (any lengths).
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    let a = trim(a);
    let b = trim(b);
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {}
        ord => return ord,
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Montgomery arithmetic modulo an odd `m > 1`, with `R = 2^(64·n)` for
/// the `n` limbs `m` occupies.
///
/// A residue `x` is held as `x·R mod m` in the low `n` limbs of a
/// `[u64; LIMBS]`; the limbs above `n` are never read. Products use CIOS
/// (coarsely integrated operand scanning): one pass over the multiplier's
/// limbs interleaves the schoolbook row with the word-by-word reduction,
/// so no double-width product and no division is ever formed.
#[derive(Clone)]
pub(crate) struct Montgomery {
    m: [u64; LIMBS],
    n: usize,
    /// `-m⁻¹ mod 2⁶⁴`.
    m_inv: u64,
    /// `R mod m`: the Montgomery form of 1.
    r1: [u64; LIMBS],
    /// `R² mod m`: multiplying by it converts into Montgomery form.
    r2: [u64; LIMBS],
}

impl Montgomery {
    /// The context for odd `m > 1`.
    pub(crate) fn new(m: &U2048) -> Self {
        debug_assert!(
            !m.is_even() && m > &U2048::ONE,
            "Montgomery needs odd m > 1"
        );
        let n = trim(&m.limbs).len();
        // Newton's iteration doubles the correct low bits of m[0]⁻¹ each
        // step: 1 → 64 bits in six.
        let m0 = m.limbs[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let mut wide = [0u64; LIMBS * 2];
        wide[n] = 1;
        let r1 = rem_wide(&wide, m);
        let r2 = r1.mul_mod(&r1, m);
        Montgomery {
            m: m.limbs,
            n,
            m_inv: inv.wrapping_neg(),
            r1: r1.limbs,
            r2: r2.limbs,
        }
    }

    /// Limbs per residue.
    pub(crate) fn width(&self) -> usize {
        self.n
    }

    /// The Montgomery form of 1.
    pub(crate) fn one(&self) -> [u64; LIMBS] {
        self.r1
    }

    /// `a·b·R⁻¹ mod m` for Montgomery residues `a, b` (low `n` limbs read).
    pub(crate) fn mul(&self, a: &[u64], b: &[u64]) -> [u64; LIMBS] {
        let mut out = [0u64; LIMBS];
        let n = self.n;
        match n {
            8 => cios::<8>(&mut out[..8], &a[..8], &b[..8], &self.m[..8], self.m_inv),
            32 => cios::<32>(&mut out, &a[..32], &b[..32], &self.m[..32], self.m_inv),
            _ => cios::<LIMBS>(&mut out[..n], &a[..n], &b[..n], &self.m[..n], self.m_inv),
        }
        out
    }

    /// Montgomery form of `x < m`.
    pub(crate) fn to_mont(&self, x: &U2048) -> [u64; LIMBS] {
        self.mul(&x.limbs, &self.r2)
    }

    /// Ordinary value of the Montgomery residue `x`.
    pub(crate) fn to_normal(&self, x: &[u64]) -> U2048 {
        U2048 {
            limbs: self.mul(x, &U2048::ONE.limbs),
        }
    }

    /// `base^exp mod m` for `base < m`, by a fixed 4-bit window: 14
    /// products build `base^2 .. base^15`, then each exponent digit costs
    /// four squarings and at most one multiply.
    pub(crate) fn pow(&self, base: &U2048, exp: &U2048) -> U2048 {
        let digits = exp.bits().div_ceil(4);
        if digits == 0 {
            return U2048::ONE;
        }
        let mut table = [[0u64; LIMBS]; 16];
        table[0] = self.r1;
        table[1] = self.to_mont(base);
        for j in 2..16 {
            table[j] = self.mul(&table[j - 1], &table[1]);
        }
        let mut acc = table[exp.nibble(digits - 1)];
        for i in (0..digits - 1).rev() {
            for _ in 0..4 {
                acc = self.mul(&acc, &acc);
            }
            let d = exp.nibble(i);
            if d != 0 {
                acc = self.mul(&acc, &table[d]);
            }
        }
        self.to_normal(&acc)
    }
}

/// One CIOS Montgomery product `out = a·b·R⁻¹ mod m` over `n = m.len()`
/// limbs, with `a, b < m` and `N ≥ n` the scratch size.
///
/// Called with `N == n` for the 8- and 32-limb moduli so the loops have
/// constant trip counts, and with `N == LIMBS` for every other width.
#[inline(always)]
fn cios<const N: usize>(out: &mut [u64], a: &[u64], b: &[u64], m: &[u64], m_inv: u64) {
    let n = m.len();
    // t[..n] plus two spill limbs; the invariant t < 2m keeps t_hi ≤ 1.
    let mut t = [0u64; N];
    let t = &mut t[..n];
    let mut t_hi = 0u64;
    for &bi in b {
        // t += a·bi
        let mut carry = 0u64;
        for j in 0..n {
            let s = t[j] as u128 + (a[j] as u128) * (bi as u128) + carry as u128;
            t[j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t_hi as u128 + carry as u128;
        let (t_n, t_n1) = (s as u64, (s >> 64) as u64);
        // t = (t + u·m) / 2⁶⁴, with u chosen to zero the low limb.
        let u = t[0].wrapping_mul(m_inv);
        let s = t[0] as u128 + (u as u128) * (m[0] as u128);
        let mut carry = (s >> 64) as u64;
        for j in 1..n {
            let s = t[j] as u128 + (u as u128) * (m[j] as u128) + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t_n as u128 + carry as u128;
        t[n - 1] = s as u64;
        t_hi = t_n1 + (s >> 64) as u64;
    }
    // t < 2m: one conditional subtraction makes it canonical. When t_hi
    // is set the borrow out of the low limbs cancels it.
    if t_hi != 0 || cmp_limbs(t, m) != Ordering::Less {
        let mut borrow = false;
        for (tj, &mj) in t.iter_mut().zip(m) {
            let (d1, b1) = tj.overflowing_sub(mj);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *tj = d2;
            borrow = b1 || b2;
        }
    }
    out.copy_from_slice(t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn u(v: u64) -> U2048 {
        U2048::from_u64(v)
    }

    #[test]
    fn hex_roundtrip() {
        let x = U2048::from_hex("deadbeef00112233445566778899aabbccddeeff");
        assert_eq!(x.to_hex(), "deadbeef00112233445566778899aabbccddeeff");
        assert_eq!(U2048::ZERO.to_hex(), "0");
        assert_eq!(U2048::from_hex("0"), U2048::ZERO);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let x = U2048::from_hex("0102030405060708090a0b0c");
        let bytes = x.to_be_bytes();
        assert_eq!(U2048::from_be_bytes(&bytes), x);
        // Short input is left-padded.
        assert_eq!(U2048::from_be_bytes(&[1, 0]), u(256));
    }

    #[test]
    fn ordering_and_bits() {
        assert!(u(5) < u(7));
        let big = U2048::from_hex("1".repeat(512).as_str());
        assert!(big > u(u64::MAX));
        assert_eq!(u(0).bits(), 0);
        assert_eq!(u(1).bits(), 1);
        assert_eq!(u(0x8000_0000_0000_0000).bits(), 64);
        assert_eq!(U2048::from_hex("1 00000000 00000000").bits(), 65);
    }

    #[test]
    fn add_sub_carry_chain() {
        let max64 = u(u64::MAX);
        let (sum, carry) = max64.overflowing_add(&U2048::ONE);
        assert!(!carry);
        assert_eq!(sum.bits(), 65);
        assert_eq!(sum.checked_sub(&U2048::ONE), max64);
    }

    #[test]
    fn full_width_overflow_carries_out() {
        let mut limbs = [u64::MAX; LIMBS];
        limbs[0] = u64::MAX;
        let all_ones = U2048 { limbs };
        let (wrapped, carry) = all_ones.overflowing_add(&U2048::ONE);
        assert!(carry);
        assert!(wrapped.is_zero());
    }

    #[test]
    fn mul_wide_small_values() {
        let p = u(0xFFFF_FFFF).mul_wide(&u(0xFFFF_FFFF));
        assert_eq!(p[0], 0xFFFF_FFFE_0000_0001);
        assert!(p[1..].iter().all(|l| *l == 0));
    }

    #[test]
    fn mul_wide_cross_limb() {
        // (2^64)^2 = 2^128 → limb 2.
        let two64 = U2048::from_hex("1 0000000000000000");
        let p = two64.mul_wide(&two64);
        assert_eq!(p[2], 1);
        assert!(p.iter().enumerate().all(|(i, l)| i == 2 || *l == 0));
    }

    #[test]
    fn rem_and_mul_mod() {
        assert_eq!(u(100).rem(&u(7)), u(2));
        assert_eq!(u(100).mul_mod(&u(100), &u(97)), u(10_000 % 97));
    }

    #[test]
    fn add_mod_wraps() {
        let m = u(97);
        assert_eq!(u(96).add_mod(&u(5), &m), u(4));
        assert_eq!(u(3).sub_mod(&u(5), &m), u(95));
    }

    #[test]
    fn add_mod_handles_carry_out_with_large_modulus() {
        // m just below 2^2048 so a+b overflows the limb array.
        let mut limbs = [u64::MAX; LIMBS];
        limbs[0] = u64::MAX - 10;
        let m = U2048 { limbs };
        let a = m.checked_sub(&U2048::ONE);
        let b = m.checked_sub(&U2048::from_u64(2));
        // (m-1) + (m-2) mod m == m-3
        assert_eq!(a.add_mod(&b, &m), m.checked_sub(&U2048::from_u64(3)));
    }

    #[test]
    fn pow_mod_matches_reference() {
        // 5^117 mod 19 == 1 (order of 5 mod 19 is 9, 117 = 9*13).
        assert_eq!(u(5).pow_mod(&u(117), &u(19)), u(1));
        assert_eq!(u(2).pow_mod(&u(10), &u(1_000_000)), u(1024));
        assert_eq!(u(7).pow_mod(&U2048::ZERO, &u(13)), U2048::ONE);
        assert_eq!(u(7).pow_mod(&u(5), &U2048::ONE), U2048::ZERO);
    }

    #[test]
    fn pow_mod_large_modulus() {
        // Fermat: a^(p-1) = 1 mod p for prime p (use the 512-bit test prime).
        let p = U2048::from_hex(
            "e436cc12cc40f7d99dda4196ff7c95e079e89758fb4d1a238d9034267aaaced3\
             cda249dd0ca53cce9ac2dfbfad68b840d02a01837ec075b1dc145ad6bdbb28bf",
        );
        let a = u(123_456_789);
        let exp = p.checked_sub(&U2048::ONE);
        assert_eq!(a.pow_mod(&exp, &p), U2048::ONE);
    }

    /// A value of `n` random limbs.
    fn random_limbs(rng: &mut TestRng, n: usize) -> U2048 {
        let mut limbs = [0u64; LIMBS];
        for limb in &mut limbs[..n] {
            *limb = rng.next_u64();
        }
        U2048 { limbs }
    }

    #[test]
    fn montgomery_pow_matches_square_multiply_at_every_width() {
        let mut rng = TestRng::for_case(12);
        for n in 1..=LIMBS {
            for top_bit_set in [false, true] {
                let mut m = random_limbs(&mut rng, n);
                m.limbs[0] |= 1;
                if top_bit_set {
                    // Products land in [m, 2m) most often here, and t can
                    // spill past n limbs: the final-subtraction path.
                    m.limbs[n - 1] |= 1 << 63;
                } else {
                    m.limbs[n - 1] = (m.limbs[n - 1] >> 1).max(1);
                }
                if m == U2048::ONE {
                    m = u(3);
                }
                // A base one limb wider than m exercises the reduction.
                let base = random_limbs(&mut rng, (n + 1).min(LIMBS));
                let exp = random_limbs(&mut rng, n.min(4));
                assert_eq!(
                    base.pow_mod(&exp, &m),
                    base.pow_mod_square_multiply(&exp, &m),
                    "{n} limbs, top bit {top_bit_set}"
                );
            }
        }
    }

    #[test]
    fn montgomery_pow_edge_cases() {
        let rfc3526 = *crate::group::DhGroup::modp_2048().modulus();
        let test512 = *crate::group::DhGroup::test_512().modulus();
        let mut rng = TestRng::for_case(13);
        for m in [u(3), u(u64::MAX), test512, rfc3526] {
            let below = random_limbs(&mut rng, 32).rem(&m);
            let above = match m.overflowing_add(&below) {
                (sum, false) => sum,
                (_, true) => U2048 {
                    limbs: [u64::MAX; LIMBS],
                },
            };
            assert!(above >= m);
            let exps = [U2048::ZERO, U2048::ONE, u(2), random_limbs(&mut rng, 2)];
            for base in [U2048::ZERO, U2048::ONE, below, m, above] {
                for exp in &exps {
                    assert_eq!(
                        base.pow_mod(exp, &m),
                        base.pow_mod_square_multiply(exp, &m),
                        "{base:?}^{exp:?} mod {m:?}"
                    );
                }
            }
            assert_eq!(
                above.pow_mod(&U2048::ONE, &m),
                above.rem(&m),
                "base >= m reduces"
            );
        }
        assert_eq!(test512.pow_mod(&u(5), &U2048::ONE), U2048::ZERO, "m = 1");
        // Even moduli take the square-and-multiply path.
        assert_eq!(u(3).pow_mod(&u(4), &u(10)), u(1));
    }

    #[test]
    fn inverse_free_exponent_identity() {
        // y^e · y^(p−1−e) ≡ 1 for every y in [1, p): Schnorr verification
        // computes y^(p−1−e) where it would otherwise invert y^e.
        let p = u(101);
        let p_minus_1 = u(100);
        for y in [2u64, 3, 50, 100] {
            for e in [1u64, 7, 99] {
                let inv = u(y).pow_mod(&p_minus_1.checked_sub(&u(e)), &p);
                assert_eq!(
                    u(y).pow_mod(&u(e), &p).mul_mod(&inv, &p),
                    U2048::ONE,
                    "y = {y}, e = {e}"
                );
            }
        }
        // Zero lies outside [1, p) and has no inverse: the product is 0.
        let inv = U2048::ZERO.pow_mod(&u(99), &p);
        assert_eq!(
            U2048::ZERO.pow_mod(&U2048::ONE, &p).mul_mod(&inv, &p),
            U2048::ZERO
        );

        // Random y of both groups outside the order-q subgroup (y^q = −1).
        let mut rng = TestRng::for_case(14);
        for group in [
            crate::group::DhGroup::test_512(),
            crate::group::DhGroup::modp_2048(),
        ] {
            let p = group.modulus();
            let p_minus_1 = p.checked_sub(&U2048::ONE);
            let mut checked = 0;
            while checked < 3 {
                let y = random_limbs(&mut rng, LIMBS).rem(p);
                if y.is_zero() || y.pow_mod(group.order(), p) == U2048::ONE {
                    continue;
                }
                let e = random_limbs(&mut rng, LIMBS).rem(group.order());
                let inv = y.pow_mod(&p_minus_1.checked_sub(&e), p);
                assert_eq!(
                    y.pow_mod(&e, p).mul_mod(&inv, p),
                    U2048::ONE,
                    "{}",
                    group.name()
                );
                checked += 1;
            }
        }
    }

    #[test]
    fn inverse_mod_prime() {
        let p = u(101);
        for a in [2u64, 3, 50, 100] {
            let inv = u(a).inv_mod_prime(&p);
            assert_eq!(u(a).mul_mod(&inv, &p), U2048::ONE, "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "no modular inverse")]
    fn inverse_of_zero_panics() {
        let _ = U2048::ZERO.inv_mod_prime(&u(101));
    }

    #[test]
    fn shr1_halves() {
        assert_eq!(u(10).shr1(), u(5));
        let two64 = U2048::from_hex("1 0000000000000000");
        assert_eq!(two64.shr1(), u(1u64 << 63));
    }

    #[test]
    fn division_reconstruction_small() {
        // Exhaustive-ish check against u128 arithmetic.
        let cases: [(u128, u128); 6] = [
            (12345678901234567890, 97),
            (u128::from(u64::MAX) + 5, u64::MAX as u128),
            (1 << 100, (1 << 50) + 3),
            (999, 1000),
            (1000, 1000),
            (0, 5),
        ];
        for (n, d) in cases {
            let nb = U2048::from_be_bytes(&n.to_be_bytes());
            let db = U2048::from_be_bytes(&d.to_be_bytes());
            let r = nb.rem(&db);
            let expect = U2048::from_be_bytes(&(n % d).to_be_bytes());
            assert_eq!(r, expect, "{} mod {}", n, d);
        }
    }

    #[test]
    fn division_add_back_branch() {
        // A case engineered to hit Knuth D's rare "add back" correction:
        // numerator with a run of high ones against a divisor of the form
        // 2^k - small.
        let n =
            U2048::from_hex("7fffffffffffffff ffffffffffffffff 0000000000000000 0000000000000003");
        let d = U2048::from_hex("8000000000000000 0000000000000001");
        let r = n.rem(&d);
        // Cross-check with an independent route: subtract d*q step by step
        // using mul_mod identity r = n mod d  ⇒  (n - r) mod d == 0.
        let diff = n.checked_sub(&r);
        assert_eq!(diff.rem(&d), U2048::ZERO);
        assert!(r < d);
    }

    #[test]
    fn rem_wide_reduces_product() {
        let a = U2048::from_hex("ffffffffffffffffffffffffffffffff");
        let m = u(1_000_003);
        let wide = a.mul_wide(&a);
        let r = rem_wide(&wide, &m);
        assert!(r < m);
        // (a mod m)^2 mod m must agree.
        let a_red = a.rem(&m);
        assert_eq!(a_red.mul_mod(&a_red, &m), r);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_u2048(max_limbs: usize) -> impl Strategy<Value = U2048> {
        proptest::collection::vec(any::<u64>(), 1..=max_limbs).prop_map(|v| {
            let mut limbs = [0u64; LIMBS];
            limbs[..v.len()].copy_from_slice(&v);
            U2048 { limbs }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn add_then_sub_roundtrips(a in arb_u2048(16), b in arb_u2048(16)) {
            let (sum, carry) = a.overflowing_add(&b);
            prop_assert!(!carry);
            prop_assert_eq!(sum.checked_sub(&b), a);
        }

        #[test]
        fn mul_mod_commutes(a in arb_u2048(8), b in arb_u2048(8), m in arb_u2048(8)) {
            prop_assume!(!m.is_zero());
            prop_assert_eq!(a.mul_mod(&b, &m), b.mul_mod(&a, &m));
        }

        #[test]
        fn rem_is_canonical(a in arb_u2048(16), m in arb_u2048(8)) {
            prop_assume!(!m.is_zero());
            let r = a.rem(&m);
            prop_assert!(r < m);
            // (a - r) divisible by m: check via second reduction.
            let diff = a.checked_sub(&r);
            prop_assert_eq!(diff.rem(&m), U2048::ZERO);
        }

        #[test]
        fn pow_mod_addition_law(a in arb_u2048(2), e1 in any::<u16>(), e2 in any::<u16>(), m in arb_u2048(2)) {
            prop_assume!(m > U2048::ONE);
            let lhs = a.pow_mod(&U2048::from_u64(e1 as u64 + e2 as u64), &m);
            let rhs = a
                .pow_mod(&U2048::from_u64(e1 as u64), &m)
                .mul_mod(&a.pow_mod(&U2048::from_u64(e2 as u64), &m), &m);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn bytes_roundtrip(a in arb_u2048(32)) {
            prop_assert_eq!(U2048::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn hex_roundtrip_prop(a in arb_u2048(32)) {
            prop_assert_eq!(U2048::from_hex(&a.to_hex()), a);
        }
    }
}
