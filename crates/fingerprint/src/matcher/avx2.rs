//! The matcher's two pair loops on AVX2, four pairs to a step: the
//! certified vote's key pass and the correspondence gate.
//!
//! Each lane runs the scalar code's IEEE operations in the same order,
//! and the kernels are compiled for `avx2` alone, without `fma`, so no
//! multiply and add are fused: every key and every gate mask equals the
//! scalar path's (DESIGN §18, "Dispatch"). The entry points check
//! `is_x86_feature_detected!("avx2")` and return `false`, having done
//! nothing, on a CPU without it. All of the matcher's `unsafe` code is
//! here.

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m256d, __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_pd, _mm256_and_si256,
    _mm256_andnot_pd, _mm256_blendv_pd, _mm256_castpd_si256, _mm256_cmp_pd, _mm256_loadu_pd,
    _mm256_movemask_pd, _mm256_mul_pd, _mm256_or_pd, _mm256_or_si256, _mm256_set1_epi64x,
    _mm256_set1_pd, _mm256_setzero_pd, _mm256_slli_epi64, _mm256_storeu_si256, _mm256_sub_epi64,
    _mm256_sub_pd, _mm256_xor_pd, _mm256_xor_si256, _CMP_GE_OQ, _CMP_LT_OQ, _CMP_NGT_UQ,
};
use std::f64::consts::{PI, TAU};

use super::{
    squared_distance, FilteredVote, Lanes, Minutia, ObservedLanes, PackedKey, PositionLanes, DELTA,
    LANES, PACK_BIAS, ROUNDER,
};

/// Whether the CPU has AVX2, the one feature the kernels are compiled
/// with. The standard library caches the answer, so a call costs a load.
pub(super) fn available() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// [`FilteredVote::key_pass`] four observed minutiae at a time: writes the
/// same keys into `bins` and returns `true`, or returns `false` without
/// touching `bins` when the CPU lacks AVX2. `count` must be positive.
pub(super) fn key_pass(
    vote: &FilteredVote,
    mod_pi: bool,
    template: &[Minutia],
    trig: &[(f64, f64)],
    observed: &[ObservedLanes],
    count: usize,
    bins: &mut [(u32, PackedKey)],
) -> bool {
    if !available() {
        return false;
    }
    if mod_pi {
        // SAFETY: `available` just checked that the CPU has AVX2, the one
        // feature `key_pass_unchecked` is compiled with.
        unsafe { key_pass_unchecked::<true>(vote, template, trig, observed, count, bins) };
    } else {
        // SAFETY: as above, `available` just checked for AVX2.
        unsafe { key_pass_unchecked::<false>(vote, template, trig, observed, count, bins) };
    }
    true
}

/// Calls `visit` exactly as `gate_scalar` does, testing four template
/// minutiae at a time, and returns `true`; or returns `false` without
/// calling it when the CPU lacks AVX2.
pub(super) fn gate(
    positions: &[PositionLanes],
    count: usize,
    observed: &[Minutia],
    gate: f64,
    visit: &mut impl FnMut(usize, usize, f64),
) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available` just checked that the CPU has AVX2, the one
    // feature `gate_unchecked` is compiled with.
    unsafe { gate_unchecked(positions, count, observed, gate, visit) };
    true
}

/// The four `f64`s of `lanes`.
#[target_feature(enable = "avx2")]
fn load(lanes: &Lanes) -> __m256d {
    // SAFETY: `load` runs only in the kernels, which `key_pass` and `gate`
    // call after `available` checked for AVX2; `lanes` is four `f64`s,
    // the 32 bytes `loadu` reads, and it needs no alignment.
    unsafe { _mm256_loadu_pd(lanes.as_ptr()) }
}

/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn key_pass_unchecked<const MOD_PI: bool>(
    vote: &FilteredVote,
    template: &[Minutia],
    trig: &[(f64, f64)],
    observed: &[ObservedLanes],
    count: usize,
    bins: &mut [(u32, PackedKey)],
) {
    let period = if MOD_PI { PI } else { TAU };
    let sign_bit = _mm256_set1_pd(-0.0);
    let period_v = _mm256_set1_pd(period);
    let two_periods = _mm256_set1_pd(2.0 * period);
    let pi = _mm256_set1_pd(PI);
    let half_pi = _mm256_set1_pd(PI / 2.0);
    let minus_half_pi = _mm256_set1_pd(-PI / 2.0);
    let zero = _mm256_setzero_pd();
    let (one, minus_one) = (_mm256_set1_pd(1.0), _mm256_set1_pd(-1.0));
    let inv_rotation_bin = _mm256_set1_pd(vote.inv_rotation_bin);
    let inv_translation_bin = _mm256_set1_pd(vote.inv_translation_bin);
    let rounder = _mm256_set1_pd(ROUNDER);
    let clear = _mm256_set1_pd(0.5 - DELTA);
    let rounder_bits = _mm256_set1_epi64x(ROUNDER.to_bits() as i64);
    let bias = _mm256_set1_epi64x(PACK_BIAS);
    let field_mask = _mm256_set1_epi64x((1 << 21) - 1);
    let all_ones = _mm256_set1_epi64x(-1);
    // `rounded_bits` on four lanes, as 64-bit lane ops: `rne(v)` biased
    // into `pack`'s field, from `sum = v + ROUNDER`.
    let rounded_bits = |sum: __m256d| {
        let bits = _mm256_sub_epi64(_mm256_castpd_si256(sum), rounder_bits);
        _mm256_and_si256(_mm256_add_epi64(bits, bias), field_mask)
    };
    for ((t, &(st, ct)), row) in template.iter().zip(trig).zip(bins.chunks_exact_mut(count)) {
        let (tx, ty, ta) = (
            _mm256_set1_pd(t.pos.x),
            _mm256_set1_pd(t.pos.y),
            _mm256_set1_pd(t.angle),
        );
        let (st, ct) = (_mm256_set1_pd(st), _mm256_set1_pd(ct));
        for (lanes, bins) in observed.iter().zip(row.chunks_mut(LANES)) {
            let (ox, oy, oa) = (load(&lanes.x), load(&lanes.y), load(&lanes.angle));
            let (so, co) = (load(&lanes.sin), load(&lanes.cos));
            // `fold_parity`'s one-period case: `a ∓ period` where
            // |a| ≥ period, with `a`'s sign; pairs two periods out or
            // more are marked below.
            let a = _mm256_sub_pd(oa, ta);
            let a_sign = _mm256_and_pd(a, sign_bit);
            let abs = _mm256_andnot_pd(sign_bit, a);
            let once = _mm256_cmp_pd::<_CMP_GE_OQ>(abs, period_v);
            let folds = _mm256_cmp_pd::<_CMP_LT_OQ>(abs, two_periods);
            let less = _mm256_sub_pd(a, _mm256_or_pd(period_v, a_sign));
            let less = _mm256_or_pd(_mm256_andnot_pd(sign_bit, less), a_sign);
            let d = _mm256_blendv_pd(a, less, once);
            let (dtheta, odd) = if MOD_PI {
                let low = _mm256_cmp_pd::<_CMP_LT_OQ>(d, minus_half_pi);
                let high = _mm256_cmp_pd::<_CMP_GE_OQ>(d, half_pi);
                let (up, down) = (_mm256_add_pd(d, pi), _mm256_sub_pd(d, pi));
                let dtheta = _mm256_blendv_pd(_mm256_blendv_pd(d, up, low), down, high);
                (dtheta, _mm256_xor_pd(_mm256_xor_pd(once, low), high))
            } else {
                let below = _mm256_cmp_pd::<_CMP_LT_OQ>(d, zero);
                (_mm256_blendv_pd(d, _mm256_add_pd(d, period_v), below), zero)
            };
            let sign = _mm256_blendv_pd(one, minus_one, odd);
            let s = _mm256_mul_pd(
                sign,
                _mm256_sub_pd(_mm256_mul_pd(so, ct), _mm256_mul_pd(co, st)),
            );
            let c = _mm256_mul_pd(
                sign,
                _mm256_add_pd(_mm256_mul_pd(co, ct), _mm256_mul_pd(so, st)),
            );
            let x = _mm256_sub_pd(
                ox,
                _mm256_sub_pd(_mm256_mul_pd(tx, c), _mm256_mul_pd(ty, s)),
            );
            let y = _mm256_sub_pd(
                oy,
                _mm256_add_pd(_mm256_mul_pd(tx, s), _mm256_mul_pd(ty, c)),
            );
            let r = _mm256_mul_pd(dtheta, inv_rotation_bin);
            let x = _mm256_mul_pd(x, inv_translation_bin);
            let y = _mm256_mul_pd(y, inv_translation_bin);
            let (sr, sx, sy) = (
                _mm256_add_pd(r, rounder),
                _mm256_add_pd(x, rounder),
                _mm256_add_pd(y, rounder),
            );
            // |v − rne(v)| < 1/2 − δ, with rne(v) = (v + ROUNDER) − ROUNDER.
            let near = |v: __m256d, sum: __m256d| {
                let gap = _mm256_andnot_pd(sign_bit, _mm256_sub_pd(v, _mm256_sub_pd(sum, rounder)));
                _mm256_cmp_pd::<_CMP_LT_OQ>(gap, clear)
            };
            let exact = _mm256_and_pd(
                _mm256_and_pd(folds, near(r, sr)),
                _mm256_and_pd(near(x, sx), near(y, sy)),
            );
            let key: __m256i = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_slli_epi64::<42>(rounded_bits(sr)),
                    _mm256_slli_epi64::<21>(rounded_bits(sx)),
                ),
                rounded_bits(sy),
            );
            // Every bit set, `EXACT`, in the lanes `exact` leaves clear.
            let key = _mm256_or_si256(key, _mm256_xor_si256(_mm256_castpd_si256(exact), all_ones));
            let mut keys = [0u64; LANES];
            // SAFETY: `key_pass` checked for AVX2 (`available`) before
            // calling this kernel; `keys` is four `u64`s, the 32 bytes
            // `storeu` writes, and it needs no alignment.
            unsafe { _mm256_storeu_si256(keys.as_mut_ptr().cast(), key) };
            for (bin, key) in bins.iter_mut().zip(keys) {
                bin.1 = key;
            }
        }
    }
}

/// Quads of template minutiae whose gate bits share one `u64` mask.
const MASK_QUADS: usize = 64 / LANES;

/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn gate_unchecked(
    positions: &[PositionLanes],
    count: usize,
    observed: &[Minutia],
    gate: f64,
    visit: &mut impl FnMut(usize, usize, f64),
) {
    let gate_v = _mm256_set1_pd(gate);
    for (oi, o) in observed.iter().enumerate() {
        let (ox, oy) = (_mm256_set1_pd(o.pos.x), _mm256_set1_pd(o.pos.y));
        for (block, quads) in positions.chunks(MASK_QUADS).enumerate() {
            // One bit per template minutia of the block, set where the
            // squared distance is not above the gate ("not greater" is
            // true for NaN, as `!(d2 > gate)` is), with no branch per
            // quad.
            let mut mask = 0u64;
            for (quad, lanes) in quads.iter().enumerate() {
                let dx = _mm256_sub_pd(ox, load(&lanes.x));
                let dy = _mm256_sub_pd(oy, load(&lanes.y));
                let d2 = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
                let pass = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NGT_UQ>(d2, gate_v));
                mask |= u64::from(pass as u32) << (quad * LANES);
            }
            let first = block * MASK_QUADS * LANES;
            if count - first < 64 {
                mask &= (1 << (count - first)) - 1;
            }
            while mask != 0 {
                let ti = first + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                // The scalar `d2` runs the lane's operations: the same value.
                visit(oi, ti, squared_distance(o, positions, ti));
            }
        }
    }
}
