//! The matcher as it stood before the allocation-light rewrite, kept
//! as a test oracle: a `SipHash` vote map, a full sort of the bins, fresh
//! vectors per bin and pass, `sin_cos`, three divisions and three
//! roundings per voting pair, `sin_cos` per transformed minutia and
//! `fmod` in every angle fold. The voting loop is split into
//! [`pair_coordinates`] and [`hough_votes`] so the tests can aim pairs
//! at rounding boundaries and compare whole vote tables; the arithmetic
//! is unchanged. The differential tests in `super::tests` compare its
//! results with [`super::MatchScratch::best_match`]'s bit for bit.

use std::collections::HashMap;

use super::{MatchConfig, MatchResult};
use crate::minutiae::Minutia;
use crate::template::Template;
use btd_sim::geom::MmPoint;

/// `minutiae::normalize_angle` with an unconditional `fmod`.
fn normalize_angle(a: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let mut x = a % tau;
    if x < 0.0 {
        x += tau;
    }
    x
}

fn angle_distance(a: f64, b: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let d = (normalize_angle(a) - normalize_angle(b)).abs();
    d.min(tau - d)
}

/// `Minutia::transformed` with its per-minutia `sin_cos`.
fn transform(m: &Minutia, theta: f64, tx: f64, ty: f64) -> Minutia {
    let (s, c) = theta.sin_cos();
    let x = m.pos.x * c - m.pos.y * s + tx;
    let y = m.pos.x * s + m.pos.y * c + ty;
    Minutia {
        pos: MmPoint::new(x, y),
        angle: normalize_angle(m.angle + theta),
        kind: m.kind,
    }
}

/// Folds an angle difference into this configuration's canonical
/// range: `[0, 2π)` for full headings, or the *signed* `[−π/2, π/2)`
/// for π-periodic orientations. The signed range matters: a tiny
/// negative orientation difference must fold near 0, not near π,
/// or Hough votes for the identity transform split into a spurious
/// 180°-rotation bin.
pub(super) fn fold(config: &MatchConfig, a: f64) -> f64 {
    if config.angle_mod_pi {
        let pi = std::f64::consts::PI;
        let mut d = a % pi;
        if d < -pi / 2.0 {
            d += pi;
        } else if d >= pi / 2.0 {
            d -= pi;
        }
        d
    } else {
        normalize_angle(a)
    }
}

/// Angular distance under this configuration's period.
fn angle_gap(config: &MatchConfig, a: f64, b: f64) -> f64 {
    if config.angle_mod_pi {
        fold(config, a - b).abs()
    } else {
        angle_distance(a, b)
    }
}

/// The reference match of one template.
pub(super) fn match_observation(
    template: &Template,
    observed: &[Minutia],
    config: &MatchConfig,
) -> MatchResult {
    if observed.len() < config.min_minutiae {
        return MatchResult::no_match();
    }

    // Evaluate the top few bins — vote quantization occasionally splits
    // the true transform across neighbouring bins, and committing to a
    // single bin causes catastrophic genuine misalignments.
    let mut bins = hough_votes(template, observed, config);
    bins.truncate(config.hough_bins_evaluated.max(1));
    let mut best_result = MatchResult::no_match();
    for (_, bin) in bins {
        let candidate = score_bin(template, observed, config, bin);
        if candidate.score > best_result.score {
            best_result = candidate;
        }
    }
    best_result
}

/// The (rotation, x, y) a pair votes for, in bin units, before rounding:
/// every pair hypothesizes a rotation by Δθ (the angle difference), and
/// the translation is whatever maps the template minutia onto the
/// observed one.
pub(super) fn pair_coordinates(config: &MatchConfig, t: &Minutia, o: &Minutia) -> (f64, f64, f64) {
    let dtheta = fold(config, o.angle - t.angle);
    let (s, c) = dtheta.sin_cos();
    let tx = o.pos.x - (t.pos.x * c - t.pos.y * s);
    let ty = o.pos.y - (t.pos.x * s + t.pos.y * c);
    (
        dtheta / config.rotation_bin_rad,
        tx / config.translation_bin_mm,
        ty / config.translation_bin_mm,
    )
}

/// Hough voting over (rotation, translation): every bin with its votes,
/// by votes descending, then key ascending.
pub(super) fn hough_votes(
    template: &Template,
    observed: &[Minutia],
    config: &MatchConfig,
) -> Vec<(u32, (i64, i64, i64))> {
    let mut votes: HashMap<(i64, i64, i64), u32> = HashMap::new();
    for t in template.minutiae() {
        for o in observed {
            let (r, x, y) = pair_coordinates(config, t, o);
            let key = (r.round() as i64, x.round() as i64, y.round() as i64);
            *votes.entry(key).or_insert(0) += 1;
        }
    }
    let mut bins: Vec<(u32, (i64, i64, i64))> = votes.into_iter().map(|(k, v)| (v, k)).collect();
    bins.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    bins
}

/// Refines the transform implied by one Hough bin and scores the
/// correspondences it induces.
///
/// Refinement is ICP-style: starting from the bin-centre transform, find
/// greedy one-to-one correspondences, re-estimate the rigid transform from
/// *those pairs only*, and repeat. Estimating only from matched pairs (as
/// opposed to every pair that voted near the bin) keeps accidental
/// pairings from contaminating the transform.
fn score_bin(
    template: &Template,
    observed: &[Minutia],
    config: &MatchConfig,
    (rb, xb, yb): (i64, i64, i64),
) -> MatchResult {
    let mut rotation = fold(config, rb as f64 * config.rotation_bin_rad);
    let mut translation = (
        xb as f64 * config.translation_bin_mm,
        yb as f64 * config.translation_bin_mm,
    );

    let mut pairs: Vec<(usize, usize)>;
    let iterations = config.refine_iterations.max(1);
    for iteration in 0..iterations {
        // Generous tolerances while the transform is still coarse.
        let slack = match iterations - 1 - iteration {
            0 => 1.0,
            1 => 1.3,
            _ => 1.6,
        };
        let transformed: Vec<Minutia> = template
            .minutiae()
            .iter()
            .map(|m| transform(m, rotation, translation.0, translation.1))
            .collect();
        pairs = correspondences(
            &transformed,
            observed,
            config.pos_tolerance_mm * slack,
            config.angle_tolerance_rad * slack,
            config,
        );
        if pairs.is_empty() {
            return MatchResult::no_match();
        }
        // Re-estimate the transform from the matched pairs only.
        let (mut sin2, mut cos2, mut sin1, mut cos1) = (0.0f64, 0.0, 0.0, 0.0);
        for &(ti, oi) in &pairs {
            let d = observed[oi].angle - template.minutiae()[ti].angle;
            sin2 += (2.0 * d).sin();
            cos2 += (2.0 * d).cos();
            sin1 += d.sin();
            cos1 += d.cos();
        }
        // Circular mean with the period the angle convention demands:
        // doubled angles for pi-periodic orientations.
        rotation = if config.angle_mod_pi {
            // Doubled-angle circular mean, kept in the signed [−π/2, π/2)
            // range so near-identity rotations stay near zero.
            fold(config, 0.5 * sin2.atan2(cos2))
        } else {
            normalize_angle(sin1.atan2(cos1))
        };
        let (s, c) = rotation.sin_cos();
        let (mut tx, mut ty) = (0.0f64, 0.0);
        for &(ti, oi) in &pairs {
            let tm = &template.minutiae()[ti];
            tx += observed[oi].pos.x - (tm.pos.x * c - tm.pos.y * s);
            ty += observed[oi].pos.y - (tm.pos.x * s + tm.pos.y * c);
        }
        translation = (tx / pairs.len() as f64, ty / pairs.len() as f64);
    }

    // --- Final correspondence count under exact tolerances ---------------
    let transformed: Vec<Minutia> = template
        .minutiae()
        .iter()
        .map(|m| transform(m, rotation, translation.0, translation.1))
        .collect();
    let matched = correspondences(
        &transformed,
        observed,
        config.pos_tolerance_mm,
        config.angle_tolerance_rad,
        config,
    )
    .len();

    // --- Normalization ---------------------------------------------------
    // The classic quadratic minutiae score: matched^2 over the product of
    // the candidate set sizes. Accidental alignments that pair only a few
    // minutiae are punished much harder than by a linear ratio, which is
    // what keeps impostor scores low on small partial prints.
    let obs_bound = bounding_radius(observed);
    let in_region = transformed
        .iter()
        .filter(|t| t.pos.x.hypot(t.pos.y) <= obs_bound + config.pos_tolerance_mm)
        .count()
        .max(config.min_minutiae);
    let denom = (observed.len() * in_region) as f64;
    let score = ((matched * matched) as f64 / denom).clamp(0.0, 1.0);

    MatchResult {
        score,
        matched,
        rotation,
        translation,
    }
}

/// Greedy one-to-one correspondences (closest pairs first) between
/// transformed template minutiae and observed minutiae. Returns
/// `(template_index, observed_index)` pairs.
fn correspondences(
    transformed: &[Minutia],
    observed: &[Minutia],
    pos_tolerance: f64,
    angle_tolerance: f64,
    config: &MatchConfig,
) -> Vec<(usize, usize)> {
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for (oi, o) in observed.iter().enumerate() {
        for (ti, t) in transformed.iter().enumerate() {
            let d = o.pos.distance_to(t.pos);
            if d <= pos_tolerance && angle_gap(config, o.angle, t.angle) <= angle_tolerance {
                candidates.push((d, ti, oi));
            }
        }
    }
    candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
    let mut t_used = vec![false; transformed.len()];
    let mut o_used = vec![false; observed.len()];
    let mut pairs = Vec::new();
    for (_, ti, oi) in candidates {
        if !t_used[ti] && !o_used[oi] {
            t_used[ti] = true;
            o_used[oi] = true;
            pairs.push((ti, oi));
        }
    }
    pairs
}

/// Radius of the observation cloud around the sensor-frame origin.
fn bounding_radius(minutiae: &[Minutia]) -> f64 {
    minutiae
        .iter()
        .map(|m| m.pos.x.hypot(m.pos.y))
        .fold(0.0, f64::max)
}
