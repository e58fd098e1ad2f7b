//! Partial-fingerprint matching by Hough alignment voting.
//!
//! The paper's local-identity mechanism assumes partial-print matching "is
//! robust enough" (§IV-A, assumption 3, citing score-level fusion work).
//! This matcher recovers the unknown rigid transform between an enrolled
//! template (fingertip frame) and an observation (sensor frame) by letting
//! every (template, observed) minutia pair vote for the transform it
//! implies, then scoring greedy one-to-one correspondences under the best
//! transform.

use crate::minutiae::{angle_distance, normalize_angle, Minutia};
use crate::template::Template;

/// Matcher tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Max positional error for a correspondence, millimetres.
    pub pos_tolerance_mm: f64,
    /// Max angular error for a correspondence, radians.
    pub angle_tolerance_rad: f64,
    /// Rotation quantization for Hough voting, radians.
    pub rotation_bin_rad: f64,
    /// Translation quantization for Hough voting, millimetres.
    pub translation_bin_mm: f64,
    /// Score at or above which the match is accepted as genuine.
    pub score_threshold: f64,
    /// Score at or below which the observation is *conclusively* someone
    /// else's finger. Scores between the two thresholds are inconclusive —
    /// typical of noisy genuine captures — and should not be treated as
    /// evidence of fraud.
    pub reject_threshold: f64,
    /// Minimum matched correspondences for an accept: the quadratic score
    /// is noisy on tiny observations, so a high score from very few pairs
    /// is treated as inconclusive rather than as a match.
    pub min_match_count: usize,
    /// Minimum observed minutiae for a meaningful match attempt.
    pub min_minutiae: usize,
    /// Minimum observed minutiae before a low score may be treated as a
    /// *conclusive* reject rather than merely inconclusive.
    pub reject_min_minutiae: usize,
    /// How many of the top-voted Hough bins to refine and score (the best
    /// result wins). Noisy observations split the true transform's votes
    /// across neighbouring bins, so evaluating more candidates trades a
    /// little work for robustness.
    pub hough_bins_evaluated: usize,
    /// ICP refinement iterations per bin. More iterations recover noisy
    /// genuine transforms better but also let impostor alignments
    /// over-fit; keep low unless the observation noise demands it.
    pub refine_iterations: usize,
    /// Treat minutia directions as π-periodic orientations instead of full
    /// 2π headings. Image-domain extraction ([`crate::extract`]) recovers
    /// direction only up to the ridge's sign, so matching extracted
    /// observations needs this mode.
    pub angle_mod_pi: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            pos_tolerance_mm: 0.9,
            angle_tolerance_rad: 0.5,
            rotation_bin_rad: 0.18,
            translation_bin_mm: 1.2,
            score_threshold: 0.38,
            reject_threshold: 0.20,
            min_match_count: 7,
            min_minutiae: 4,
            reject_min_minutiae: 8,
            hough_bins_evaluated: 4,
            refine_iterations: 1,
            angle_mod_pi: false,
        }
    }
}

impl MatchConfig {
    /// The configuration for matching image-extracted observations
    /// (π-periodic directions, slightly wider angular tolerance).
    pub fn for_image_extraction() -> Self {
        MatchConfig {
            angle_mod_pi: true,
            angle_tolerance_rad: 0.55,
            pos_tolerance_mm: 0.6,
            rotation_bin_rad: 0.35,
            hough_bins_evaluated: 8,
            refine_iterations: 3,
            score_threshold: 0.45,
            ..MatchConfig::default()
        }
    }

    /// Folds an angle difference into this configuration's canonical
    /// range: `[0, 2π)` for full headings, or the *signed* `[−π/2, π/2)`
    /// for π-periodic orientations. The signed range matters: a tiny
    /// negative orientation difference must fold near 0, not near π,
    /// or Hough votes for the identity transform split into a spurious
    /// 180°-rotation bin.
    fn fold(&self, a: f64) -> f64 {
        if self.angle_mod_pi {
            let pi = std::f64::consts::PI;
            // `fmod` is exact and returns `a` itself when |a| < π.
            let mut d = if a.abs() < pi { a } else { a % pi };
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
    fn angle_gap(&self, a: f64, b: f64) -> f64 {
        if self.angle_mod_pi {
            self.fold(a - b).abs()
        } else {
            angle_distance(a, b)
        }
    }
}

/// The outcome of a match attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchResult {
    /// Normalized similarity in `[0, 1]`.
    pub score: f64,
    /// Number of minutia correspondences under the best transform.
    pub matched: usize,
    /// Recovered rotation (template → sensor frame), radians.
    pub rotation: f64,
    /// Recovered translation, millimetres.
    pub translation: (f64, f64),
}

impl MatchResult {
    /// A definite non-match.
    pub fn no_match() -> Self {
        MatchResult {
            score: 0.0,
            matched: 0,
            rotation: 0.0,
            translation: (0.0, 0.0),
        }
    }

    /// Whether this result clears `config`'s acceptance criteria (score
    /// threshold and minimum matched-pair count).
    pub fn is_accepted(&self, config: &MatchConfig) -> bool {
        self.score >= config.score_threshold && self.matched >= config.min_match_count
    }
}

/// Matches an observation (sensor-frame minutiae) against a template.
///
/// Returns [`MatchResult::no_match`] when the observation has fewer than
/// [`MatchConfig::min_minutiae`] points.
///
/// # Example
///
/// ```
/// use btd_fingerprint::matcher::{match_observation, MatchConfig};
/// use btd_fingerprint::pattern::FingerPattern;
/// use btd_fingerprint::enroll::enroll;
/// use btd_fingerprint::minutiae::CaptureWindow;
/// use btd_fingerprint::quality::CaptureConditions;
/// use btd_sim::geom::MmPoint;
/// use btd_sim::rng::SimRng;
///
/// let finger = FingerPattern::generate(1, 0);
/// let mut rng = SimRng::seed_from(2);
/// let template = enroll(&finger, 5, &mut rng);
/// let window = CaptureWindow::centered(MmPoint::new(0.0, 2.0), 8.0, 8.0);
/// let obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
/// let genuine = match_observation(&template, &obs.minutiae, &MatchConfig::default());
///
/// let impostor_finger = FingerPattern::generate(2, 0);
/// let obs2 = impostor_finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
/// let impostor = match_observation(&template, &obs2.minutiae, &MatchConfig::default());
/// assert!(genuine.score > impostor.score);
/// ```
pub fn match_observation(
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
    let bins = top_hough_bins(template, observed, config);
    let obs_bound = bounding_radius(observed);
    let mut work = Workspace::new(template.len(), observed.len());
    let mut best_result = MatchResult::no_match();
    for &(_, bin) in &bins {
        let candidate = score_bin(template, observed, config, bin, obs_bound, &mut work);
        if candidate.score > best_result.score {
            best_result = candidate;
        }
    }
    best_result
}

/// A Hough bin: quantized (rotation, x translation, y translation).
type BinKey = (i64, i64, i64);

/// Hough voting over (rotation, translation): every (template, observed)
/// pair hypothesizes a rotation by the angle difference and whatever
/// translation then maps the template minutia onto the observed one.
/// Returns the `hough_bins_evaluated` (at least one) most-voted bins with
/// their votes, ordered by votes descending, then key ascending.
///
/// Votes are counted in an open-addressing table sized for one vote per
/// pair, so it never grows. The (votes, key) order is total over distinct
/// keys, so the bins chosen do not depend on how the table is laid out.
fn top_hough_bins(
    template: &Template,
    observed: &[Minutia],
    config: &MatchConfig,
) -> Vec<(u32, BinKey)> {
    let pairs = template.len() * observed.len();
    // At most half full: short probe runs.
    let slot_bits = (2 * pairs).next_power_of_two().max(16).trailing_zeros();
    // Each slot holds 1 + an index into `bins`; 0 marks an empty slot.
    let mut slots = vec![0u32; 1 << slot_bits];
    let mut bins: Vec<(u32, BinKey)> = Vec::with_capacity(pairs);
    for t in template.minutiae() {
        for o in observed {
            let dtheta = config.fold(o.angle - t.angle);
            let (s, c) = dtheta.sin_cos();
            let tx = o.pos.x - (t.pos.x * c - t.pos.y * s);
            let ty = o.pos.y - (t.pos.x * s + t.pos.y * c);
            let key = (
                (dtheta / config.rotation_bin_rad).round() as i64,
                (tx / config.translation_bin_mm).round() as i64,
                (ty / config.translation_bin_mm).round() as i64,
            );
            let mut slot = bin_hash(key) >> (64 - slot_bits);
            loop {
                match slots[slot as usize] {
                    0 => {
                        bins.push((1, key));
                        slots[slot as usize] = bins.len() as u32;
                        break;
                    }
                    i if bins[i as usize - 1].1 == key => {
                        bins[i as usize - 1].0 += 1;
                        break;
                    }
                    _ => slot = (slot + 1) & ((1 << slot_bits) - 1),
                }
            }
        }
    }
    let by_rank = |a: &(u32, BinKey), b: &(u32, BinKey)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
    let keep = config.hough_bins_evaluated.max(1);
    if bins.len() > keep {
        bins.select_nth_unstable_by(keep - 1, by_rank);
        bins.truncate(keep);
    }
    bins.sort_unstable_by(by_rank);
    bins
}

/// A multiplicative hash of a bin key; the high bits are the well mixed
/// ones.
fn bin_hash((r, x, y): BinKey) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    [r, x, y]
        .iter()
        .fold(0u64, |h, &w| (h.rotate_left(23) ^ w as u64).wrapping_mul(K))
}

/// Buffers one [`match_observation`] call shares across its bins and
/// refinement passes. They hold template-derived minutiae, so they live
/// only for the call and have no `Debug`.
struct Workspace {
    /// The template under the current transform.
    transformed: Vec<Minutia>,
    /// Candidate correspondences `(distance, template, observed)`.
    candidates: Vec<(f64, usize, usize)>,
    /// Greedy one-to-one correspondences `(template, observed)`.
    pairs: Vec<(usize, usize)>,
    /// Which template minutiae are already paired.
    t_used: Vec<bool>,
    /// Which observed minutiae are already paired.
    o_used: Vec<bool>,
}

impl Workspace {
    fn new(template_len: usize, observed_len: usize) -> Self {
        Workspace {
            transformed: Vec::with_capacity(template_len),
            candidates: Vec::new(),
            pairs: Vec::with_capacity(template_len.min(observed_len)),
            t_used: Vec::with_capacity(template_len),
            o_used: Vec::with_capacity(observed_len),
        }
    }

    /// Puts the template under the rigid transform (rotate by `theta`,
    /// then translate) into `self.transformed`.
    fn transform(&mut self, template: &Template, theta: f64, (tx, ty): (f64, f64)) {
        let sin_cos = theta.sin_cos();
        self.transformed.clear();
        self.transformed.extend(
            template
                .minutiae()
                .iter()
                .map(|m| m.transformed_sin_cos(theta, sin_cos, tx, ty)),
        );
    }

    /// Greedy one-to-one correspondences (closest pairs first) between
    /// `self.transformed` and `observed`, into `self.pairs`.
    ///
    /// Ties in distance go to the candidate found first in (observed,
    /// template) order, as a stable sort of the candidates in that push
    /// order would leave them.
    fn correspond(
        &mut self,
        observed: &[Minutia],
        pos_tolerance: f64,
        angle_tolerance: f64,
        config: &MatchConfig,
    ) {
        self.candidates.clear();
        for (oi, o) in observed.iter().enumerate() {
            for (ti, t) in self.transformed.iter().enumerate() {
                let d = o.pos.distance_to(t.pos);
                if d <= pos_tolerance && config.angle_gap(o.angle, t.angle) <= angle_tolerance {
                    self.candidates.push((d, ti, oi));
                }
            }
        }
        self.candidates.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.2.cmp(&b.2))
                .then(a.1.cmp(&b.1))
        });
        self.t_used.clear();
        self.t_used.resize(self.transformed.len(), false);
        self.o_used.clear();
        self.o_used.resize(observed.len(), false);
        self.pairs.clear();
        for &(_, ti, oi) in &self.candidates {
            if !self.t_used[ti] && !self.o_used[oi] {
                self.t_used[ti] = true;
                self.o_used[oi] = true;
                self.pairs.push((ti, oi));
            }
        }
    }
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
    (rb, xb, yb): BinKey,
    obs_bound: f64,
    work: &mut Workspace,
) -> MatchResult {
    let mut rotation = config.fold(rb as f64 * config.rotation_bin_rad);
    let mut translation = (
        xb as f64 * config.translation_bin_mm,
        yb as f64 * config.translation_bin_mm,
    );

    let iterations = config.refine_iterations.max(1);
    for iteration in 0..iterations {
        // Generous tolerances while the transform is still coarse.
        let slack = match iterations - 1 - iteration {
            0 => 1.0,
            1 => 1.3,
            _ => 1.6,
        };
        work.transform(template, rotation, translation);
        work.correspond(
            observed,
            config.pos_tolerance_mm * slack,
            config.angle_tolerance_rad * slack,
            config,
        );
        if work.pairs.is_empty() {
            return MatchResult::no_match();
        }
        // Re-estimate the transform from the matched pairs only, by a
        // circular mean with the period the angle convention demands:
        // doubled angles for pi-periodic orientations.
        let (mut sin_sum, mut cos_sum) = (0.0f64, 0.0);
        for &(ti, oi) in &work.pairs {
            let d = observed[oi].angle - template.minutiae()[ti].angle;
            let (s, c) = if config.angle_mod_pi {
                (2.0 * d).sin_cos()
            } else {
                d.sin_cos()
            };
            sin_sum += s;
            cos_sum += c;
        }
        rotation = if config.angle_mod_pi {
            // Doubled-angle circular mean, kept in the signed [−π/2, π/2)
            // range so near-identity rotations stay near zero.
            config.fold(0.5 * sin_sum.atan2(cos_sum))
        } else {
            normalize_angle(sin_sum.atan2(cos_sum))
        };
        let (s, c) = rotation.sin_cos();
        let (mut tx, mut ty) = (0.0f64, 0.0);
        for &(ti, oi) in &work.pairs {
            let tm = &template.minutiae()[ti];
            tx += observed[oi].pos.x - (tm.pos.x * c - tm.pos.y * s);
            ty += observed[oi].pos.y - (tm.pos.x * s + tm.pos.y * c);
        }
        translation = (tx / work.pairs.len() as f64, ty / work.pairs.len() as f64);
    }

    // --- Final correspondence count under exact tolerances ---------------
    work.transform(template, rotation, translation);
    work.correspond(
        observed,
        config.pos_tolerance_mm,
        config.angle_tolerance_rad,
        config,
    );
    let matched = work.pairs.len();

    // --- Normalization ---------------------------------------------------
    // The classic quadratic minutiae score: matched^2 over the product of
    // the candidate set sizes. Accidental alignments that pair only a few
    // minutiae are punished much harder than by a linear ratio, which is
    // what keeps impostor scores low on small partial prints.
    let in_region = work
        .transformed
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

/// Radius of the observation cloud around the sensor-frame origin.
fn bounding_radius(minutiae: &[Minutia]) -> f64 {
    minutiae
        .iter()
        .map(|m| m.pos.x.hypot(m.pos.y))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enroll::enroll;
    use crate::minutiae::CaptureWindow;
    use crate::pattern::FingerPattern;
    use crate::quality::CaptureConditions;
    use btd_sim::geom::MmPoint;
    use btd_sim::rng::SimRng;
    use proptest::prelude::*;

    fn genuine_and_impostor_scores(window_size: f64, trials: u64) -> (Vec<f64>, Vec<f64>) {
        let cfg = MatchConfig::default();
        let mut genuine = Vec::new();
        let mut impostor = Vec::new();
        for trial in 0..trials {
            let owner = FingerPattern::generate(trial, 0);
            let other = FingerPattern::generate(10_000 + trial, 0);
            let mut rng = SimRng::seed_from(500 + trial);
            let template = enroll(&owner, 5, &mut rng);
            let window = CaptureWindow::centered(
                MmPoint::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-3.0, 3.0)),
                window_size,
                window_size,
            );
            let obs_g = owner.observe(&window, &CaptureConditions::ideal(), &mut rng);
            genuine.push(match_observation(&template, &obs_g.minutiae, &cfg).score);
            let obs_i = other.observe(&window, &CaptureConditions::ideal(), &mut rng);
            impostor.push(match_observation(&template, &obs_i.minutiae, &cfg).score);
        }
        (genuine, impostor)
    }

    #[test]
    fn genuine_scores_dominate_impostor_scores() {
        let (genuine, impostor) = genuine_and_impostor_scores(8.0, 12);
        let g_mean = genuine.iter().sum::<f64>() / genuine.len() as f64;
        let i_mean = impostor.iter().sum::<f64>() / impostor.len() as f64;
        assert!(
            g_mean > i_mean + 0.25,
            "genuine {g_mean:.3} vs impostor {i_mean:.3}"
        );
    }

    #[test]
    fn default_threshold_separates_most_cases() {
        let cfg = MatchConfig::default();
        let (genuine, impostor) = genuine_and_impostor_scores(8.0, 12);
        let frr = genuine.iter().filter(|s| **s < cfg.score_threshold).count();
        let far = impostor
            .iter()
            .filter(|s| **s >= cfg.score_threshold)
            .count();
        assert!(frr <= 3, "false rejects: {frr}/12 (scores {genuine:?})");
        assert!(far <= 1, "false accepts: {far}/12 (scores {impostor:?})");
    }

    #[test]
    fn recovers_the_applied_rotation() {
        let finger = FingerPattern::generate(77, 0);
        let mut rng = SimRng::seed_from(4);
        let template = enroll(&finger, 5, &mut rng);
        let window = CaptureWindow::centered(MmPoint::new(0.0, 0.0), 9.0, 9.0);
        let obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
        let result = match_observation(&template, &obs.minutiae, &MatchConfig::default());
        assert!(result.matched >= 4);
        let err = angle_distance(result.rotation, obs.true_rotation);
        assert!(err < 0.2, "rotation error {err}");
    }

    #[test]
    fn too_few_minutiae_is_no_match() {
        let finger = FingerPattern::generate(78, 0);
        let mut rng = SimRng::seed_from(5);
        let template = enroll(&finger, 5, &mut rng);
        let obs = [Minutia::new(
            MmPoint::new(0.0, 0.0),
            0.0,
            crate::minutiae::MinutiaKind::Ending,
        )];
        let result = match_observation(&template, &obs, &MatchConfig::default());
        assert_eq!(result, MatchResult::no_match());
    }

    #[test]
    fn empty_observation_is_no_match() {
        let finger = FingerPattern::generate(79, 0);
        let mut rng = SimRng::seed_from(6);
        let template = enroll(&finger, 5, &mut rng);
        let result = match_observation(&template, &[], &MatchConfig::default());
        assert_eq!(result.score, 0.0);
    }

    #[test]
    fn smaller_windows_lower_scores_but_still_match() {
        let (g_large, _) = genuine_and_impostor_scores(10.0, 8);
        let (g_small, _) = genuine_and_impostor_scores(5.0, 8);
        let large_mean = g_large.iter().sum::<f64>() / g_large.len() as f64;
        let small_mean = g_small.iter().sum::<f64>() / g_small.len() as f64;
        // Small patches carry fewer minutiae; scores drop but stay usable.
        assert!(small_mean > 0.2, "small-window mean {small_mean}");
        assert!(large_mean > 0.4, "large-window mean {large_mean}");
    }

    /// Every bit of a result, for exact comparison.
    fn result_bits(r: &MatchResult) -> [u64; 5] {
        [
            r.score.to_bits(),
            r.matched as u64,
            r.rotation.to_bits(),
            r.translation.0.to_bits(),
            r.translation.1.to_bits(),
        ]
    }

    /// Folds every bit of a result into `h`.
    fn fold_result(h: u64, r: &MatchResult) -> u64 {
        result_bits(r).iter().fold(h, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
        })
    }

    /// A fixed corpus of (template, observation) cases: genuine and
    /// impostor observations at 8 mm and 4 mm, observations cut to exactly
    /// `min_minutiae`, and template-derived observations whose directions
    /// sit on the 0/2π and ±π/2 folds.
    fn golden_corpus() -> Vec<(Template, Vec<Minutia>)> {
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        let mut cases = Vec::new();
        for trial in 0..6u64 {
            let owner = FingerPattern::generate(trial, 0);
            let other = FingerPattern::generate(20_000 + trial, 0);
            let mut rng = SimRng::seed_from(900 + trial);
            let template = enroll(&owner, 5, &mut rng);
            let conditions = if trial % 2 == 0 {
                CaptureConditions::ideal()
            } else {
                CaptureConditions {
                    pressure: 0.3,
                    moisture: 0.6,
                    ..CaptureConditions::ideal()
                }
            };
            for size in [8.0, 4.0] {
                let window = CaptureWindow::centered(
                    MmPoint::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-3.0, 3.0)),
                    size,
                    size,
                );
                let genuine = owner.observe(&window, &conditions, &mut rng).minutiae;
                let impostor = other.observe(&window, &conditions, &mut rng).minutiae;
                cases.push((template.clone(), genuine.clone()));
                cases.push((template.clone(), impostor));
                if size == 8.0 {
                    let min = MatchConfig::default().min_minutiae;
                    cases.push((template.clone(), genuine[..min.min(genuine.len())].to_vec()));
                }
            }
            // The template's own minutiae near the origin, rotated so that
            // Hough angle differences land on the fold boundaries.
            let near: Vec<Minutia> = template
                .minutiae()
                .iter()
                .filter(|m| m.pos.x.hypot(m.pos.y) < 4.5)
                .copied()
                .collect();
            for theta in [0.0, FRAC_PI_2, -FRAC_PI_2, PI] {
                let obs = near
                    .iter()
                    .map(|m| m.transformed(theta, 0.3 * trial as f64, -0.2))
                    .collect();
                cases.push((template.clone(), obs));
            }
            let edges = [
                0.0,
                f64::EPSILON,
                TAU - 1e-9,
                FRAC_PI_2 - 1e-9,
                FRAC_PI_2,
                FRAC_PI_2 + 1e-9,
                3.0 * FRAC_PI_2 - 1e-9,
                3.0 * FRAC_PI_2 + 1e-9,
            ];
            let obs = near
                .iter()
                .enumerate()
                .map(|(i, m)| Minutia {
                    angle: edges[i % edges.len()],
                    ..*m
                })
                .collect();
            cases.push((template, obs));
        }
        cases
    }

    #[test]
    fn golden_results_are_bit_exact() {
        let corpus = golden_corpus();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut accepted = 0;
        for cfg in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
            for (template, obs) in &corpus {
                let r = match_observation(template, obs, &cfg);
                accepted += usize::from(r.is_accepted(&cfg));
                h = fold_result(h, &r);
            }
        }
        assert_eq!(corpus.len(), 6 * 10);
        assert!(accepted > 10, "corpus too easy to reject: {accepted}");
        assert_eq!(
            h, 0x57db_5bee_e02c_8a03,
            "golden matcher digest moved: {h:#018x}"
        );
    }

    #[test]
    fn result_accept_uses_threshold_and_match_count() {
        let cfg = MatchConfig::default();
        let good = MatchResult {
            score: cfg.score_threshold + 0.01,
            matched: cfg.min_match_count,
            ..MatchResult::no_match()
        };
        let low_score = MatchResult {
            score: cfg.score_threshold - 0.01,
            matched: cfg.min_match_count,
            ..MatchResult::no_match()
        };
        let too_few_pairs = MatchResult {
            score: cfg.score_threshold + 0.2,
            matched: cfg.min_match_count - 1,
            ..MatchResult::no_match()
        };
        assert!(good.is_accepted(&cfg));
        assert!(!low_score.is_accepted(&cfg));
        assert!(!too_few_pairs.is_accepted(&cfg));
    }

    /// Angles inside and outside `[0, 2π)`, on the folds, signed zeros and
    /// large magnitudes (the `angle` field is public, so any `f64` can
    /// reach the matcher).
    fn arb_angle() -> impl Strategy<Value = f64> {
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        prop_oneof![
            0.0f64..TAU,
            -20.0f64..20.0,
            Just(0.0),
            Just(-0.0),
            Just(TAU),
            Just(-TAU),
            Just(PI),
            Just(-PI),
            Just(FRAC_PI_2),
            Just(-FRAC_PI_2),
            Just(TAU - 1e-12),
            Just(1e9 + 0.5),
            Just(-3e7),
        ]
    }

    /// Minutiae on a half-millimetre grid (so many candidate distances
    /// tie) or anywhere in a 12 mm square.
    fn arb_minutia() -> impl Strategy<Value = Minutia> {
        let coord = || {
            prop_oneof![
                (0u32..25).prop_map(|i| (i as f64 - 12.0) * 0.5),
                -6.0f64..6.0
            ]
        };
        (coord(), coord(), arb_angle(), any::<bool>()).prop_map(|(x, y, angle, ending)| Minutia {
            pos: MmPoint::new(x, y),
            angle,
            kind: if ending {
                crate::minutiae::MinutiaKind::Ending
            } else {
                crate::minutiae::MinutiaKind::Bifurcation
            },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn matches_reference_bit_for_bit(
            template in proptest::collection::vec(arb_minutia(), 1..40),
            extra in proptest::collection::vec(arb_minutia(), 0..10),
            picks in proptest::collection::vec(0usize..64, 0..32),
            pose in (arb_angle(), -3.0f64..3.0, -3.0f64..3.0),
            knobs in (0usize..4, 0usize..3, any::<bool>(), 0usize..6, 0usize..4, any::<bool>())
        ) {
            let (bins, refine, mod_pi, min_minutiae, copies, lattice) = knobs;
            // On the lattice, poses and bin centres are exact multiples of
            // 0.5 mm, so grid minutiae produce exactly tied distances
            // between distinct pairs.
            let (theta, tx, ty) = if lattice {
                (0.0, (pose.1 * 2.0).round() * 0.5, (pose.2 * 2.0).round() * 0.5)
            } else {
                pose
            };
            // A partly genuine observation: picked template minutiae under
            // a rigid transform (repeated picks are duplicates), then
            // unrelated minutiae, then copies of the first few entries.
            let mut observed: Vec<Minutia> = picks
                .iter()
                .map(|&i| template[i % template.len()].transformed(theta, tx, ty))
                .collect();
            observed.extend(extra);
            observed.extend_from_within(..copies.min(observed.len()));
            let base = if mod_pi {
                MatchConfig::for_image_extraction()
            } else {
                MatchConfig::default()
            };
            let cfg = MatchConfig {
                hough_bins_evaluated: [0, 1, 4, 64][bins],
                refine_iterations: [0, 1, 3][refine],
                min_minutiae,
                translation_bin_mm: if lattice { 0.5 } else { base.translation_bin_mm },
                ..base
            };
            let template = Template::new(0, 0, template);
            let fast = match_observation(&template, &observed, &cfg);
            let slow = reference::match_observation(&template, &observed, &cfg);
            prop_assert_eq!(result_bits(&fast), result_bits(&slow));
        }
    }

    #[test]
    fn fmod_free_fold_is_bit_exact() {
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for a in [
            0.0,
            -0.0,
            PI,
            -PI,
            below(PI),
            -below(PI),
            FRAC_PI_2,
            -FRAC_PI_2,
            TAU,
            -TAU,
            below(TAU),
            -below(TAU),
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NAN,
        ] {
            for cfg in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
                assert_eq!(
                    cfg.fold(a).to_bits(),
                    reference::fold(&cfg, a).to_bits(),
                    "fold({a:e})"
                );
            }
        }
    }
}
