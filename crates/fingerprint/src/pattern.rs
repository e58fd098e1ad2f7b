//! The generative per-finger ridge-flow model.
//!
//! A [`FingerPattern`] is the simulation's stand-in for a human fingertip:
//! a smooth ridge orientation field, a ridge frequency, and a ground-truth
//! minutiae constellation, all derived deterministically from a
//! `(user id, finger index)` seed. Two different seeds give statistically
//! independent fingers, which is what the FAR/FRR experiments need.

use std::f64::consts::{PI, TAU};

use btd_sim::geom::MmPoint;
use btd_sim::rng::SimRng;

use crate::minutiae::{CaptureWindow, Minutia, MinutiaKind, Observation, ObservationMeta};
use crate::quality::{CaptureConditions, QualityReport};

/// Fingertip contact region half-width, millimetres.
pub const FINGER_HALF_W: f64 = 7.0;
/// Fingertip contact region half-height, millimetres.
pub const FINGER_HALF_H: f64 = 9.0;
/// The most ground-truth minutiae a generated pattern has.
pub(crate) const MOST_MINUTIAE: usize = 58;

/// A synthetic finger with known ground truth.
#[derive(Clone, Debug)]
pub struct FingerPattern {
    user_id: u64,
    finger_index: u8,
    /// Ridge frequency, ridges per millimetre.
    ridge_freq: f64,
    /// Base ridge-normal direction of the carrier wave, radians.
    base_dir: f64,
    /// Low-frequency phase-modulation modes `(amplitude_rad, freq_1_per_mm,
    /// direction_rad, phase_rad)`. Amplitudes and frequencies are bounded
    /// so the total phase gradient never reverses — the only dislocations
    /// in the rendered field are the deliberate minutia windings.
    modulation: [(f64, f64, f64, f64); 4],
    /// Ground-truth minutiae in the fingertip frame (origin at pad centre).
    minutiae: Vec<Minutia>,
}

impl FingerPattern {
    /// Generates the finger for `(user_id, finger_index)`.
    ///
    /// The same pair always produces the same finger.
    pub fn generate(user_id: u64, finger_index: u8) -> Self {
        let mut rng = SimRng::seed_from(
            user_id
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(finger_index as u64),
        );
        let ridge_freq = rng.range_f64(1.8, 2.6);
        let base_dir = rng.range_f64(0.0, PI);

        // Modulation gradient bound: Σ a·2πf ≈ 4 × 1.5 × 2π × 0.12 ≈ 4.5
        // rad/mm, well below the carrier gradient 2πf ≥ 11 rad/mm, so the
        // local frequency never reverses anywhere on the fingertip.
        let mut modulation = [(0.0, 0.0, 0.0, 0.0); 4];
        for c in modulation.iter_mut() {
            *c = (
                rng.range_f64(0.5, 1.5),   // amplitude, radians
                rng.range_f64(0.04, 0.12), // spatial frequency, 1/mm
                rng.range_f64(0.0, TAU),   // mode direction
                rng.range_f64(0.0, TAU),   // mode phase
            );
        }

        // Minutiae: rejection-sample positions inside the fingertip ellipse
        // with a minimum pairwise separation so the constellation looks like
        // a real print (40–60 minutiae, ~0.2/mm² density).
        let target = rng.range_i64(42, MOST_MINUTIAE as i64) as usize;
        let min_sep = 1.1;
        let mut minutiae: Vec<Minutia> = Vec::with_capacity(target);
        let mut attempts = 0;
        while minutiae.len() < target && attempts < 20_000 {
            attempts += 1;
            let x = rng.range_f64(-FINGER_HALF_W, FINGER_HALF_W);
            let y = rng.range_f64(-FINGER_HALF_H, FINGER_HALF_H);
            if (x / FINGER_HALF_W).powi(2) + (y / FINGER_HALF_H).powi(2) > 1.0 {
                continue;
            }
            let pos = MmPoint::new(x, y);
            if minutiae.iter().any(|m| m.pos.distance_to(pos) < min_sep) {
                continue;
            }
            let kind = if rng.chance(0.55) {
                MinutiaKind::Ending
            } else {
                MinutiaKind::Bifurcation
            };
            // Minutia direction: along the local ridge orientation, with a
            // random *sign* (a ridge ending points into the ridge, a
            // bifurcation into the valley — either way along the flow) and
            // a small jitter. The sign carries a full bit of identity per
            // minutia for full-circle matching; the jitter stays below the
            // matcher's angular tolerance because a rendered dislocation
            // can only realize the local field orientation (the image
            // pipeline matches mod π, where the sign drops out).
            let base = orientation_at_from(base_dir, ridge_freq, &modulation, pos);
            let flip = if rng.chance(0.5) { PI } else { 0.0 };
            let angle = base + flip + rng.gaussian_with(0.0, 0.18);
            minutiae.push(Minutia::new(pos, angle, kind));
        }

        FingerPattern {
            user_id,
            finger_index,
            ridge_freq,
            base_dir,
            modulation,
            minutiae,
        }
    }

    /// The owning user id.
    pub fn user_id(&self) -> u64 {
        self.user_id
    }

    /// Which finger of the user this is.
    pub fn finger_index(&self) -> u8 {
        self.finger_index
    }

    /// Ground-truth minutiae in the fingertip frame.
    pub fn minutiae(&self) -> &[Minutia] {
        &self.minutiae
    }

    /// The ridge-field intensity at a fingertip-frame point, in `[0, 1]`
    /// (1 = ridge crest, 0 = valley floor). Sampled by the sensor
    /// rasterizer.
    ///
    /// The field is a carrier wave along the local ridge orientation with a
    /// **phase dislocation at every ground-truth minutia** (a ±2π winding
    /// term), so rendered images genuinely contain the minutiae the
    /// constellation declares: ridge endings and bifurcations appear in the
    /// pixels, where the image-domain extractor
    /// ([`crate::extract`]) can find them.
    pub fn ridge_value(&self, p: MmPoint) -> f64 {
        (0.5 + 0.5 * self.ridge_phase(p).sin()).clamp(0.0, 1.0)
    }

    /// The carrier phase at `p`, including the minutia dislocations.
    fn ridge_phase(&self, p: MmPoint) -> f64 {
        // Constant-direction carrier plus bounded-gradient modulation: the
        // total smooth gradient can never vanish, so the field contains
        // exactly the dislocations added below and no accidental ones.
        let u = p.x * self.base_dir.cos() + p.y * self.base_dir.sin();
        let mut phase = TAU * self.ridge_freq * u + modulation_at(&self.modulation, p);
        // Each minutia is a phase singularity: +2π winding for endings,
        // −2π for bifurcations. The winding term is topological, so every
        // singularity contributes everywhere — truncating it would create
        // phase-discontinuity rings (spurious ridge breaks) at the cutoff.
        for m in &self.minutiae {
            let dx = p.x - m.pos.x;
            let dy = p.y - m.pos.y;
            let winding = dy.atan2(dx);
            match m.kind {
                MinutiaKind::Ending => phase += winding,
                MinutiaKind::Bifurcation => phase -= winding,
            }
        }
        phase
    }

    /// Simulates one capture: the minutiae a sensor patch over `window`
    /// observes under `conditions`, expressed in the *sensor frame* (window
    /// centre at the origin, rotated by a random touch angle).
    ///
    /// Detection probability, positional noise, and spurious-minutia rate
    /// all degrade with capture quality, which is how the paper's "low
    /// quality data is discarded" pathway gets exercised end-to-end.
    pub fn observe(
        &self,
        window: &CaptureWindow,
        conditions: &CaptureConditions,
        rng: &mut SimRng,
    ) -> Observation {
        let mut minutiae = Vec::new();
        let meta = self.observe_into(window, conditions, rng, &mut minutiae);
        Observation {
            minutiae,
            quality: meta.quality,
            true_rotation: meta.true_rotation,
            true_window_center: meta.true_window_center,
            genuine_count: meta.genuine_count,
        }
    }

    /// [`FingerPattern::observe`] that appends the detections to `out`
    /// (genuine ones first) and returns the rest of the observation.
    /// Enrollment gathers every capture into one buffer this way.
    pub(crate) fn observe_into(
        &self,
        window: &CaptureWindow,
        conditions: &CaptureConditions,
        rng: &mut SimRng,
        out: &mut Vec<Minutia>,
    ) -> ObservationMeta {
        let quality = QualityReport::assess(conditions);
        let q = quality.score;
        let rotation = rng.gaussian_with(0.0, 0.35); // natural touch angles
        let center = window.rect.center();

        // Noise model parameters, all quality-dependent.
        let p_detect = (0.15 + 0.83 * q).clamp(0.0, 0.98);
        let pos_sigma = 0.10 + 0.45 * (1.0 - q);
        let ang_sigma = 0.06 + 0.30 * (1.0 - q);
        let spurious_rate = 3.0 * (1.0 - q); // expected count per window

        let (s, c) = rotation.sin_cos();
        let first = out.len();
        for m in &self.minutiae {
            if !window.rect.contains(m.pos) {
                continue;
            }
            if !rng.chance(p_detect) {
                continue;
            }
            // Sensor frame: translate to window centre, rotate by touch
            // angle, add measurement noise.
            let dx = m.pos.x - center.x;
            let dy = m.pos.y - center.y;
            let rx = dx * c - dy * s + rng.gaussian_with(0.0, pos_sigma);
            let ry = dx * s + dy * c + rng.gaussian_with(0.0, pos_sigma);
            let angle = m.angle + rotation + rng.gaussian_with(0.0, ang_sigma);
            // Poor captures occasionally mislabel the minutia type.
            let kind = if rng.chance(0.05 + 0.25 * (1.0 - q)) {
                match m.kind {
                    MinutiaKind::Ending => MinutiaKind::Bifurcation,
                    MinutiaKind::Bifurcation => MinutiaKind::Ending,
                }
            } else {
                m.kind
            };
            out.push(Minutia::new(MmPoint::new(rx, ry), angle, kind));
        }
        let genuine_count = out.len() - first;

        // Spurious detections from noise, smudges and dirt.
        let n_spurious = poisson_draw(rng, spurious_rate);
        let half_w = window.rect.size.w / 2.0;
        let half_h = window.rect.size.h / 2.0;
        for _ in 0..n_spurious {
            let pos = MmPoint::new(
                rng.range_f64(-half_w, half_w),
                rng.range_f64(-half_h, half_h),
            );
            let kind = if rng.chance(0.5) {
                MinutiaKind::Ending
            } else {
                MinutiaKind::Bifurcation
            };
            out.push(Minutia::new(pos, rng.range_f64(0.0, TAU), kind));
        }

        ObservationMeta {
            quality,
            true_rotation: rotation,
            true_window_center: center,
            genuine_count,
        }
    }
}

/// The smooth phase-modulation term at `p`.
fn modulation_at(modulation: &[(f64, f64, f64, f64); 4], p: MmPoint) -> f64 {
    modulation
        .iter()
        .map(|(amp, freq, dir, phase)| {
            let u = p.x * dir.cos() + p.y * dir.sin();
            amp * (TAU * freq * u + phase).sin()
        })
        .sum()
}

/// Gradient of the smooth phase field (carrier + modulation) at `p`.
fn phase_gradient(
    base_dir: f64,
    ridge_freq: f64,
    modulation: &[(f64, f64, f64, f64); 4],
    p: MmPoint,
) -> (f64, f64) {
    let mut gx = TAU * ridge_freq * base_dir.cos();
    let mut gy = TAU * ridge_freq * base_dir.sin();
    for (amp, freq, dir, phase) in modulation {
        let (dc, ds) = (dir.cos(), dir.sin());
        let u = p.x * dc + p.y * ds;
        let d = amp * TAU * freq * (TAU * freq * u + phase).cos();
        gx += d * dc;
        gy += d * ds;
    }
    (gx, gy)
}

/// Orientation field shared by generation and queries: the direction of
/// the smooth phase gradient (the ridge normal), folded into `[0, π)`.
fn orientation_at_from(
    base_dir: f64,
    ridge_freq: f64,
    modulation: &[(f64, f64, f64, f64); 4],
    p: MmPoint,
) -> f64 {
    let (gx, gy) = phase_gradient(base_dir, ridge_freq, modulation, p);
    let mut t = gy.atan2(gx) % PI;
    if t < 0.0 {
        t += PI;
    }
    t
}

/// Draws from a Poisson distribution with mean `lambda` (Knuth's method;
/// fine for the small rates used here).
fn poisson_draw(rng: &mut SimRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1_000 {
            return k; // guard against pathological lambda
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FingerPattern::generate(5, 1);
        let b = FingerPattern::generate(5, 1);
        assert_eq!(a.minutiae().len(), b.minutiae().len());
        assert_eq!(a.minutiae()[0].pos, b.minutiae()[0].pos);
        assert_eq!(a.ridge_freq(), b.ridge_freq());
    }

    #[test]
    fn different_fingers_differ() {
        let a = FingerPattern::generate(5, 1);
        let b = FingerPattern::generate(5, 2);
        let c = FingerPattern::generate(6, 1);
        assert_ne!(a.minutiae()[0].pos, b.minutiae()[0].pos);
        assert_ne!(a.minutiae()[0].pos, c.minutiae()[0].pos);
    }

    #[test]
    fn minutiae_count_in_range() {
        for uid in 0..20 {
            let f = FingerPattern::generate(uid, 0);
            let n = f.minutiae().len();
            assert!((38..=58).contains(&n), "user {uid}: {n} minutiae");
        }
    }

    #[test]
    fn minutiae_respect_min_separation() {
        let f = FingerPattern::generate(9, 0);
        let ms = f.minutiae();
        for i in 0..ms.len() {
            for j in (i + 1)..ms.len() {
                assert!(
                    ms[i].pos.distance_to(ms[j].pos) >= 1.1 - 1e-9,
                    "minutiae {i} and {j} too close"
                );
            }
        }
    }

    #[test]
    fn minutiae_inside_fingertip_ellipse() {
        let f = FingerPattern::generate(11, 3);
        for m in f.minutiae() {
            let e = (m.pos.x / FINGER_HALF_W).powi(2) + (m.pos.y / FINGER_HALF_H).powi(2);
            assert!(e <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn orientation_is_folded() {
        let f = FingerPattern::generate(1, 0);
        for (x, y) in [(0.0, 0.0), (3.0, -2.0), (-5.0, 7.0)] {
            let t = f.orientation_at(MmPoint::new(x, y));
            assert!((0.0..PI).contains(&t));
        }
    }

    #[test]
    fn ridge_value_is_bounded_and_varies() {
        let f = FingerPattern::generate(2, 0);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..100 {
            let v = f.ridge_value(MmPoint::new(i as f64 * 0.05, 0.0));
            assert!((0.0..=1.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(hi - lo > 0.5, "ridge field too flat: {lo}..{hi}");
    }

    #[test]
    fn observation_sees_windowed_minutiae() {
        let f = FingerPattern::generate(3, 0);
        let window = CaptureWindow::centered(MmPoint::new(0.0, 0.0), 10.0, 10.0);
        let in_window = f
            .minutiae()
            .iter()
            .filter(|m| window.rect.contains(m.pos))
            .count();
        let mut rng = SimRng::seed_from(1);
        let obs = f.observe(&window, &CaptureConditions::ideal(), &mut rng);
        assert!(obs.genuine_count > 0);
        assert!(obs.genuine_count <= in_window);
        // Ideal quality: nearly all in-window minutiae detected.
        assert!(
            obs.genuine_count as f64 >= 0.7 * in_window as f64,
            "{} of {}",
            obs.genuine_count,
            in_window
        );
    }

    #[test]
    fn poor_quality_sees_fewer_and_noisier() {
        let f = FingerPattern::generate(4, 0);
        let window = CaptureWindow::centered(MmPoint::new(0.0, 0.0), 10.0, 10.0);
        let mut bad = CaptureConditions::ideal();
        bad.speed_mm_s = 90.0;
        bad.coverage = 0.5;
        let mut genuine_ideal = 0usize;
        let mut genuine_bad = 0usize;
        for seed in 0..20 {
            let mut rng = SimRng::seed_from(seed);
            genuine_ideal += f
                .observe(&window, &CaptureConditions::ideal(), &mut rng)
                .genuine_count;
            let mut rng = SimRng::seed_from(seed + 1_000);
            genuine_bad += f.observe(&window, &bad, &mut rng).genuine_count;
        }
        assert!(
            genuine_bad * 2 < genuine_ideal,
            "bad {genuine_bad} vs ideal {genuine_ideal}"
        );
    }

    #[test]
    fn empty_window_yields_no_genuine_minutiae() {
        let f = FingerPattern::generate(6, 0);
        // Window far outside the fingertip.
        let window = CaptureWindow::centered(MmPoint::new(100.0, 100.0), 8.0, 8.0);
        let mut rng = SimRng::seed_from(2);
        let obs = f.observe(&window, &CaptureConditions::ideal(), &mut rng);
        assert_eq!(obs.genuine_count, 0);
    }

    #[test]
    fn poisson_draw_mean_is_plausible() {
        let mut rng = SimRng::seed_from(77);
        let n = 5_000;
        let total: usize = (0..n).map(|_| poisson_draw(&mut rng, 2.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.15, "mean {mean}");
        assert_eq!(poisson_draw(&mut rng, 0.0), 0);
    }

    impl FingerPattern {
        /// Ridge frequency in ridges/mm.
        pub fn ridge_freq(&self) -> f64 {
            self.ridge_freq
        }

        /// The smooth ridge orientation at a fingertip-frame point, radians in
        /// `[0, π)` (ridge direction is orientation, not heading).
        pub fn orientation_at(&self, p: MmPoint) -> f64 {
            orientation_at_from(self.base_dir, self.ridge_freq, &self.modulation, p)
        }
    }
}
