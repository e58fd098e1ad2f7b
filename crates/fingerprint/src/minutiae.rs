//! Minutia points and the capture-observation model.
//!
//! A minutia is a ridge ending or bifurcation; the constellation of
//! minutiae is what fingerprint matchers compare. In the simulation each
//! finger has a ground-truth constellation ([`crate::pattern`]); what a
//! sensor patch *observes* is a noisy, partial view of it — an
//! [`Observation`].

use std::fmt;

use btd_sim::geom::{MmPoint, MmRect, MmSize};

/// The type of a minutia.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MinutiaKind {
    /// A ridge that terminates.
    Ending,
    /// A ridge that splits in two.
    Bifurcation,
}

impl fmt::Display for MinutiaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinutiaKind::Ending => f.write_str("ending"),
            MinutiaKind::Bifurcation => f.write_str("bifurcation"),
        }
    }
}

/// A single minutia in some 2-D frame (fingertip frame for templates,
/// sensor frame for observations), in millimetres.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Minutia {
    /// Position in the frame, millimetres.
    pub pos: MmPoint,
    /// Local ridge direction in radians, normalized to `[0, 2π)`.
    pub angle: f64,
    /// Ending or bifurcation.
    pub kind: MinutiaKind,
}

impl Minutia {
    /// Creates a minutia, normalizing the angle into `[0, 2π)`.
    pub fn new(pos: MmPoint, angle: f64, kind: MinutiaKind) -> Self {
        Minutia {
            pos,
            angle: normalize_angle(angle),
            kind,
        }
    }
}

/// Normalizes an angle into `[0, 2π)`.
pub fn normalize_angle(a: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    // `fmod` is exact: it returns `a` itself when |a| < τ, and `a ∓ τ`,
    // which is representable (Sterbenz), when |a| < 2τ, so the
    // subtraction gives it exactly (`copysign` keeps a zero's sign as
    // `fmod` does). Only angles two periods out call libm.
    let mut x = if a.abs() < tau {
        a
    } else if a.abs() < 2.0 * tau {
        (a - tau.copysign(a)).copysign(a)
    } else {
        a % tau
    };
    if x < 0.0 {
        x += tau;
    }
    x
}

/// Smallest absolute difference between two angles, in `[0, π]`.
pub fn angle_distance(a: f64, b: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let d = (normalize_angle(a) - normalize_angle(b)).abs();
    d.min(tau - d)
}

/// The region of the fingertip a sensor patch sees, in the fingertip frame.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CaptureWindow {
    /// The window rectangle in fingertip-frame millimetres.
    pub rect: MmRect,
}

impl CaptureWindow {
    /// A window of `w × h` mm centred at `center` (fingertip frame).
    pub fn centered(center: MmPoint, w: f64, h: f64) -> Self {
        CaptureWindow {
            rect: MmRect::centered(center, MmSize::new(w, h)),
        }
    }

    /// Window area in mm².
    pub fn area(&self) -> f64 {
        self.rect.area()
    }
}

/// A noisy partial view of a finger, as seen by one sensor capture.
///
/// Positions are in the *sensor frame*: the fingertip-frame window content,
/// rotated by the (unknown to the matcher) touch angle and re-centred on
/// the window centre. Recovering that transform is the matcher's job.
#[derive(Clone, Debug)]
pub struct Observation {
    /// Detected minutiae in the sensor frame.
    pub minutiae: Vec<Minutia>,
    /// The quality report the capture pipeline attaches.
    pub quality: crate::quality::QualityReport,
    /// Ground truth (simulation-only): the touch angle applied.
    pub true_rotation: f64,
    /// Ground truth (simulation-only): the fingertip-frame window centre.
    pub true_window_center: MmPoint,
    /// Ground truth (simulation-only): how many of the minutiae are
    /// genuine (a prefix of `minutiae`); the rest are spurious detections.
    pub genuine_count: usize,
}

/// Everything an [`Observation`] holds but its minutiae: what
/// [`FingerPattern::observe_into`](crate::pattern::FingerPattern::observe_into)
/// returns next to the detections it appends to the caller's buffer.
pub(crate) struct ObservationMeta {
    /// The quality report the capture pipeline attaches.
    pub quality: crate::quality::QualityReport,
    /// Ground truth (simulation-only): the touch angle applied.
    pub true_rotation: f64,
    /// Ground truth (simulation-only): the fingertip-frame window centre.
    pub true_window_center: MmPoint,
    /// Ground truth (simulation-only): how many of the appended minutiae
    /// are genuine (a prefix of them); the rest are spurious detections.
    pub genuine_count: usize,
}

impl Observation {
    /// Number of detected minutiae (genuine + spurious).
    pub fn len(&self) -> usize {
        self.minutiae.len()
    }

    /// Whether nothing was detected.
    pub fn is_empty(&self) -> bool {
        self.minutiae.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn angle_normalization() {
        assert!((normalize_angle(-FRAC_PI_2) - 1.5 * PI).abs() < 1e-12);
        assert!((normalize_angle(TAU + 0.25) - 0.25).abs() < 1e-12);
        assert_eq!(normalize_angle(0.0), 0.0);
    }

    #[test]
    fn fmod_free_normalization_is_bit_exact() {
        let with_fmod = |a: f64| {
            let mut x = a % TAU;
            if x < 0.0 {
                x += TAU;
            }
            x
        };
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let subnormal = f64::from_bits(1);
        // A dense grid of [−4π, 4π] with each point's neighbours, which
        // crosses the one-period case's edges at ±τ and ±2τ.
        let grid = (-20_000..=20_000).map(|i| f64::from(i) * (4.0 * PI / 20_000.0));
        for a in grid.flat_map(|a| [a.next_down(), a, a.next_up()]) {
            assert_eq!(
                normalize_angle(a).to_bits(),
                with_fmod(a).to_bits(),
                "normalize_angle({a:e})"
            );
        }
        for a in [
            TAU,
            -TAU,
            below(TAU),
            -below(TAU),
            2.0 * TAU,
            -2.0 * TAU,
            below(2.0 * TAU),
            -below(2.0 * TAU),
            (2.0 * TAU).next_up(),
            0.0,
            -0.0,
            PI,
            -FRAC_PI_2,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            subnormal,
            -subnormal,
            1e9 + 0.5,
            -3e7,
            1e300,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            assert_eq!(
                normalize_angle(a).to_bits(),
                with_fmod(a).to_bits(),
                "normalize_angle({a:e})"
            );
        }
    }

    #[test]
    fn angle_distance_wraps() {
        assert!((angle_distance(0.1, TAU - 0.1) - 0.2).abs() < 1e-12);
        assert!((angle_distance(0.0, PI) - PI).abs() < 1e-12);
        assert_eq!(angle_distance(1.0, 1.0), 0.0);
    }

    #[test]
    fn transform_rotates_and_translates() {
        let m = Minutia::new(MmPoint::new(1.0, 0.0), 0.0, MinutiaKind::Ending);
        let t = m.transformed(FRAC_PI_2, 10.0, 20.0);
        assert!((t.pos.x - 10.0).abs() < 1e-12);
        assert!((t.pos.y - 21.0).abs() < 1e-12);
        assert!((t.angle - FRAC_PI_2).abs() < 1e-12);
        assert_eq!(t.kind, MinutiaKind::Ending);
    }

    #[test]
    fn transform_identity_is_noop() {
        let m = Minutia::new(MmPoint::new(3.0, -2.0), 1.2, MinutiaKind::Bifurcation);
        let t = m.transformed(0.0, 0.0, 0.0);
        assert!((t.pos.x - 3.0).abs() < 1e-12);
        assert!((t.pos.y - -2.0).abs() < 1e-12);
        assert!((t.angle - 1.2).abs() < 1e-12);
    }

    #[test]
    fn window_geometry() {
        let w = CaptureWindow::centered(MmPoint::new(5.0, 5.0), 4.0, 2.0);
        assert!((w.area() - 8.0).abs() < 1e-12);
        assert!(w.rect.contains(MmPoint::new(5.0, 5.9)));
        assert!(!w.rect.contains(MmPoint::new(5.0, 6.1)));
    }

    impl Minutia {
        /// Applies the rigid transform (rotate by `theta`, then translate by
        /// `(tx, ty)`), as the matcher's workspace transforms a template.
        pub fn transformed(&self, theta: f64, tx: f64, ty: f64) -> Minutia {
            let (s, c) = theta.sin_cos();
            let x = self.pos.x * c - self.pos.y * s + tx;
            let y = self.pos.x * s + self.pos.y * c + ty;
            Minutia::new(MmPoint::new(x, y), self.angle + theta, self.kind)
        }
    }
}
