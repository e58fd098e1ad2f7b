//! Capture-quality scoring and the accept/discard gate.
//!
//! Figure 6 of the paper gates every capture: "Evaluate quality of the
//! captured data — quality good enough for recognition? (e.g., move too
//! fast, poor touch angle, incomplete data)". This module scores a capture
//! from its physical conditions and reports *why* quality is low, so the
//! continuous-auth pipeline (and the impostor-evasion experiments) can
//! reason about discarded touches.

use std::fmt;

/// Physical conditions of one touch capture.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CaptureConditions {
    /// Finger speed across the panel during capture, mm/s. Fast motion
    /// smears the ridge image (the paper's "move too fast").
    pub speed_mm_s: f64,
    /// Normalized contact pressure in `[0, 1]`; very light touches lose
    /// ridge contrast, very heavy ones smudge.
    pub pressure: f64,
    /// Fraction of the sensor window actually covered by skin, `[0, 1]`
    /// (the paper's "incomplete data").
    pub coverage: f64,
    /// Skin/panel moisture in `[0, 1]`; high moisture bridges ridges.
    pub moisture: f64,
}

impl CaptureConditions {
    /// Laboratory-ideal conditions.
    pub fn ideal() -> Self {
        CaptureConditions {
            speed_mm_s: 0.0,
            pressure: 0.55,
            coverage: 1.0,
            moisture: 0.3,
        }
    }

    /// Validates all fields are finite and in range.
    ///
    /// # Panics
    ///
    /// Panics if a field is out of its documented range.
    pub fn validate(&self) {
        assert!(
            self.speed_mm_s.is_finite() && self.speed_mm_s >= 0.0,
            "speed must be non-negative"
        );
        for (name, v) in [
            ("pressure", self.pressure),
            ("coverage", self.coverage),
            ("moisture", self.moisture),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} must be in [0,1], got {v}");
        }
    }
}

/// Why a capture scored poorly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum QualityIssue {
    /// Finger moving too fast (motion blur).
    MotionBlur,
    /// Contact pressure too light for ridge contrast.
    LightPressure,
    /// Contact pressure so heavy the ridges smudge together.
    Smudge,
    /// The sensor window was only partially covered.
    IncompleteCoverage,
    /// Moisture bridged ridge valleys.
    Moisture,
}

impl fmt::Display for QualityIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QualityIssue::MotionBlur => "motion blur",
            QualityIssue::LightPressure => "light pressure",
            QualityIssue::Smudge => "smudge",
            QualityIssue::IncompleteCoverage => "incomplete coverage",
            QualityIssue::Moisture => "moisture",
        };
        f.write_str(s)
    }
}

/// The scored quality of one capture.
#[derive(Clone, Debug, PartialEq)]
pub struct QualityReport {
    /// Overall quality in `[0, 1]`.
    pub score: f64,
    /// Contributing problems, worst first.
    pub issues: Vec<QualityIssue>,
}

impl QualityReport {
    /// Scores a capture from its physical conditions.
    pub fn assess(c: &CaptureConditions) -> QualityReport {
        c.validate();
        let mut issues = Vec::new();

        // Motion blur: quality degrades smoothly past ~20 mm/s and is
        // hopeless past ~120 mm/s (a fast flick/scroll).
        let motion = (1.0 - (c.speed_mm_s / 120.0)).clamp(0.0, 1.0);
        if c.speed_mm_s > 20.0 {
            issues.push(QualityIssue::MotionBlur);
        }

        // Pressure: ideal around 0.55; penalty grows quadratically away
        // from it.
        let pressure = (1.0 - 3.0 * (c.pressure - 0.55).powi(2)).clamp(0.0, 1.0);
        if c.pressure < 0.25 {
            issues.push(QualityIssue::LightPressure);
        } else if c.pressure > 0.85 {
            issues.push(QualityIssue::Smudge);
        }

        // Coverage contributes linearly; below ~40% the patch is unusable.
        let coverage = c.coverage.clamp(0.0, 1.0);
        if coverage < 0.6 {
            issues.push(QualityIssue::IncompleteCoverage);
        }

        // Moisture only hurts at the wet end.
        let moisture = (1.0 - ((c.moisture - 0.6).max(0.0) / 0.4).powi(2)).clamp(0.0, 1.0);
        if c.moisture > 0.75 {
            issues.push(QualityIssue::Moisture);
        }

        let score = (motion * pressure * coverage * moisture).clamp(0.0, 1.0);
        QualityReport { score, issues }
    }
}

/// The accept/discard gate at the front of the matching pipeline.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct QualityGate {
    /// Minimum acceptable quality score.
    pub threshold: f64,
}

impl Default for QualityGate {
    fn default() -> Self {
        // Calibrated so relaxed natural touches mostly pass while flick
        // gestures and edge-clipped captures are discarded.
        QualityGate { threshold: 0.45 }
    }
}

impl QualityGate {
    /// Creates a gate with the given threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `[0, 1]`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        QualityGate { threshold }
    }

    /// Whether the report passes the gate.
    pub fn accepts(&self, report: &QualityReport) -> bool {
        report.score >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_conditions_score_high() {
        let r = QualityReport::assess(&CaptureConditions::ideal());
        assert!(r.score > 0.9, "score {}", r.score);
        assert!(r.issues.is_empty());
    }

    #[test]
    fn fast_motion_degrades_and_flags() {
        let mut c = CaptureConditions::ideal();
        c.speed_mm_s = 100.0;
        let r = QualityReport::assess(&c);
        assert!(r.score < 0.3, "score {}", r.score);
        assert!(r.issues.contains(&QualityIssue::MotionBlur));
    }

    #[test]
    fn light_touch_flags_pressure() {
        let mut c = CaptureConditions::ideal();
        c.pressure = 0.1;
        let r = QualityReport::assess(&c);
        assert!(r.issues.contains(&QualityIssue::LightPressure));
        assert!(r.score < 0.6);
    }

    #[test]
    fn heavy_touch_flags_smudge() {
        let mut c = CaptureConditions::ideal();
        c.pressure = 0.95;
        let r = QualityReport::assess(&c);
        assert!(r.issues.contains(&QualityIssue::Smudge));
    }

    #[test]
    fn partial_coverage_flags_incomplete() {
        let mut c = CaptureConditions::ideal();
        c.coverage = 0.3;
        let r = QualityReport::assess(&c);
        assert!(r.issues.contains(&QualityIssue::IncompleteCoverage));
        assert!(r.score < 0.45);
    }

    #[test]
    fn wet_finger_flags_moisture() {
        let mut c = CaptureConditions::ideal();
        c.moisture = 0.95;
        let r = QualityReport::assess(&c);
        assert!(r.issues.contains(&QualityIssue::Moisture));
    }

    #[test]
    fn quality_is_monotone_in_speed() {
        let mut prev = f64::INFINITY;
        for speed in [0.0, 10.0, 30.0, 60.0, 90.0, 150.0] {
            let mut c = CaptureConditions::ideal();
            c.speed_mm_s = speed;
            let r = QualityReport::assess(&c);
            assert!(r.score <= prev + 1e-12, "quality increased at {speed}");
            prev = r.score;
        }
    }

    #[test]
    fn gate_accepts_and_rejects() {
        let gate = QualityGate::default();
        assert!(gate.accepts(&QualityReport::perfect()));
        let bad = QualityReport {
            score: 0.2,
            issues: vec![QualityIssue::MotionBlur],
        };
        assert!(!gate.accepts(&bad));
        let strict = QualityGate::new(0.99);
        assert!(!strict.accepts(&QualityReport {
            score: 0.98,
            issues: vec![]
        }));
    }

    #[test]
    #[should_panic(expected = "pressure")]
    fn invalid_conditions_rejected() {
        let mut c = CaptureConditions::ideal();
        c.pressure = 1.5;
        let _ = QualityReport::assess(&c);
    }

    impl QualityReport {
        /// A perfect-quality report (used by enrollment).
        pub fn perfect() -> QualityReport {
            QualityReport {
                score: 1.0,
                issues: Vec::new(),
            }
        }
    }
}
