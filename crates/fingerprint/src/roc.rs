//! FAR / FRR / EER computation for biometric evaluation.
//!
//! The fingerprint-ROC experiment (see DESIGN.md) sweeps the match-score
//! threshold over genuine and impostor score populations to characterize
//! the partial-print matcher — supporting the paper's assumption that
//! partial prints are usable, and quantifying where they stop being so.

/// One point on a ROC/DET curve.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RocPoint {
    /// Decision threshold.
    pub threshold: f64,
    /// False accept rate at this threshold.
    pub far: f64,
    /// False reject rate at this threshold.
    pub frr: f64,
}

/// A ROC analysis over genuine and impostor score populations.
#[derive(Clone, Debug)]
pub struct RocAnalysis {
    genuine: Vec<f64>,
    impostor: Vec<f64>,
}

impl RocAnalysis {
    /// Creates an analysis from raw match scores.
    ///
    /// # Panics
    ///
    /// Panics if either population is empty or contains non-finite scores.
    pub fn new(genuine: Vec<f64>, impostor: Vec<f64>) -> Self {
        assert!(
            !genuine.is_empty() && !impostor.is_empty(),
            "both score populations must be non-empty"
        );
        assert!(
            genuine.iter().chain(&impostor).all(|s| s.is_finite()),
            "scores must be finite"
        );
        RocAnalysis { genuine, impostor }
    }

    /// False accept rate at `threshold` (impostor scores ≥ threshold).
    pub fn far_at(&self, threshold: f64) -> f64 {
        self.impostor.iter().filter(|s| **s >= threshold).count() as f64
            / self.impostor.len() as f64
    }

    /// False reject rate at `threshold` (genuine scores < threshold).
    pub fn frr_at(&self, threshold: f64) -> f64 {
        self.genuine.iter().filter(|s| **s < threshold).count() as f64 / self.genuine.len() as f64
    }

    /// The equal error rate and the threshold where FAR ≈ FRR.
    pub fn eer(&self) -> (f64, f64) {
        let mut best = (f64::INFINITY, 0.0, 0.0);
        for i in 0..=1_000 {
            let t = i as f64 / 1_000.0;
            let far = self.far_at(t);
            let frr = self.frr_at(t);
            let gap = (far - frr).abs();
            if gap < best.0 {
                best = (gap, t, (far + frr) / 2.0);
            }
        }
        (best.2, best.1)
    }

    /// Mean genuine score.
    pub fn genuine_mean(&self) -> f64 {
        self.genuine.iter().sum::<f64>() / self.genuine.len() as f64
    }

    /// Mean impostor score.
    pub fn impostor_mean(&self) -> f64 {
        self.impostor.iter().sum::<f64>() / self.impostor.len() as f64
    }

    /// d′-style separation: mean gap over pooled standard deviation.
    pub fn separation(&self) -> f64 {
        let gm = self.genuine_mean();
        let im = self.impostor_mean();
        let gv = variance(&self.genuine, gm);
        let iv = variance(&self.impostor, im);
        let pooled = ((gv + iv) / 2.0).sqrt();
        if pooled == 0.0 {
            if gm == im {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (gm - im) / pooled
        }
    }
}

fn variance(xs: &[f64], mean: f64) -> f64 {
    xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_separated() -> RocAnalysis {
        RocAnalysis::new(
            vec![0.8, 0.85, 0.9, 0.7, 0.75, 0.95],
            vec![0.05, 0.1, 0.15, 0.2, 0.12, 0.08],
        )
    }

    #[test]
    fn rates_at_extremes() {
        let roc = well_separated();
        assert_eq!(roc.far_at(0.0), 1.0);
        assert_eq!(roc.frr_at(0.0), 0.0);
        assert_eq!(roc.far_at(1.01), 0.0);
        assert_eq!(roc.frr_at(1.01), 1.0);
    }

    #[test]
    fn perfect_separation_has_zero_eer() {
        let roc = well_separated();
        let (eer, threshold) = roc.eer();
        assert_eq!(eer, 0.0);
        assert!(threshold > 0.2 && threshold < 0.7);
    }

    #[test]
    fn overlapping_populations_have_positive_eer() {
        let roc = RocAnalysis::new(
            vec![0.4, 0.5, 0.6, 0.55, 0.45, 0.35],
            vec![0.3, 0.45, 0.5, 0.25, 0.55, 0.2],
        );
        let (eer, _) = roc.eer();
        assert!(eer > 0.1, "eer {eer}");
        assert!(eer < 0.9);
    }

    #[test]
    fn curve_is_monotone() {
        let roc = well_separated();
        let curve = roc.curve(21);
        assert_eq!(curve.len(), 21);
        for w in curve.windows(2) {
            assert!(w[1].far <= w[0].far, "FAR must fall as threshold rises");
            assert!(w[1].frr >= w[0].frr, "FRR must rise as threshold rises");
        }
    }

    #[test]
    fn separation_metric_orders_populations() {
        let tight = well_separated();
        let loose = RocAnalysis::new(vec![0.5, 0.6, 0.55], vec![0.45, 0.5, 0.4]);
        assert!(tight.separation() > loose.separation());
        assert!(tight.genuine_mean() > tight.impostor_mean());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_population_rejected() {
        let _ = RocAnalysis::new(vec![], vec![0.1]);
    }

    impl RocAnalysis {
        /// The curve sampled at `steps` evenly spaced thresholds over `[0, 1]`.
        ///
        /// # Panics
        ///
        /// Panics if `steps < 2`.
        pub fn curve(&self, steps: usize) -> Vec<RocPoint> {
            assert!(steps >= 2, "need at least two curve points");
            (0..steps)
                .map(|i| {
                    let threshold = i as f64 / (steps - 1) as f64;
                    RocPoint {
                        threshold,
                        far: self.far_at(threshold),
                        frr: self.frr_at(threshold),
                    }
                })
                .collect()
        }
    }
}
