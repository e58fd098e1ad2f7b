//! The placement optimization problem and its coverage objective.

use btd_sim::geom::{MmPoint, MmRect, MmSize};
use btd_sim::rng::SimRng;
use btd_workload::heatmap::Heatmap;

/// Sub-sampling grid per heatmap cell when evaluating coverage (a cell is
/// pro-rated by the fraction of its sub-points under some sensor).
const SUBSAMPLES: usize = 3;

/// A sensor-placement optimization instance.
#[derive(Clone, Debug)]
pub struct PlacementProblem {
    panel: MmSize,
    sensor: MmSize,
    heatmap: Heatmap,
}

impl PlacementProblem {
    /// Creates a problem: place sensors of footprint `sensor` on `panel`
    /// to cover the touch mass of `heatmap`.
    ///
    /// # Panics
    ///
    /// Panics if the sensor footprint does not fit the panel.
    pub fn new(panel: MmSize, sensor: MmSize, heatmap: Heatmap) -> Self {
        assert!(
            sensor.w <= panel.w && sensor.h <= panel.h,
            "sensor footprint must fit the panel"
        );
        PlacementProblem {
            panel,
            sensor,
            heatmap,
        }
    }

    /// The panel size.
    pub fn panel(&self) -> MmSize {
        self.panel
    }

    /// The sensor footprint.
    pub fn sensor_size(&self) -> MmSize {
        self.sensor
    }

    /// The sensor rectangle whose top-left corner is `origin`.
    pub fn sensor_rect(&self, origin: MmPoint) -> MmRect {
        MmRect::new(origin, self.sensor)
    }

    /// Whether `rect` lies fully on the panel.
    pub fn fits(&self, rect: MmRect) -> bool {
        rect.left() >= 0.0
            && rect.top() >= 0.0
            && rect.right() <= self.panel.w
            && rect.bottom() <= self.panel.h
    }

    /// Whether `rect` overlaps any rectangle in `placement` (sensor
    /// patches are physical TFT stacks and cannot overlap).
    pub fn overlaps_any(&self, rect: MmRect, placement: &[MmRect]) -> bool {
        placement.iter().any(|p| p.overlaps(rect))
    }

    /// Fraction of the recorded touch mass that lands under some sensor of
    /// `placement` — the paper's "chance of capturing touch points during
    /// user-device interaction".
    pub fn coverage(&self, placement: &[MmRect]) -> f64 {
        if placement.is_empty() || self.heatmap.total() == 0 {
            return 0.0;
        }
        let mut covered = 0.0;
        let mut total = 0.0;
        for r in 0..self.heatmap.rows() {
            for c in 0..self.heatmap.cols() {
                let count = self.heatmap.count(r, c) as f64;
                if count == 0.0 {
                    continue;
                }
                total += count;
                let cell = self.heatmap.cell_rect(r, c);
                // Sub-sample the cell to pro-rate edge coverage under the
                // union of sensor rectangles.
                let mut hit = 0usize;
                for sy in 0..SUBSAMPLES {
                    for sx in 0..SUBSAMPLES {
                        let p = MmPoint::new(
                            cell.left() + (sx as f64 + 0.5) / SUBSAMPLES as f64 * cell.size.w,
                            cell.top() + (sy as f64 + 0.5) / SUBSAMPLES as f64 * cell.size.h,
                        );
                        if placement.iter().any(|rect| rect.contains(p)) {
                            hit += 1;
                        }
                    }
                }
                covered += count * hit as f64 / (SUBSAMPLES * SUBSAMPLES) as f64;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            covered / total
        }
    }

    /// A uniformly random non-overlapping placement of `k` sensors (the
    /// baseline the optimizers are compared against). May return fewer
    /// than `k` rectangles if random placement cannot fit more without
    /// overlap after many attempts.
    pub fn random_placement(&self, k: usize, rng: &mut SimRng) -> Vec<MmRect> {
        let mut placement = Vec::with_capacity(k);
        let mut attempts = 0;
        while placement.len() < k && attempts < 10_000 {
            attempts += 1;
            let origin = MmPoint::new(
                rng.range_f64(0.0, self.panel.w - self.sensor.w),
                rng.range_f64(0.0, self.panel.h - self.sensor.h),
            );
            let rect = self.sensor_rect(origin);
            if !self.overlaps_any(rect, &placement) {
                placement.push(rect);
            }
        }
        placement
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use btd_workload::heatmap::Heatmap;
    use btd_workload::profile::UserProfile;
    use btd_workload::session::SessionGenerator;
    use proptest::prelude::*;

    fn quick_problem(seed: u64) -> PlacementProblem {
        let mut rng = SimRng::seed_from(seed);
        let profile = UserProfile::builtin((seed % 3) as usize);
        let panel = profile.panel_size();
        let mut gen = SessionGenerator::new(profile, &mut rng);
        let samples = gen.generate(500, &mut rng);
        let heatmap = Heatmap::from_samples(panel, 4.0, &samples);
        PlacementProblem::new(panel, MmSize::new(8.0, 8.0), heatmap)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Coverage is always a fraction, and adding a sensor never
        /// decreases it.
        #[test]
        fn coverage_is_monotone_fraction(seed in 0u64..500, n in 1usize..5) {
            let problem = quick_problem(seed);
            let mut rng = SimRng::seed_from(seed ^ 0xABCD);
            let placement = problem.random_placement(n, &mut rng);
            let cov = problem.coverage(&placement);
            prop_assert!((0.0..=1.0).contains(&cov));
            if placement.len() > 1 {
                let fewer = &placement[..placement.len() - 1];
                prop_assert!(problem.coverage(fewer) <= cov + 1e-9);
            }
        }

        /// Random placements are always physically valid.
        #[test]
        fn random_placement_is_always_valid(seed in 0u64..500, n in 1usize..6) {
            let problem = quick_problem(seed);
            let mut rng = SimRng::seed_from(seed.wrapping_mul(31));
            let placement = problem.random_placement(n, &mut rng);
            for (i, r) in placement.iter().enumerate() {
                prop_assert!(problem.fits(*r));
                for other in &placement[i + 1..] {
                    prop_assert!(!r.overlaps(*other));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_workload::profile::UserProfile;
    use btd_workload::session::SessionGenerator;

    pub(crate) fn problem_for(profile_idx: usize, touches: usize) -> PlacementProblem {
        let mut rng = SimRng::seed_from(profile_idx as u64 + 77);
        let profile = UserProfile::builtin(profile_idx);
        let panel = profile.panel_size();
        let mut gen = SessionGenerator::new(profile, &mut rng);
        let samples = gen.generate(touches, &mut rng);
        let heatmap = Heatmap::from_samples(panel, 4.0, &samples);
        PlacementProblem::new(panel, MmSize::new(8.0, 8.0), heatmap)
    }

    #[test]
    fn empty_placement_covers_nothing() {
        let p = problem_for(0, 1_000);
        assert_eq!(p.coverage(&[]), 0.0);
    }

    #[test]
    fn full_panel_placement_covers_everything() {
        let mut rng = SimRng::seed_from(1);
        let profile = UserProfile::builtin(0);
        let panel = profile.panel_size();
        let mut gen = SessionGenerator::new(profile, &mut rng);
        let samples = gen.generate(1_000, &mut rng);
        let heatmap = Heatmap::from_samples(panel, 4.0, &samples);
        let p = PlacementProblem::new(panel, panel, heatmap);
        let whole = p.sensor_rect(MmPoint::new(0.0, 0.0));
        assert!(p.coverage(&[whole]) > 0.97);
    }

    #[test]
    fn coverage_is_monotone_in_sensors() {
        let p = problem_for(0, 2_000);
        let a = p.sensor_rect(MmPoint::new(20.0, 70.0)); // keyboard band
        let b = p.sensor_rect(MmPoint::new(20.0, 84.0)); // nav row
        let one = p.coverage(&[a]);
        let two = p.coverage(&[a, b]);
        assert!(two >= one);
        assert!(one > 0.0);
    }

    #[test]
    fn hotspot_placement_beats_cold_corner() {
        let p = problem_for(0, 2_000);
        let hot = p.coverage(&[p.sensor_rect(MmPoint::new(22.0, 70.0))]);
        let cold = p.coverage(&[p.sensor_rect(MmPoint::new(0.0, 0.0))]);
        assert!(hot > 3.0 * cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn fits_and_overlap_checks() {
        let p = problem_for(0, 100);
        assert!(p.fits(p.sensor_rect(MmPoint::new(0.0, 0.0))));
        assert!(!p.fits(p.sensor_rect(MmPoint::new(50.0, 0.0))));
        let a = p.sensor_rect(MmPoint::new(10.0, 10.0));
        let b = p.sensor_rect(MmPoint::new(14.0, 14.0));
        let c = p.sensor_rect(MmPoint::new(30.0, 30.0));
        assert!(p.overlaps_any(b, &[a]));
        assert!(!p.overlaps_any(c, &[a]));
    }

    #[test]
    fn random_placement_is_valid() {
        let p = problem_for(1, 100);
        let mut rng = SimRng::seed_from(5);
        let placement = p.random_placement(5, &mut rng);
        assert_eq!(placement.len(), 5);
        for (i, r) in placement.iter().enumerate() {
            assert!(p.fits(*r));
            for other in &placement[i + 1..] {
                assert!(!r.overlaps(*other));
            }
        }
    }

    impl PlacementProblem {
        /// The touch-density weights.
        pub fn heatmap(&self) -> &Heatmap {
            &self.heatmap
        }
    }
}
