//! Per-user touch distributions.
//!
//! A [`UserProfile`] is a Gaussian mixture over the panel whose components
//! model where a particular user's touches land (keyboard band, scroll
//! edge, navigation row, …). The three built-in profiles reproduce the
//! qualitative structure of the paper's Figure 7: per-user hot spots with
//! meaningful overlap ("there are overlaps and hot-spot touch regions
//! among the three users").

use btd_sim::geom::{MmPoint, MmSize};
use btd_sim::rng::SimRng;

/// One Gaussian component of a touch mixture.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TouchCluster {
    /// Mixture weight (relative; normalized internally).
    pub weight: f64,
    /// Component mean on the panel, millimetres.
    pub mean: MmPoint,
    /// Standard deviation along x and y, millimetres.
    pub std_dev: MmSize,
}

/// A user's touch-behaviour model.
#[derive(Clone, Debug)]
pub struct UserProfile {
    user_id: u64,
    name: String,
    panel_size: MmSize,
    clusters: Vec<TouchCluster>,
    /// `clusters`' weights, in order, so a draw needs no fresh `Vec`.
    cluster_weights: Vec<f64>,
    /// Mean inter-touch gap, seconds.
    pub mean_gap_s: f64,
    /// Fraction of touches that are fast swipes rather than taps.
    pub swipe_fraction: f64,
    /// Mean touch pressure.
    pub mean_pressure: f64,
    /// Which fingers the user actually touches with (index into their
    /// enrolled hand; thumb-heavy users mostly present finger 0).
    pub finger_weights: Vec<f64>,
}

impl UserProfile {
    /// Creates a profile from mixture components.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or all weights are zero.
    pub fn new(
        user_id: u64,
        name: impl Into<String>,
        panel_size: MmSize,
        clusters: Vec<TouchCluster>,
    ) -> Self {
        assert!(!clusters.is_empty(), "profile needs at least one cluster");
        let cluster_weights: Vec<f64> = clusters.iter().map(|c| c.weight).collect();
        assert!(
            cluster_weights.iter().sum::<f64>() > 0.0,
            "cluster weights must not all be zero"
        );
        UserProfile {
            user_id,
            name: name.into(),
            panel_size,
            clusters,
            cluster_weights,
            mean_gap_s: 0.8,
            swipe_fraction: 0.3,
            mean_pressure: 0.55,
            finger_weights: vec![0.6, 0.3, 0.1],
        }
    }

    /// The three built-in profiles standing in for the paper's Figure 7
    /// users. `index` must be 0, 1, or 2.
    ///
    /// * **0 — "texter"**: dominated by the keyboard band at the bottom and
    ///   the send button, right-thumb biased.
    /// * **1 — "scroller"**: browsing-style, right-edge scroll arc plus
    ///   centre-content taps.
    /// * **2 — "gamer"**: two-thumb landscape corners plus centre bursts.
    ///
    /// All three share a navigation-row component at the bottom centre —
    /// the overlap the paper exploits for sensor placement.
    ///
    /// # Panics
    ///
    /// Panics for `index > 2`.
    pub fn builtin(index: usize) -> UserProfile {
        let panel = MmSize::new(52.0, 94.0);
        // Shared hot spot: the navigation/home row all users hit.
        let nav = TouchCluster {
            weight: 0.18,
            mean: MmPoint::new(26.0, 88.0),
            std_dev: MmSize::new(7.0, 3.0),
        };
        match index {
            0 => {
                let mut p = UserProfile::new(
                    0,
                    "user1-texter",
                    panel,
                    vec![
                        // Keyboard band.
                        TouchCluster {
                            weight: 0.52,
                            mean: MmPoint::new(26.0, 74.0),
                            std_dev: MmSize::new(12.0, 5.0),
                        },
                        // Send button, top right of keyboard.
                        TouchCluster {
                            weight: 0.12,
                            mean: MmPoint::new(45.0, 62.0),
                            std_dev: MmSize::new(2.5, 2.5),
                        },
                        // Text field taps.
                        TouchCluster {
                            weight: 0.18,
                            mean: MmPoint::new(24.0, 40.0),
                            std_dev: MmSize::new(9.0, 6.0),
                        },
                        nav,
                    ],
                );
                p.mean_gap_s = 0.45; // fast typist
                p.swipe_fraction = 0.1;
                p
            }
            1 => {
                let mut p = UserProfile::new(
                    1,
                    "user2-scroller",
                    panel,
                    vec![
                        // Right-edge scroll arc.
                        TouchCluster {
                            weight: 0.45,
                            mean: MmPoint::new(43.0, 52.0),
                            std_dev: MmSize::new(4.0, 14.0),
                        },
                        // Centre content taps (links, photos).
                        TouchCluster {
                            weight: 0.27,
                            mean: MmPoint::new(25.0, 35.0),
                            std_dev: MmSize::new(9.0, 9.0),
                        },
                        // Back gesture, bottom left.
                        TouchCluster {
                            weight: 0.10,
                            mean: MmPoint::new(8.0, 85.0),
                            std_dev: MmSize::new(3.0, 4.0),
                        },
                        nav,
                    ],
                );
                p.mean_gap_s = 1.1;
                p.swipe_fraction = 0.55;
                p
            }
            2 => {
                let mut p = UserProfile::new(
                    2,
                    "user3-gamer",
                    panel,
                    vec![
                        // Left-thumb virtual stick.
                        TouchCluster {
                            weight: 0.34,
                            mean: MmPoint::new(11.0, 70.0),
                            std_dev: MmSize::new(4.5, 4.5),
                        },
                        // Right-thumb action buttons.
                        TouchCluster {
                            weight: 0.34,
                            mean: MmPoint::new(42.0, 70.0),
                            std_dev: MmSize::new(4.5, 4.5),
                        },
                        // Occasional centre interactions.
                        TouchCluster {
                            weight: 0.14,
                            mean: MmPoint::new(26.0, 40.0),
                            std_dev: MmSize::new(10.0, 8.0),
                        },
                        nav,
                    ],
                );
                p.mean_gap_s = 0.3; // rapid-fire taps
                p.swipe_fraction = 0.2;
                p.mean_pressure = 0.65;
                p
            }
            _ => panic!("builtin profile index must be 0, 1 or 2"),
        }
    }

    /// The user id (also seeds the user's finger patterns).
    pub fn user_id(&self) -> u64 {
        self.user_id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The panel this profile is calibrated for.
    pub fn panel_size(&self) -> MmSize {
        self.panel_size
    }

    /// Samples a touch position, clamped to the panel.
    pub fn sample_position(&self, rng: &mut SimRng) -> MmPoint {
        let c = &self.clusters[rng.weighted_index(&self.cluster_weights)];
        let x = rng
            .gaussian_with(c.mean.x, c.std_dev.w)
            .clamp(1.0, self.panel_size.w - 1.0);
        let y = rng
            .gaussian_with(c.mean.y, c.std_dev.h)
            .clamp(1.0, self.panel_size.h - 1.0);
        MmPoint::new(x, y)
    }

    /// Samples which enrolled finger performs a touch.
    pub fn sample_finger(&self, rng: &mut SimRng) -> u8 {
        rng.weighted_index(&self.finger_weights) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_have_distinct_identities() {
        let p0 = UserProfile::builtin(0);
        let p1 = UserProfile::builtin(1);
        let p2 = UserProfile::builtin(2);
        assert_eq!(p0.user_id(), 0);
        assert_ne!(p0.name(), p1.name());
        assert_ne!(p1.name(), p2.name());
    }

    #[test]
    #[should_panic(expected = "0, 1 or 2")]
    fn invalid_builtin_rejected() {
        let _ = UserProfile::builtin(3);
    }

    #[test]
    fn samples_stay_on_panel() {
        for idx in 0..3 {
            let p = UserProfile::builtin(idx);
            let mut rng = SimRng::seed_from(idx as u64);
            for _ in 0..1_000 {
                let pos = p.sample_position(&mut rng);
                assert!(pos.x >= 0.0 && pos.x <= p.panel_size().w);
                assert!(pos.y >= 0.0 && pos.y <= p.panel_size().h);
            }
        }
    }

    #[test]
    fn texter_concentrates_in_keyboard_band() {
        let p = UserProfile::builtin(0);
        let mut rng = SimRng::seed_from(1);
        let in_band = (0..2_000)
            .filter(|_| {
                let pos = p.sample_position(&mut rng);
                (60.0..94.0).contains(&pos.y)
            })
            .count();
        assert!(in_band > 1_100, "keyboard-band touches: {in_band}/2000");
    }

    #[test]
    fn scroller_favours_right_edge() {
        let p = UserProfile::builtin(1);
        let mut rng = SimRng::seed_from(2);
        let (mut right, mut left) = (0, 0);
        for _ in 0..2_000 {
            let pos = p.sample_position(&mut rng);
            if pos.x > 34.0 {
                right += 1;
            } else if pos.x < 18.0 {
                left += 1;
            }
        }
        assert!(right > 2 * left, "right {right} vs left {left}");
    }

    #[test]
    fn profiles_share_the_nav_hotspot() {
        // All built-ins must have non-trivial density at the nav row — the
        // overlap the paper's placement argument relies on.
        let nav = MmPoint::new(26.0, 88.0);
        let far = MmPoint::new(5.0, 8.0);
        for idx in 0..3 {
            let p = UserProfile::builtin(idx);
            assert!(
                p.density_at(nav) > 5.0 * p.density_at(far),
                "profile {idx} lacks the shared nav hotspot"
            );
        }
    }

    #[test]
    fn density_integrates_sensibly() {
        let p = UserProfile::builtin(0);
        // Density at a cluster mean exceeds density a few σ away.
        let kb = MmPoint::new(26.0, 74.0);
        assert!(p.density_at(kb) > p.density_at(MmPoint::new(26.0, 10.0)));
    }

    #[test]
    fn finger_sampling_uses_weights() {
        let p = UserProfile::builtin(0);
        let mut rng = SimRng::seed_from(3);
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[p.sample_finger(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
    }

    impl UserProfile {
        /// Probability density (unnormalized) of a touch at `p` — used by the
        /// placement optimizer's analytic mode.
        pub fn density_at(&self, p: MmPoint) -> f64 {
            let total_w: f64 = self.clusters.iter().map(|c| c.weight).sum();
            self.clusters
                .iter()
                .map(|c| {
                    let zx = (p.x - c.mean.x) / c.std_dev.w;
                    let zy = (p.y - c.mean.y) / c.std_dev.h;
                    c.weight / total_w * (-0.5 * (zx * zx + zy * zy)).exp()
                        / (c.std_dev.w * c.std_dev.h)
                })
                .sum()
        }
    }
}
