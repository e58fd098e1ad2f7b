//! Timed touch streams.
//!
//! A [`SessionGenerator`] turns a [`UserProfile`] into the stream of
//! touches a device would see during natural use: positions from the
//! profile's mixture, tap-vs-swipe kinematics (swipes move fast and hurt
//! capture quality), pressure variation, grip offset between the touch
//! point and the fingertip-pad centre, and realistic inter-touch gaps.

use btd_sim::geom::MmPoint;
use btd_sim::rng::SimRng;
use btd_sim::time::{SimDuration, SimTime};

use crate::profile::UserProfile;

/// One touch as the workload describes it (physical ground truth).
#[derive(Clone, Copy, Debug)]
pub struct TouchSample {
    /// When the finger lands.
    pub at: SimTime,
    /// Touch position on the panel, millimetres.
    pub pos: MmPoint,
    /// Where the fingertip-pad centre sits on the panel (offset from `pos`
    /// by grip geometry); captures sample the finger relative to this.
    pub finger_center: MmPoint,
    /// The true user performing the touch.
    pub user_id: u64,
    /// Which of the user's enrolled fingers touches.
    pub finger_index: u8,
    /// Finger speed during the touch, mm/s.
    pub speed_mm_s: f64,
    /// Contact pressure, `[0, 1]`.
    pub pressure: f64,
    /// Contact patch radius, millimetres.
    pub contact_radius_mm: f64,
    /// Skin moisture, `[0, 1]`.
    pub moisture: f64,
    /// How long the finger stays down.
    pub dwell: SimDuration,
}

/// Generates timed touch streams for one user profile.
#[derive(Debug)]
pub struct SessionGenerator {
    profile: UserProfile,
    now: SimTime,
    moisture: f64,
}

impl SessionGenerator {
    /// Creates a generator starting at time zero. The user's skin moisture
    /// is drawn once per session (it changes slowly).
    pub fn new(profile: UserProfile, rng: &mut SimRng) -> Self {
        let moisture = rng.range_f64(0.15, 0.55);
        SessionGenerator {
            profile,
            now: SimTime::ZERO,
            moisture,
        }
    }

    /// The current session clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Generates the next touch.
    pub fn next_touch(&mut self, rng: &mut SimRng) -> TouchSample {
        // Inter-touch gap: log-normal-ish around the profile mean.
        let gap_s =
            (self.profile.mean_gap_s * (rng.gaussian_with(0.0, 0.5)).exp()).clamp(0.05, 10.0);
        self.now += SimDuration::from_secs_f64(gap_s);

        let pos = self.profile.sample_position(rng);
        let is_swipe = rng.chance(self.profile.swipe_fraction);
        let (speed, dwell) = if is_swipe {
            (
                rng.range_f64(40.0, 200.0),
                SimDuration::from_secs_f64(rng.range_f64(0.08, 0.3)),
            )
        } else {
            (
                rng.range_f64(0.0, 12.0),
                SimDuration::from_secs_f64(rng.range_f64(0.06, 0.5)),
            )
        };
        let pressure = rng
            .gaussian_with(self.profile.mean_pressure, 0.12)
            .clamp(0.05, 1.0);
        // Grip offset: the pad centre sits a little "behind" the touch
        // point along the thumb direction; jittered per touch.
        let finger_center = MmPoint::new(
            pos.x + rng.gaussian_with(0.0, 1.0),
            pos.y + rng.gaussian_with(1.5, 1.2),
        );
        TouchSample {
            at: self.now,
            pos,
            finger_center,
            user_id: self.profile.user_id(),
            finger_index: self.profile.sample_finger(rng),
            speed_mm_s: speed,
            pressure,
            contact_radius_mm: rng.range_f64(3.2, 5.5),
            moisture: (self.moisture + rng.gaussian_with(0.0, 0.03)).clamp(0.0, 1.0),
            dwell,
        }
    }

    /// Generates `n` consecutive touches.
    pub fn generate(&mut self, n: usize, rng: &mut SimRng) -> Vec<TouchSample> {
        (0..n).map(|_| self.next_touch(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(profile_idx: usize, n: usize, seed: u64) -> Vec<TouchSample> {
        let mut rng = SimRng::seed_from(seed);
        let mut gen = SessionGenerator::new(UserProfile::builtin(profile_idx), &mut rng);
        gen.generate(n, &mut rng)
    }

    #[test]
    fn time_is_strictly_increasing() {
        let s = samples(0, 200, 1);
        for w in s.windows(2) {
            assert!(w[1].at > w[0].at);
        }
    }

    #[test]
    fn swipe_fraction_matches_profile() {
        let s = samples(1, 2_000, 2); // scroller: 55% swipes
        let fast = s.iter().filter(|t| t.speed_mm_s > 30.0).count();
        let frac = fast as f64 / s.len() as f64;
        assert!((0.45..0.65).contains(&frac), "swipe fraction {frac}");
    }

    #[test]
    fn pressures_and_radii_in_range() {
        for t in samples(2, 500, 3) {
            assert!((0.05..=1.0).contains(&t.pressure));
            assert!((3.2..5.5).contains(&t.contact_radius_mm));
            assert!((0.0..=1.0).contains(&t.moisture));
            assert!(t.dwell > SimDuration::ZERO);
        }
    }

    #[test]
    fn finger_center_is_near_touch_point() {
        for t in samples(0, 300, 4) {
            let d = t.pos.distance_to(t.finger_center);
            assert!(d < 8.0, "grip offset {d}mm");
        }
    }

    #[test]
    fn mean_gap_reflects_profile() {
        let fast = samples(2, 500, 5); // gamer: 0.3s mean gap
        let slow = samples(1, 500, 5); // scroller: 1.1s
        let fast_span = fast.last().unwrap().at.as_secs_f64();
        let slow_span = slow.last().unwrap().at.as_secs_f64();
        assert!(slow_span > 1.5 * fast_span, "{slow_span} vs {fast_span}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = samples(0, 50, 9);
        let b = samples(0, 50, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.at, y.at);
        }
    }
}
