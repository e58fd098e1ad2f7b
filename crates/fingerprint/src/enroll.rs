//! Guided enrollment: building a [`Template`] from multiple captures.
//!
//! Enrollment in the TRUST flow is an explicit, cooperative step (the user
//! places a finger on the unlock region when binding a device or an
//! account), so — unlike opportunistic captures — the finger pose is
//! controlled. The simulation reflects that by mapping each enrollment
//! capture back into the fingertip frame with its ground-truth pose, then
//! clustering detections across captures to suppress spurious minutiae.

use btd_sim::geom::MmPoint;
use btd_sim::rng::SimRng;

use crate::minutiae::{normalize_angle, CaptureWindow, Minutia, MinutiaKind};
use crate::pattern::{FingerPattern, FINGER_HALF_H, FINGER_HALF_W, MOST_MINUTIAE};
use crate::quality::CaptureConditions;
use crate::template::Template;

/// Minimum fraction of captures a minutia must appear in to be enrolled.
const MIN_SUPPORT_FRACTION: f64 = 0.4;
/// Cluster radius when merging detections across captures, millimetres.
const CLUSTER_RADIUS: f64 = 0.7;
/// Side of a clustering grid cell: a hair over [`CLUSTER_RADIUS`], so two
/// detections the cluster predicate joins always sit in neighbouring
/// cells, whatever the rounding of their cell coordinates.
const CELL: f64 = CLUSTER_RADIUS * (1.0 + 1e-9);
/// Headroom when sizing enrolment's buffers: detections per capture
/// beyond the ground truth, cluster members beyond one per capture, and
/// clusters beyond the ground truth (ideal conditions expect well under
/// one spurious detection per capture). Going over costs a growth, not a
/// result.
const SLACK: usize = 2;

/// Enrolls `finger` from `captures` guided captures.
///
/// # Panics
///
/// Panics if `captures` is zero or enrollment detects no stable minutiae
/// (which cannot happen for a well-formed [`FingerPattern`] with ≥1
/// capture).
///
/// # Example
///
/// ```
/// use btd_fingerprint::enroll::enroll;
/// use btd_fingerprint::pattern::FingerPattern;
/// use btd_sim::rng::SimRng;
///
/// let finger = FingerPattern::generate(42, 0);
/// let template = enroll(&finger, 5, &mut SimRng::seed_from(1));
/// assert!(template.len() >= 20);
/// ```
pub fn enroll(finger: &FingerPattern, captures: usize, rng: &mut SimRng) -> Template {
    Enrolment::default().enroll(finger, captures, rng)
}

/// Enrolment's working buffers, kept across the fingers of one guided
/// flow so that enrolling several fingers allocates them about once
/// rather than once per finger. They hold detections of the last finger
/// enrolled, so `Debug` shows none of them.
#[derive(Default)]
pub struct Enrolment {
    /// Every capture's detections, in the fingertip frame.
    all: Vec<Minutia>,
    /// Which detections are already clustered.
    used: Vec<bool>,
    /// The detections of the cluster being merged.
    members: Vec<usize>,
    grid: Grid,
}

impl std::fmt::Debug for Enrolment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enrolment").finish_non_exhaustive()
    }
}

impl Enrolment {
    /// [`enroll`] with these buffers: every bit of the template is the
    /// same.
    ///
    /// # Panics
    ///
    /// As [`enroll`].
    pub fn enroll(
        &mut self,
        finger: &FingerPattern,
        captures: usize,
        rng: &mut SimRng,
    ) -> Template {
        assert!(captures > 0, "enrollment needs at least one capture");
        // A window covering the whole fingertip: guided enrollment asks the
        // user to press flat on a dedicated region.
        let window = CaptureWindow::centered(
            MmPoint::new(0.0, 0.0),
            2.0 * FINGER_HALF_W + 2.0,
            2.0 * FINGER_HALF_H + 2.0,
        );

        // Every capture lands in one buffer, then is mapped back to the
        // fingertip frame in place with its guided pose.
        let truth = finger.minutiae().len();
        let Enrolment {
            all,
            used,
            members,
            grid,
        } = self;
        // Sized for the largest pattern, so a flow's later fingers find
        // them large enough; going over costs a growth, not a result.
        let most = captures * (truth.max(MOST_MINUTIAE) + SLACK);
        all.clear();
        all.reserve(most);
        used.clear();
        used.reserve(most);
        grid.index.clear();
        grid.index.reserve(most);
        for _ in 0..captures {
            let first = all.len();
            let meta = finger.observe_into(&window, &CaptureConditions::ideal(), rng, all);
            let (s, c) = (-meta.true_rotation).sin_cos();
            let center = meta.true_window_center;
            for m in &mut all[first..] {
                let x = m.pos.x * c - m.pos.y * s + center.x;
                let y = m.pos.x * s + m.pos.y * c + center.y;
                *m = Minutia::new(MmPoint::new(x, y), m.angle - meta.true_rotation, m.kind);
            }
        }

        // Greedy clustering: repeatedly take the first unclustered minutia and
        // absorb every later one within CLUSTER_RADIUS. The grid only narrows
        // the search; members keep ascending order, which the sums and the
        // vote below depend on.
        let min_support = ((captures as f64 * MIN_SUPPORT_FRACTION).ceil() as usize).max(1);
        grid.fill(all);
        used.resize(all.len(), false);
        members.clear();
        members.reserve(captures + SLACK);
        let mut merged: Vec<Minutia> = Vec::with_capacity(truth + SLACK);
        for i in 0..all.len() {
            if used[i] {
                continue;
            }
            members.clear();
            members.push(i);
            members.extend(
                grid.near(all[i].pos)
                    .filter(|&j| j > i && !used[j])
                    .filter(|&j| all[i].pos.distance_to(all[j].pos) < CLUSTER_RADIUS),
            );
            members[1..].sort_unstable();
            for &k in members.iter() {
                used[k] = true;
            }
            if members.len() < min_support {
                continue;
            }
            // Average position; circular-mean angle; majority kind.
            let n = members.len() as f64;
            let mx = members.iter().map(|&k| all[k].pos.x).sum::<f64>() / n;
            let my = members.iter().map(|&k| all[k].pos.y).sum::<f64>() / n;
            let sin_sum: f64 = members.iter().map(|&k| all[k].angle.sin()).sum();
            let cos_sum: f64 = members.iter().map(|&k| all[k].angle.cos()).sum();
            let angle = normalize_angle(sin_sum.atan2(cos_sum));
            let endings = members
                .iter()
                .filter(|&&k| all[k].kind == MinutiaKind::Ending)
                .count();
            let kind = if endings * 2 >= members.len() {
                MinutiaKind::Ending
            } else {
                MinutiaKind::Bifurcation
            };
            merged.push(Minutia::new(MmPoint::new(mx, my), angle, kind));
        }

        Template::new(finger.user_id(), finger.finger_index(), merged)
    }
}

/// The detections bucketed into square [`CELL`]-wide cells over their
/// bounding box, row-major, in CSR layout: cell `c` holds the indices
/// `index[start[c]..start[c + 1]]`.
#[derive(Default)]
struct Grid {
    x0: f64,
    y0: f64,
    cols: usize,
    rows: usize,
    start: Vec<u32>,
    index: Vec<u32>,
}

impl Grid {
    /// Buckets `points` by a counting sort on their cells, reusing the
    /// grid's buffers.
    fn fill(&mut self, points: &[Minutia]) {
        let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
        let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for m in points {
            x0 = x0.min(m.pos.x);
            y0 = y0.min(m.pos.y);
            x1 = x1.max(m.pos.x);
            y1 = y1.max(m.pos.y);
        }
        let cols = ((x1 - x0) / CELL) as usize + 1;
        let rows = ((y1 - y0) / CELL) as usize + 1;
        let grid = self;
        (grid.x0, grid.y0, grid.cols, grid.rows) = (x0, y0, cols, rows);
        grid.start.clear();
        grid.start.resize(cols * rows + 1, 0);
        grid.index.clear();
        grid.index.resize(points.len(), 0);
        for m in points {
            let (col, row) = grid.cell(m.pos);
            grid.start[row * cols + col] += 1;
        }
        // Running sums make `start[c]` the end of cell `c`; placing each
        // point moves its cell's end back by one, leaving the start.
        let mut end = 0;
        for s in &mut grid.start {
            end += *s;
            *s = end;
        }
        for (k, m) in points.iter().enumerate().rev() {
            let (col, row) = grid.cell(m.pos);
            let slot = &mut grid.start[row * cols + col];
            *slot -= 1;
            grid.index[*slot as usize] = k as u32;
        }
    }

    /// The `(column, row)` of the cell holding `p`, a point inside the
    /// bounding box.
    fn cell(&self, p: MmPoint) -> (usize, usize) {
        (
            ((p.x - self.x0) / CELL) as usize,
            ((p.y - self.y0) / CELL) as usize,
        )
    }

    /// Every bucketed index in the 3×3 cells around the cell of `p`: a
    /// superset of the points within [`CLUSTER_RADIUS`] of `p`.
    fn near(&self, p: MmPoint) -> impl Iterator<Item = usize> + '_ {
        let (col, row) = self.cell(p);
        let cols = col.saturating_sub(1)..(col + 2).min(self.cols);
        (row.saturating_sub(1)..(row + 2).min(self.rows)).flat_map(move |r| {
            let from = self.start[r * self.cols + cols.start] as usize;
            let to = self.start[r * self.cols + cols.end] as usize;
            self.index[from..to].iter().map(|&k| k as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enrollment_recovers_most_ground_truth() {
        let finger = FingerPattern::generate(100, 0);
        let mut rng = SimRng::seed_from(3);
        let template = enroll(&finger, 6, &mut rng);
        let truth = finger.minutiae();
        // Most template minutiae should sit near a ground-truth minutia.
        let near_truth = template
            .minutiae()
            .iter()
            .filter(|t| truth.iter().any(|g| g.pos.distance_to(t.pos) < 0.6))
            .count();
        let frac = near_truth as f64 / template.len() as f64;
        assert!(frac > 0.85, "only {frac:.2} of template is genuine");
        // And most of the ground truth should be recovered.
        let recovered = truth
            .iter()
            .filter(|g| {
                template
                    .minutiae()
                    .iter()
                    .any(|t| t.pos.distance_to(g.pos) < 0.6)
            })
            .count();
        assert!(
            recovered as f64 / truth.len() as f64 > 0.75,
            "recovered {recovered}/{}",
            truth.len()
        );
    }

    #[test]
    fn more_captures_do_not_shrink_template_badly() {
        let finger = FingerPattern::generate(101, 0);
        let t2 = enroll(&finger, 2, &mut SimRng::seed_from(1));
        let t8 = enroll(&finger, 8, &mut SimRng::seed_from(1));
        assert!(t8.len() >= t2.len() / 2);
        assert!(t8.len() >= 20);
    }

    #[test]
    fn enrollment_is_deterministic_given_rng_seed() {
        let finger = FingerPattern::generate(102, 1);
        let a = enroll(&finger, 4, &mut SimRng::seed_from(9));
        let b = enroll(&finger, 4, &mut SimRng::seed_from(9));
        assert_eq!(a.len(), b.len());
        // `assert!` rather than `assert_eq!`: a failure must not
        // Debug-print enrolled minutiae (secret-taint would flag it).
        assert!(a.minutiae()[0].pos == b.minutiae()[0].pos);
    }

    #[test]
    #[should_panic(expected = "at least one capture")]
    fn zero_captures_rejected() {
        let finger = FingerPattern::generate(103, 0);
        let _ = enroll(&finger, 0, &mut SimRng::seed_from(1));
    }

    /// FNV-1a over every template's identity, length and the bit pattern
    /// of each minutia's `x`, `y` and `angle`, with its kind.
    fn templates_digest(templates: &[Template]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        };
        for t in templates {
            eat(t.user_id());
            eat(u64::from(t.finger_index()));
            eat(t.len() as u64);
            for m in t.minutiae() {
                eat(m.pos.x.to_bits());
                eat(m.pos.y.to_bits());
                eat(m.angle.to_bits());
                eat(u64::from(m.kind == MinutiaKind::Ending));
            }
        }
        h
    }

    /// Captures per finger of the guided flow (`btd_flock`'s
    /// `ENROLL_CAPTURES`).
    const ENROLL_CAPTURES: usize = 5;

    /// Every bit of every enrolled template, pinned: users 0..64 with
    /// three fingers each, enrolled in turn from one generator as a
    /// device enrols its owner.
    #[test]
    fn enrolled_templates_match_known_answer() {
        let mut rng = SimRng::seed_from(0xE2_0115);
        let templates: Vec<Template> = (0..64)
            .flat_map(|user| (0..3).map(move |finger| (user, finger)))
            .map(|(user, finger)| {
                enroll(
                    &FingerPattern::generate(user, finger),
                    ENROLL_CAPTURES,
                    &mut rng,
                )
            })
            .collect();
        // `assert!`: the digest is derived from enrolled minutiae and must
        // not be printed (secret-taint).
        assert!(
            templates_digest(&templates) == 0x9052_1D8D_631C_FF62,
            "enrolled templates changed"
        );
    }

    /// The same pin across capture counts, one capture (support of one)
    /// included.
    #[test]
    fn templates_at_every_capture_count_match_known_answer() {
        let mut rng = SimRng::seed_from(0xE2_0116);
        let templates: Vec<Template> = [1, 2, 3, 8]
            .into_iter()
            .flat_map(|captures| (0..16).map(move |user| (user, captures)))
            .map(|(user, captures)| enroll(&FingerPattern::generate(user, 1), captures, &mut rng))
            .collect();
        // `assert!`: the digest is derived from enrolled minutiae and must
        // not be printed (secret-taint).
        assert!(
            templates_digest(&templates) == 0x2C19_A84B_6011_EE1E,
            "enrolled templates changed"
        );
    }

    #[test]
    fn template_carries_identity() {
        let finger = FingerPattern::generate(104, 3);
        let t = enroll(&finger, 3, &mut SimRng::seed_from(1));
        assert_eq!(t.user_id(), 104);
        assert_eq!(t.finger_index(), 3);
    }
}
