//! The fingerprint processor block.
//!
//! "The fingerprint processor can authenticate the user identity by
//! matching the input with the stored biometric templates." This block
//! holds the enrolled templates (one per enrolled finger) and runs the
//! partial-print matcher against all of them, taking the best score — a
//! touch can come from any enrolled finger.

use btd_fingerprint::enroll::Enrolment;
use btd_fingerprint::matcher::{MatchConfig, MatchResult, MatchScratch, TemplateSet};
use btd_fingerprint::minutiae::Minutia;
use btd_fingerprint::pattern::FingerPattern;
use btd_fingerprint::template::Template;
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;

/// The three-way decision of a biometric verification.
///
/// Treating every non-accept as fraud would let ordinary capture noise
/// lock the owner out; the processor therefore only calls *Reject* when
/// the score is conclusively below the impostor band.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchDecision {
    /// The observation matches an enrolled finger.
    Accept,
    /// The observation is conclusively a different finger.
    Reject,
    /// Not enough evidence either way (noisy genuine capture, tiny
    /// observation).
    Inconclusive,
}

/// Outcome of a template-store verification.
#[derive(Clone, Copy, Debug)]
pub struct VerifyResult {
    /// Best match across enrolled fingers.
    pub best: MatchResult,
    /// Index of the best-matching enrolled finger.
    pub finger_index: usize,
    /// The user the best-matching template belongs to (meaningful on
    /// shared devices with multiple enrolled users).
    pub matched_user: u64,
    /// The three-way decision.
    pub decision: MatchDecision,
    /// Modelled matcher latency for this verification.
    pub latency: SimDuration,
}

impl VerifyResult {}

/// The fingerprint processor with its template store.
#[derive(Clone, Debug)]
pub struct FingerprintProcessor {
    /// The enrolled templates, with the matcher's constants for them.
    templates: TemplateSet,
    config: MatchConfig,
    owner_user_id: Option<u64>,
    verifications: u64,
    /// Matcher buffers, reused by every verification.
    scratch: MatchScratch,
}

/// Enrollment captures per finger (guided flow).
const ENROLL_CAPTURES: usize = 5;

impl FingerprintProcessor {
    /// Creates an empty processor with the default matcher configuration.
    pub fn new() -> Self {
        FingerprintProcessor {
            templates: TemplateSet::default(),
            config: MatchConfig::default(),
            owner_user_id: None,
            verifications: 0,
            scratch: MatchScratch::new(),
        }
    }

    /// The matcher configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The enrolled owner, if any.
    pub fn owner(&self) -> Option<u64> {
        self.owner_user_id
    }

    /// Number of enrolled finger templates.
    pub fn template_count(&self) -> usize {
        self.templates.templates().len()
    }

    /// Enrolls `finger_count` fingers of `user_id` via the guided flow,
    /// replacing any previous enrollment. This user becomes the device
    /// owner.
    ///
    /// # Panics
    ///
    /// Panics if `finger_count` is zero.
    pub fn enroll_user(&mut self, user_id: u64, finger_count: u8, rng: &mut SimRng) {
        assert!(finger_count > 0, "must enroll at least one finger");
        self.templates = TemplateSet::default();
        self.owner_user_id = Some(user_id);
        self.add_user(user_id, finger_count, rng);
    }

    /// Enrolls an *additional* user's fingers without disturbing existing
    /// templates — a shared device (family tablet) supports several
    /// authorized users, all of whom continuously verify.
    ///
    /// # Panics
    ///
    /// Panics if `finger_count` is zero.
    pub fn add_user(&mut self, user_id: u64, finger_count: u8, rng: &mut SimRng) {
        assert!(finger_count > 0, "must enroll at least one finger");
        let mut templates = std::mem::take(&mut self.templates).into_templates();
        let mut enrolment = Enrolment::default();
        for f in 0..finger_count {
            let finger = FingerPattern::generate(user_id, f);
            templates.push(enrolment.enroll(&finger, ENROLL_CAPTURES, rng));
        }
        self.set_templates(templates);
        if self.owner_user_id.is_none() {
            self.owner_user_id = Some(user_id);
        }
    }

    /// The distinct users with enrolled templates.
    pub fn enrolled_users(&self) -> Vec<u64> {
        let mut users: Vec<u64> = self
            .templates
            .templates()
            .iter()
            .map(Template::user_id)
            .collect();
        users.sort_unstable();
        users.dedup();
        users
    }

    /// Installs templates directly (identity transfer from another device).
    ///
    /// # Panics
    ///
    /// Panics if `templates` is empty.
    pub fn install_templates(&mut self, user_id: u64, templates: Vec<Template>) {
        assert!(
            !templates.is_empty(),
            "cannot install an empty template set"
        );
        self.set_templates(templates);
        self.owner_user_id = Some(user_id);
    }

    /// Exports the enrolled templates (identity transfer to a new device).
    pub fn export_templates(&self) -> Vec<Template> {
        self.templates.templates().to_vec()
    }

    /// Replaces the template set: the matcher's constants are computed
    /// here, once, and its buffers sized for the new set, so no
    /// verification pays for either.
    fn set_templates(&mut self, templates: Vec<Template>) {
        self.templates = TemplateSet::new(templates);
        self.scratch.reserve_for(&self.templates, &self.config);
    }

    /// Verifies an observation against every enrolled finger, returning
    /// the best result, or `None` if nothing is enrolled.
    pub fn verify(&mut self, observed: &[Minutia]) -> Option<VerifyResult> {
        let templates = self.templates.templates();
        if templates.is_empty() {
            return None;
        }
        self.verifications += 1;
        let (finger_index, best) = self
            .scratch
            .best_match(&self.templates, observed, &self.config)
            .expect("templates non-empty");
        let matched_user = templates[finger_index].user_id();
        let decision = if observed.len() < self.config.min_minutiae {
            MatchDecision::Inconclusive
        } else if best.is_accepted(&self.config) {
            MatchDecision::Accept
        } else if best.score <= self.config.reject_threshold
            && observed.len() >= self.config.reject_min_minutiae
        {
            MatchDecision::Reject
        } else {
            MatchDecision::Inconclusive
        };
        // Matcher latency: Hough voting is O(template × observed) pairs;
        // an embedded matcher core does ~1 pair per 100 ns plus fixed
        // overhead.
        let pairs: u64 = templates
            .iter()
            .map(|t| (t.len() * observed.len()) as u64)
            .sum();
        let latency = SimDuration::from_nanos(50_000 + pairs * 100);
        Some(VerifyResult {
            best,
            finger_index,
            matched_user,
            decision,
            latency,
        })
    }
}

impl Default for FingerprintProcessor {
    fn default() -> Self {
        FingerprintProcessor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_fingerprint::minutiae::CaptureWindow;
    use btd_fingerprint::quality::CaptureConditions;
    use btd_sim::geom::MmPoint;

    fn observe(user_id: u64, finger: u8, seed: u64) -> Vec<Minutia> {
        let pattern = FingerPattern::generate(user_id, finger);
        let window = CaptureWindow::centered(MmPoint::new(0.0, 1.0), 8.0, 8.0);
        let mut rng = SimRng::seed_from(seed);
        pattern
            .observe(&window, &CaptureConditions::ideal(), &mut rng)
            .minutiae
    }

    #[test]
    fn owner_fingers_verify() {
        let mut p = FingerprintProcessor::new();
        let mut rng = SimRng::seed_from(1);
        p.enroll_user(500, 3, &mut rng);
        assert_eq!(p.owner(), Some(500));
        assert_eq!(p.template_count(), 3);
        let mut accepted = 0;
        for finger in 0..3u8 {
            for seed in 0..4 {
                let r = p.verify(&observe(500, finger, seed + 10)).unwrap();
                if r.accepted() {
                    accepted += 1;
                }
            }
        }
        assert!(accepted >= 9, "only {accepted}/12 owner captures accepted");
    }

    #[test]
    fn impostor_fingers_rejected() {
        let mut p = FingerprintProcessor::new();
        let mut rng = SimRng::seed_from(2);
        p.enroll_user(500, 3, &mut rng);
        let mut accepted = 0;
        for seed in 0..12 {
            let r = p.verify(&observe(999, 0, seed + 50)).unwrap();
            if r.accepted() {
                accepted += 1;
            }
        }
        assert!(accepted <= 1, "{accepted}/12 impostor captures accepted");
    }

    #[test]
    fn best_finger_is_reported() {
        let mut p = FingerprintProcessor::new();
        let mut rng = SimRng::seed_from(3);
        p.enroll_user(501, 3, &mut rng);
        let r = p.verify(&observe(501, 2, 77)).unwrap();
        if r.accepted() {
            assert_eq!(r.finger_index, 2);
        }
    }

    #[test]
    fn empty_processor_returns_none() {
        let mut p = FingerprintProcessor::new();
        assert!(p.verify(&observe(1, 0, 1)).is_none());
        assert_eq!(p.verification_count(), 0);
    }

    #[test]
    fn export_install_roundtrip() {
        let mut a = FingerprintProcessor::new();
        let mut rng = SimRng::seed_from(4);
        a.enroll_user(502, 2, &mut rng);
        let exported = a.export_templates();
        let mut b = FingerprintProcessor::new();
        b.install_templates(502, exported);
        assert_eq!(b.owner(), Some(502));
        assert_eq!(b.template_count(), 2);
        let r = b.verify(&observe(502, 0, 5)).unwrap();
        assert!(r.best.score > 0.0);
    }

    #[test]
    fn shared_device_verifies_both_users() {
        let mut p = FingerprintProcessor::new();
        let mut rng = SimRng::seed_from(8);
        p.enroll_user(600, 2, &mut rng);
        p.add_user(601, 2, &mut rng);
        assert_eq!(p.owner(), Some(600));
        assert_eq!(p.enrolled_users(), vec![600, 601]);
        assert_eq!(p.template_count(), 4);
        let mut matched = [0usize; 2];
        for (slot, user) in [(0usize, 600u64), (1, 601)] {
            for seed in 0..6 {
                let r = p.verify(&observe(user, 0, 300 + seed)).unwrap();
                if r.accepted() && r.matched_user == user {
                    matched[slot] += 1;
                }
            }
        }
        assert!(matched[0] >= 4, "user 600 matched {}/6", matched[0]);
        assert!(matched[1] >= 4, "user 601 matched {}/6", matched[1]);
    }

    #[test]
    fn stranger_rejected_on_shared_device() {
        let mut p = FingerprintProcessor::new();
        let mut rng = SimRng::seed_from(9);
        p.enroll_user(600, 2, &mut rng);
        p.add_user(601, 2, &mut rng);
        let mut accepted = 0;
        for seed in 0..10 {
            if p.verify(&observe(999, 0, 400 + seed)).unwrap().accepted() {
                accepted += 1;
            }
        }
        assert!(accepted <= 1, "stranger accepted {accepted}/10");
    }

    /// Folds every bit of a verification into `h`, FNV-1a over the bytes
    /// of each field.
    fn fold_verify(h: u64, r: &VerifyResult) -> u64 {
        let decision = match r.decision {
            MatchDecision::Accept => 0,
            MatchDecision::Reject => 1,
            MatchDecision::Inconclusive => 2,
        };
        [
            r.best.score.to_bits(),
            r.best.matched as u64,
            r.best.rotation.to_bits(),
            r.best.translation.0.to_bits(),
            r.best.translation.1.to_bits(),
            r.finger_index as u64,
            r.matched_user,
            decision,
            r.latency.as_nanos(),
        ]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Touches shaped like the fleet's: 4–8 mm windows anywhere on the
    /// pad, uneven pressure, moisture and coverage, two in three from one
    /// of the owner's three enrolled fingers and the rest from a stranger.
    fn fleet_touches(owner: u64, count: usize, rng: &mut SimRng) -> Vec<Vec<Minutia>> {
        (0..count)
            .map(|i| {
                let user = if i % 3 == 2 { 70_000 + i as u64 } else { owner };
                let pattern = FingerPattern::generate(user, (i % 3) as u8);
                let side = rng.range_f64(4.0, 8.0);
                let window = CaptureWindow::centered(
                    MmPoint::new(rng.range_f64(-3.0, 3.0), rng.range_f64(-4.0, 4.0)),
                    side,
                    side,
                );
                let conditions = CaptureConditions {
                    speed_mm_s: rng.range_f64(0.0, 30.0),
                    pressure: rng.range_f64(0.3, 1.0),
                    coverage: rng.range_f64(0.6, 1.0),
                    moisture: rng.range_f64(0.2, 0.7),
                };
                pattern.observe(&window, &conditions, rng).minutiae
            })
            .collect()
    }

    #[test]
    fn fleet_touch_verifications_are_bit_exact() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let (mut minutiae, mut verified) = (0, 0);
        let mut decisions = [0usize; 3];
        for owner in 0..4u64 {
            let mut rng = SimRng::seed_from(0xF1EE7 + owner);
            let mut p = FingerprintProcessor::new();
            p.enroll_user(800 + owner, 3, &mut rng);
            for observed in fleet_touches(800 + owner, 50, &mut rng) {
                let r = p.verify(&observed).unwrap();
                minutiae += observed.len();
                verified += 1;
                decisions[r.decision as usize] += 1;
                h = fold_verify(h, &r);
            }
        }
        assert_eq!(verified, 200);
        assert!(
            decisions.iter().all(|&n| n > 10),
            "accept, reject, inconclusive: {decisions:?}"
        );
        assert!(
            (6..=12).contains(&(minutiae / verified)),
            "{minutiae} minutiae in {verified} touches"
        );
        assert_eq!(
            h, 0xe0c1_48d2_18b2_c476,
            "fleet verification digest moved: {h:#018x}"
        );
    }

    #[test]
    fn latency_reported_and_counts_tracked() {
        let mut p = FingerprintProcessor::new();
        let mut rng = SimRng::seed_from(5);
        p.enroll_user(503, 1, &mut rng);
        let r = p.verify(&observe(503, 0, 6)).unwrap();
        assert!(r.latency > SimDuration::ZERO);
        assert!(r.latency < SimDuration::from_millis(10));
        assert_eq!(p.verification_count(), 1);
    }

    impl VerifyResult {
        /// Whether the decision is [`MatchDecision::Accept`].
        pub fn accepted(&self) -> bool {
            self.decision == MatchDecision::Accept
        }
    }

    impl FingerprintProcessor {
        /// How many verifications have been run.
        pub fn verification_count(&self) -> u64 {
            self.verifications
        }
    }
}
