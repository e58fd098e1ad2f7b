//! The fingerprint processor block.
//!
//! "The fingerprint processor can authenticate the user identity by
//! matching the input with the stored biometric templates." This block
//! holds the enrolled templates (one per enrolled finger) and runs the
//! partial-print matcher against all of them, taking the best score — a
//! touch can come from any enrolled finger.

use btd_fingerprint::enroll::enroll;
use btd_fingerprint::matcher::{MatchConfig, MatchResult, MatchScratch};
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
    templates: Vec<Template>,
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
            templates: Vec::new(),
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
        self.templates.len()
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
        self.templates.clear();
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
        for f in 0..finger_count {
            let finger = FingerPattern::generate(user_id, f);
            self.templates.push(enroll(&finger, ENROLL_CAPTURES, rng));
        }
        if self.owner_user_id.is_none() {
            self.owner_user_id = Some(user_id);
        }
    }

    /// The distinct users with enrolled templates.
    pub fn enrolled_users(&self) -> Vec<u64> {
        let mut users: Vec<u64> = self.templates.iter().map(Template::user_id).collect();
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
        self.templates = templates;
        self.owner_user_id = Some(user_id);
    }

    /// Exports the enrolled templates (identity transfer to a new device).
    pub fn export_templates(&self) -> Vec<Template> {
        self.templates.clone()
    }

    /// Verifies an observation against every enrolled finger, returning
    /// the best result, or `None` if nothing is enrolled.
    pub fn verify(&mut self, observed: &[Minutia]) -> Option<VerifyResult> {
        if self.templates.is_empty() {
            return None;
        }
        self.verifications += 1;
        let (finger_index, best) = self
            .scratch
            .best_match(&self.templates, observed, &self.config)
            .expect("templates non-empty");
        let matched_user = self.templates[finger_index].user_id();
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
        let pairs: u64 = self
            .templates
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
