//! The identity-risk tracker (paper §IV-A).
//!
//! "Our solution uses identity risk to quantitatively measure the
//! likelihood of identity fraud. Identity risk can be defined as the
//! number of times that fingerprints can be captured and verified out of
//! \[a\] certain number of touches from a user." The paper also proposes the
//! window rule — "at least k out of n consecutive touch inputs need to
//! produce at least one valid fingerprint" — as the defence against the
//! low-quality-evasion attack.

use std::collections::VecDeque;

/// The per-touch verdict the pipeline feeds into the tracker.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TouchVerdict {
    /// A fingerprint was captured and matched the owner.
    Verified,
    /// A fingerprint was captured and did **not** match the owner.
    Mismatched,
    /// No usable data (outside sensors, or failed the quality gate).
    NoData,
}

/// The tracker's recommended response, in increasing severity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RiskAction {
    /// Identity is sufficiently fresh; keep going.
    Continue,
    /// Too little recent evidence; force an explicit re-authentication
    /// (e.g. display a verify button over a sensor region).
    Reauthenticate,
    /// Evidence of fraud; halt interaction / log out (the paper's
    /// "pre-determined actions … halting interactions with the user,
    /// logging out automatically").
    Lockout,
}

/// Tracker configuration.
#[derive(Clone, Copy, Debug)]
pub struct RiskConfig {
    /// Window length `n` (consecutive touches considered).
    pub window: usize,
    /// Minimum verified touches `k` required per window once the window is
    /// full.
    pub min_verified: usize,
    /// Mismatches in the window that trigger lockout.
    pub max_mismatches: usize,
}

impl Default for RiskConfig {
    fn default() -> Self {
        RiskConfig {
            window: 12,
            min_verified: 1,
            max_mismatches: 3,
        }
    }
}

impl RiskConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `min_verified > window`.
    pub fn validate(&self) {
        assert!(self.window > 0, "window must be positive");
        assert!(
            self.min_verified <= self.window,
            "min_verified cannot exceed window"
        );
    }
}

/// The sliding-window identity-risk tracker.
#[derive(Clone, Debug)]
pub struct RiskTracker {
    config: RiskConfig,
    history: VecDeque<TouchVerdict>,
    total_touches: u64,
    total_verified: u64,
    total_mismatched: u64,
}

impl RiskTracker {
    /// Creates a tracker.
    pub fn new(config: RiskConfig) -> Self {
        config.validate();
        RiskTracker {
            config,
            history: VecDeque::with_capacity(config.window),
            total_touches: 0,
            total_verified: 0,
            total_mismatched: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RiskConfig {
        &self.config
    }

    /// Records a verdict and returns the recommended action.
    pub fn record(&mut self, verdict: TouchVerdict) -> RiskAction {
        self.total_touches += 1;
        match verdict {
            TouchVerdict::Verified => self.total_verified += 1,
            TouchVerdict::Mismatched => self.total_mismatched += 1,
            TouchVerdict::NoData => {}
        }
        if self.history.len() == self.config.window {
            self.history.pop_front();
        }
        self.history.push_back(verdict);
        self.action()
    }

    /// Verified touches in the current window.
    pub fn verified_in_window(&self) -> usize {
        self.history
            .iter()
            .filter(|v| **v == TouchVerdict::Verified)
            .count()
    }

    /// Mismatched touches in the current window.
    pub fn mismatched_in_window(&self) -> usize {
        self.history
            .iter()
            .filter(|v| **v == TouchVerdict::Mismatched)
            .count()
    }

    /// The paper's risk metric over the window: `1 − verified / n`,
    /// weighted up sharply by observed mismatches. In `[0, 1]`.
    pub fn risk_score(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let n = self.history.len() as f64;
        let verified = self.verified_in_window() as f64;
        let mismatched = self.mismatched_in_window() as f64;
        let staleness = 1.0 - (verified / n);
        let fraud = (mismatched / self.config.max_mismatches.max(1) as f64).min(1.0);
        (0.5 * staleness + 0.5 * fraud + 0.5 * fraud * staleness).min(1.0)
    }

    /// The current recommended action.
    pub fn action(&self) -> RiskAction {
        if self.mismatched_in_window() >= self.config.max_mismatches {
            return RiskAction::Lockout;
        }
        // Only enforce the k-of-n floor once a full window of evidence
        // exists (a fresh session starts with no history).
        if self.history.len() == self.config.window
            && self.verified_in_window() < self.config.min_verified
        {
            return RiskAction::Reauthenticate;
        }
        RiskAction::Continue
    }

    /// Clears the window (after a successful explicit re-authentication).
    pub fn reset_window(&mut self) {
        self.history.clear();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_verdict() -> impl Strategy<Value = TouchVerdict> {
        prop_oneof![
            Just(TouchVerdict::Verified),
            Just(TouchVerdict::Mismatched),
            Just(TouchVerdict::NoData),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The risk score is always a fraction, the window never exceeds
        /// its configured size, and the action is consistent with the
        /// window counts.
        #[test]
        fn tracker_invariants(
            window in 1usize..20,
            min_verified in 0usize..6,
            max_mismatches in 1usize..6,
            verdicts in proptest::collection::vec(arb_verdict(), 0..80),
        ) {
            let min_verified = min_verified.min(window);
            let config = RiskConfig { window, min_verified, max_mismatches };
            let mut tracker = RiskTracker::new(config);
            for v in verdicts {
                let action = tracker.record(v);
                let score = tracker.risk_score();
                prop_assert!((0.0..=1.0).contains(&score));
                prop_assert!(tracker.verified_in_window() + tracker.mismatched_in_window() <= window);
                match action {
                    RiskAction::Lockout => {
                        prop_assert!(tracker.mismatched_in_window() >= max_mismatches)
                    }
                    RiskAction::Reauthenticate => {
                        prop_assert!(tracker.verified_in_window() < min_verified)
                    }
                    RiskAction::Continue => {
                        prop_assert!(tracker.mismatched_in_window() < max_mismatches)
                    }
                }
            }
            let (touches, verified, mismatched) = tracker.totals();
            prop_assert!(verified + mismatched <= touches);
        }

        /// All-verified streams never escalate.
        #[test]
        fn verified_streams_never_escalate(window in 1usize..20, n in 1usize..100) {
            let mut tracker = RiskTracker::new(RiskConfig {
                window,
                min_verified: 1,
                max_mismatches: 1,
            });
            for _ in 0..n {
                prop_assert_eq!(tracker.record(TouchVerdict::Verified), RiskAction::Continue);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(window: usize, min_verified: usize, max_mismatches: usize) -> RiskTracker {
        RiskTracker::new(RiskConfig {
            window,
            min_verified,
            max_mismatches,
        })
    }

    #[test]
    fn fresh_tracker_continues() {
        let t = tracker(8, 1, 2);
        assert_eq!(t.action(), RiskAction::Continue);
        assert_eq!(t.risk_score(), 0.0);
    }

    #[test]
    fn verified_touches_keep_risk_low() {
        let mut t = tracker(8, 2, 2);
        for _ in 0..20 {
            assert_eq!(t.record(TouchVerdict::Verified), RiskAction::Continue);
        }
        assert!(t.risk_score() < 0.05);
        assert_eq!(t.totals(), (20, 20, 0));
    }

    #[test]
    fn mismatches_trigger_lockout() {
        let mut t = tracker(8, 1, 2);
        assert_eq!(t.record(TouchVerdict::Mismatched), RiskAction::Continue);
        assert_eq!(t.record(TouchVerdict::Mismatched), RiskAction::Lockout);
        assert!(t.risk_score() > 0.5);
    }

    #[test]
    fn evasion_by_no_data_triggers_reauthentication() {
        // The paper's defence: an impostor giving only low-quality touches
        // produces a full window with zero verifications.
        let mut t = tracker(6, 1, 2);
        let mut action = RiskAction::Continue;
        for _ in 0..6 {
            action = t.record(TouchVerdict::NoData);
        }
        assert_eq!(action, RiskAction::Reauthenticate);
    }

    #[test]
    fn partial_window_of_no_data_is_tolerated() {
        let mut t = tracker(6, 1, 2);
        for _ in 0..5 {
            assert_eq!(t.record(TouchVerdict::NoData), RiskAction::Continue);
        }
    }

    #[test]
    fn one_verification_per_window_suffices_for_k1() {
        let mut t = tracker(6, 1, 2);
        for i in 0..30 {
            let verdict = if i % 6 == 0 {
                TouchVerdict::Verified
            } else {
                TouchVerdict::NoData
            };
            assert_eq!(t.record(verdict), RiskAction::Continue, "touch {i}");
        }
    }

    #[test]
    fn old_mismatches_slide_out_of_the_window() {
        let mut t = tracker(4, 0, 2);
        t.record(TouchVerdict::Mismatched);
        for _ in 0..4 {
            t.record(TouchVerdict::Verified);
        }
        assert_eq!(t.mismatched_in_window(), 0);
        assert_eq!(t.action(), RiskAction::Continue);
    }

    #[test]
    fn reset_window_clears_state() {
        let mut t = tracker(4, 1, 2);
        t.record(TouchVerdict::Mismatched);
        t.reset_window();
        assert_eq!(t.mismatched_in_window(), 0);
        assert_eq!(t.action(), RiskAction::Continue);
        // Lifetime totals survive the reset.
        assert_eq!(t.totals().0, 1);
    }

    #[test]
    fn risk_score_orders_scenarios() {
        let mut healthy = tracker(8, 1, 2);
        let mut stale = tracker(8, 1, 2);
        let mut fraud = tracker(8, 1, 2);
        for _ in 0..8 {
            healthy.record(TouchVerdict::Verified);
            stale.record(TouchVerdict::NoData);
            fraud.record(TouchVerdict::Mismatched);
        }
        assert!(healthy.risk_score() < stale.risk_score());
        assert!(stale.risk_score() < fraud.risk_score());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = tracker(0, 0, 1);
    }

    impl RiskTracker {
        /// Lifetime counters: `(touches, verified, mismatched)`.
        pub fn totals(&self) -> (u64, u64, u64) {
            (
                self.total_touches,
                self.total_verified,
                self.total_mismatched,
            )
        }
    }
}
