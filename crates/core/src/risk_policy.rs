//! The continuous-identity risk report and the server-side policy on it.
//!
//! Figure 10's submit messages carry "Risk: x out of the n touches
//! authenticated". [`RiskReport`] is that field; [`ServerRiskPolicy`] is
//! what a server does with it — the paper's point being that "a web server
//! can constantly verify the identity of a remote user" instead of
//! trusting a session cookie forever.

use btd_flock::risk::RiskTracker;

/// "x out of the n touches authenticated", plus the conclusive-mismatch
/// count (fraud evidence is worth reporting separately from staleness).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RiskReport {
    /// Touches considered (the window `n`).
    pub window: u32,
    /// Touches whose fingerprint verified (`x`).
    pub verified: u32,
    /// Touches that conclusively mismatched.
    pub mismatched: u32,
}

impl RiskReport {
    /// Builds the report from a device-side risk tracker.
    pub fn from_tracker(tracker: &RiskTracker) -> Self {
        RiskReport {
            window: tracker.config().window as u32,
            verified: tracker.verified_in_window() as u32,
            mismatched: tracker.mismatched_in_window() as u32,
        }
    }

    /// A report representing a fresh, fully verified session start.
    pub fn fresh_login() -> Self {
        RiskReport {
            window: 1,
            verified: 1,
            mismatched: 0,
        }
    }
}

/// What the server decides about a request given its risk report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RiskDecision {
    /// Risk is acceptable; serve the request.
    Allow,
    /// Stale identity: serve, but demand a verified touch soon.
    StepUp,
    /// Fraud evidence: terminate the session.
    Terminate,
}

/// Server-side risk policy.
#[derive(Clone, Copy, Debug)]
pub struct ServerRiskPolicy {
    /// Mismatches at or above which the session is terminated.
    pub max_mismatches: u32,
    /// Minimum verified touches per window before a step-up is demanded.
    pub min_verified: u32,
    /// Consecutive stepped-up requests tolerated before termination.
    pub max_consecutive_stepups: u32,
}

impl Default for ServerRiskPolicy {
    fn default() -> Self {
        ServerRiskPolicy {
            max_mismatches: 2,
            min_verified: 1,
            max_consecutive_stepups: 3,
        }
    }
}

impl ServerRiskPolicy {
    /// Evaluates a report (`consecutive_stepups` is the session's current
    /// streak of under-verified requests).
    pub fn evaluate(&self, report: &RiskReport, consecutive_stepups: u32) -> RiskDecision {
        if report.mismatched >= self.max_mismatches {
            return RiskDecision::Terminate;
        }
        if report.verified < self.min_verified {
            if consecutive_stepups + 1 >= self.max_consecutive_stepups {
                return RiskDecision::Terminate;
            }
            return RiskDecision::StepUp;
        }
        RiskDecision::Allow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_flock::risk::{RiskConfig, TouchVerdict};

    #[test]
    fn report_tracks_tracker_window() {
        let mut t = RiskTracker::new(RiskConfig {
            window: 5,
            min_verified: 1,
            max_mismatches: 2,
        });
        t.record(TouchVerdict::Verified);
        t.record(TouchVerdict::NoData);
        t.record(TouchVerdict::Mismatched);
        let r = RiskReport::from_tracker(&t);
        assert_eq!(r.window, 5);
        assert_eq!(r.verified, 1);
        assert_eq!(r.mismatched, 1);
        assert!((r.verified_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn healthy_report_allows() {
        let p = ServerRiskPolicy::default();
        let r = RiskReport {
            window: 12,
            verified: 3,
            mismatched: 0,
        };
        assert_eq!(p.evaluate(&r, 0), RiskDecision::Allow);
    }

    #[test]
    fn fraud_terminates_immediately() {
        let p = ServerRiskPolicy::default();
        let r = RiskReport {
            window: 12,
            verified: 3,
            mismatched: 2,
        };
        assert_eq!(p.evaluate(&r, 0), RiskDecision::Terminate);
    }

    #[test]
    fn staleness_steps_up_then_terminates() {
        let p = ServerRiskPolicy::default();
        let stale = RiskReport {
            window: 12,
            verified: 0,
            mismatched: 0,
        };
        assert_eq!(p.evaluate(&stale, 0), RiskDecision::StepUp);
        assert_eq!(p.evaluate(&stale, 1), RiskDecision::StepUp);
        assert_eq!(p.evaluate(&stale, 2), RiskDecision::Terminate);
    }

    #[test]
    fn fresh_login_report_is_healthy() {
        let p = ServerRiskPolicy::default();
        assert_eq!(
            p.evaluate(&RiskReport::fresh_login(), 0),
            RiskDecision::Allow
        );
    }

    impl RiskReport {
        /// Fraction of the window that verified.
        pub fn verified_fraction(&self) -> f64 {
            if self.window == 0 {
                0.0
            } else {
                self.verified as f64 / self.window as f64
            }
        }
    }
}
