//! The continuous opportunistic authentication pipeline (paper Figure 6).
//!
//! For every touch: detect the touch point (touchscreen frame), transform
//! to sensor addresses, capture if a sensor covers the point, gate on
//! quality, match against the stored templates, and update the identity
//! risk — exactly the flowchart of Figure 6, with every decision box
//! represented in [`TouchAuthOutcome`].

use std::collections::HashMap;

use btd_fingerprint::pattern::FingerPattern;
use btd_fingerprint::quality::{QualityGate, QualityReport};
use btd_sensor::capture::{CaptureOutcome, CapturePipeline};
use btd_sensor::power::SensorPowerModel;
use btd_sim::power::EnergyMeter;
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;
use btd_workload::session::TouchSample;

use crate::fp_processor::FingerprintProcessor;
use crate::risk::{RiskAction, RiskConfig, RiskTracker, TouchVerdict};

/// Where in the Figure 6 flow a touch ended up.
#[derive(Clone, Debug)]
pub enum TouchAuthOutcome {
    /// Decision 1: the touch point is not over any fingerprint sensor.
    OutsideSensors,
    /// Decision 2: data was captured but failed the quality gate and was
    /// discarded.
    LowQuality(QualityReport),
    /// Matched the stored templates.
    Verified {
        /// Match score in `[0, 1]`.
        score: f64,
    },
    /// Captured usable data whose score falls between the accept and
    /// reject bands — no evidence either way.
    Inconclusive {
        /// Match score in `[0, 1]`.
        score: f64,
    },
    /// Captured good data that is conclusively someone else's finger —
    /// evidence of fraud.
    Mismatched {
        /// Match score in `[0, 1]`.
        score: f64,
    },
}

impl TouchAuthOutcome {
    /// The verdict fed to the risk tracker.
    pub fn verdict(&self) -> TouchVerdict {
        match self {
            TouchAuthOutcome::OutsideSensors
            | TouchAuthOutcome::LowQuality(_)
            | TouchAuthOutcome::Inconclusive { .. } => TouchVerdict::NoData,
            TouchAuthOutcome::Verified { .. } => TouchVerdict::Verified,
            TouchAuthOutcome::Mismatched { .. } => TouchVerdict::Mismatched,
        }
    }
}

/// The result of pushing one touch through the pipeline.
#[derive(Clone, Debug)]
pub struct ProcessedTouch {
    /// Which Figure 6 path the touch took.
    pub outcome: TouchAuthOutcome,
    /// The risk tracker's recommendation after this touch.
    pub action: RiskAction,
    /// End-to-end added latency (touchscreen frame + sensor readout +
    /// matching); zero-cost stages are omitted naturally.
    pub latency: SimDuration,
}

/// The assembled Figure 6 pipeline.
#[derive(Debug)]
pub struct AuthPipeline {
    capture: CapturePipeline,
    gate: QualityGate,
    processor: FingerprintProcessor,
    risk: RiskTracker,
    touch_frame: SimDuration,
    energy: EnergyMeter,
    power_model: SensorPowerModel,
    finger_cache: HashMap<(u64, u8), FingerPattern>,
    stats: PipelineStats,
}

/// Aggregate counters over a session (the Figure 6 experiment's rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Touches processed.
    pub touches: u64,
    /// Touches that landed outside every sensor.
    pub outside: u64,
    /// Captures discarded by the quality gate.
    pub low_quality: u64,
    /// Verified matches.
    pub verified: u64,
    /// Usable captures with a score in the inconclusive band.
    pub inconclusive: u64,
    /// Conclusive mismatches.
    pub mismatched: u64,
}

impl AuthPipeline {
    /// Builds a pipeline.
    pub fn new(
        capture: CapturePipeline,
        gate: QualityGate,
        processor: FingerprintProcessor,
        risk_config: RiskConfig,
        touch_frame: SimDuration,
    ) -> Self {
        let power_model = capture
            .sensors()
            .first()
            .map(|s| SensorPowerModel::for_spec(&s.spec))
            .unwrap_or(SensorPowerModel {
                active: btd_sim::power::Watts(0.0),
                idle: btd_sim::power::Watts(0.0),
                gated: btd_sim::power::Watts(0.0),
            });
        AuthPipeline {
            capture,
            gate,
            processor,
            risk: RiskTracker::new(risk_config),
            touch_frame,
            energy: EnergyMeter::new(),
            power_model,
            finger_cache: HashMap::new(),
            stats: PipelineStats::default(),
        }
    }

    /// The fingerprint processor (e.g. to enroll the owner).
    pub fn processor_mut(&mut self) -> &mut FingerprintProcessor {
        &mut self.processor
    }

    /// The fingerprint processor, read-only.
    pub fn processor(&self) -> &FingerprintProcessor {
        &self.processor
    }

    /// The risk tracker.
    pub fn risk(&self) -> &RiskTracker {
        &self.risk
    }

    /// The risk tracker, mutable (explicit re-auth resets the window).
    pub fn risk_mut(&mut self) -> &mut RiskTracker {
        &mut self.risk
    }

    /// The sensor capture sub-pipeline.
    pub fn capture_pipeline(&self) -> &CapturePipeline {
        &self.capture
    }

    /// Session counters so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Accumulated sensor energy.
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Processes one physical touch through the full Figure 6 flow.
    pub fn process_touch(&mut self, sample: &TouchSample, rng: &mut SimRng) -> ProcessedTouch {
        self.stats.touches += 1;
        let mut latency = self.touch_frame; // touch-point detection

        let key = (sample.user_id, sample.finger_index);
        let finger = self
            .finger_cache
            .entry(key)
            .or_insert_with(|| FingerPattern::generate(key.0, key.1));

        let outcome = match self.capture.capture(
            sample.pos,
            sample.finger_center,
            finger,
            sample.speed_mm_s,
            sample.pressure,
            sample.contact_radius_mm,
            sample.moisture,
            rng,
        ) {
            CaptureOutcome::OutsideSensors => {
                self.stats.outside += 1;
                TouchAuthOutcome::OutsideSensors
            }
            CaptureOutcome::Captured(data) => {
                latency += data.capture_time;
                self.energy.record(
                    "sensor.capture",
                    self.power_model.capture_energy(data.capture_time),
                );
                if !self.gate.accepts(&data.observation.quality) {
                    self.stats.low_quality += 1;
                    TouchAuthOutcome::LowQuality(data.observation.quality.clone())
                } else {
                    match self.processor.verify(&data.observation.minutiae) {
                        // Nothing enrolled: no usable match, reported and
                        // counted as low quality.
                        None => {
                            self.stats.low_quality += 1;
                            TouchAuthOutcome::LowQuality(data.observation.quality.clone())
                        }
                        Some(result) => {
                            latency += result.latency;
                            match result.decision {
                                crate::fp_processor::MatchDecision::Accept => {
                                    self.stats.verified += 1;
                                    TouchAuthOutcome::Verified {
                                        score: result.best.score,
                                    }
                                }
                                crate::fp_processor::MatchDecision::Inconclusive => {
                                    self.stats.inconclusive += 1;
                                    TouchAuthOutcome::Inconclusive {
                                        score: result.best.score,
                                    }
                                }
                                crate::fp_processor::MatchDecision::Reject => {
                                    self.stats.mismatched += 1;
                                    TouchAuthOutcome::Mismatched {
                                        score: result.best.score,
                                    }
                                }
                            }
                        }
                    }
                }
            }
        };

        let action = self.risk.record(outcome.verdict());
        ProcessedTouch {
            outcome,
            action,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_fingerprint::quality::QualityGate;
    use btd_sensor::array::PlacedSensor;
    use btd_sensor::readout::ReadoutConfig;
    use btd_sensor::spec::SensorSpec;
    use btd_sim::geom::MmPoint;
    use btd_workload::profile::UserProfile;
    use btd_workload::session::SessionGenerator;

    /// Sensors over the texter profile's hottest regions.
    fn sensors() -> Vec<PlacedSensor> {
        vec![
            PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(22.0, 70.0)),
            PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(22.0, 84.0)),
            PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(41.0, 58.0)),
        ]
    }

    fn pipeline(owner: u64, rng: &mut SimRng) -> AuthPipeline {
        let capture = CapturePipeline::new(sensors(), ReadoutConfig::default());
        let mut processor = FingerprintProcessor::new();
        processor.enroll_user(owner, 3, rng);
        AuthPipeline::new(
            capture,
            QualityGate::default(),
            processor,
            RiskConfig::default(),
            SimDuration::from_millis(4),
        )
    }

    #[test]
    fn owner_session_stays_unlocked() {
        let mut rng = SimRng::seed_from(1);
        let mut p = pipeline(0, &mut rng);
        let mut gen = SessionGenerator::new(UserProfile::builtin(0), &mut rng);
        let mut lockouts = 0;
        let mut reauth_prompts = 0;
        for _ in 0..300 {
            let s = gen.next_touch(&mut rng);
            let out = p.process_touch(&s, &mut rng);
            match out.action {
                RiskAction::Lockout => lockouts += 1,
                RiskAction::Reauthenticate => {
                    // The system shows a verify button over a sensor; the
                    // owner passes it, which clears the window.
                    reauth_prompts += 1;
                    p.risk_mut().reset_window();
                }
                RiskAction::Continue => {}
            }
        }
        let stats = p.stats();
        assert_eq!(stats.touches, 300);
        assert!(stats.verified > 30, "verified {}", stats.verified);
        assert_eq!(lockouts, 0, "owner locked out {lockouts} times");
        assert!(
            reauth_prompts <= 20,
            "owner prompted to re-authenticate {reauth_prompts} times in 300 touches"
        );
        // FRR-driven conclusive mismatches must stay rare.
        assert!(
            stats.mismatched < stats.verified / 8,
            "mismatches {} vs verified {}",
            stats.mismatched,
            stats.verified
        );
    }

    #[test]
    fn impostor_is_detected_quickly() {
        // Detection = the first risk escalation: either an explicit
        // re-authentication demand (which an impostor cannot satisfy —
        // their finger conclusively fails the guided verify) or a direct
        // lockout from conclusive mismatches.
        let mut rng = SimRng::seed_from(2);
        let mut p = pipeline(0, &mut rng); // enrolled owner: user 0
        let impostor = UserProfile::builtin(1); // different fingers
        let mut gen = SessionGenerator::new(impostor, &mut rng);
        let mut detected_at = None;
        let mut verified = 0;
        for i in 0..200 {
            let mut s = gen.next_touch(&mut rng);
            s.user_id = 1;
            let out = p.process_touch(&s, &mut rng);
            if matches!(out.outcome, TouchAuthOutcome::Verified { .. }) {
                verified += 1;
            }
            if out.action != RiskAction::Continue && detected_at.is_none() {
                detected_at = Some(i + 1);
            }
        }
        let n = detected_at.expect("impostor never flagged");
        assert!(n <= 30, "detection took {n} touches");
        assert_eq!(
            verified, 0,
            "impostor was falsely verified {verified} times"
        );
    }

    #[test]
    fn outside_touches_cost_no_sensor_energy() {
        let mut rng = SimRng::seed_from(3);
        let mut p = pipeline(0, &mut rng);
        let mut s = SessionGenerator::new(UserProfile::builtin(0), &mut rng).next_touch(&mut rng);
        s.pos = MmPoint::new(1.0, 1.0); // far from all sensors
        s.finger_center = s.pos;
        let before = p.energy().total();
        let out = p.process_touch(&s, &mut rng);
        assert!(matches!(out.outcome, TouchAuthOutcome::OutsideSensors));
        assert_eq!(p.energy().total().0, before.0);
        assert_eq!(out.latency, SimDuration::from_millis(4));
    }

    #[test]
    fn fast_swipes_hit_the_quality_gate() {
        let mut rng = SimRng::seed_from(4);
        let mut p = pipeline(0, &mut rng);
        let mut gen = SessionGenerator::new(UserProfile::builtin(0), &mut rng);
        let mut hit_gate = 0;
        for _ in 0..100 {
            let mut s = gen.next_touch(&mut rng);
            s.pos = MmPoint::new(26.0, 74.0); // on sensor 1
            s.finger_center = MmPoint::new(26.0, 75.5);
            s.speed_mm_s = 150.0; // flick
            let out = p.process_touch(&s, &mut rng);
            if matches!(out.outcome, TouchAuthOutcome::LowQuality(_)) {
                hit_gate += 1;
            }
        }
        assert!(hit_gate > 80, "only {hit_gate}/100 flicks were gated");
    }

    #[test]
    fn captured_touches_add_latency() {
        let mut rng = SimRng::seed_from(5);
        let mut p = pipeline(0, &mut rng);
        let mut gen = SessionGenerator::new(UserProfile::builtin(0), &mut rng);
        let mut s = gen.next_touch(&mut rng);
        s.pos = MmPoint::new(26.0, 74.0);
        s.finger_center = MmPoint::new(26.0, 75.5);
        s.speed_mm_s = 0.0;
        let out = p.process_touch(&s, &mut rng);
        assert!(
            out.latency > SimDuration::from_millis(4),
            "capture latency missing: {}",
            out.latency
        );
        assert!(out.latency < SimDuration::from_millis(60));
    }

    /// Runs 200 touches of user 0 and checks that the outcome buckets
    /// partition the touch count; returns the stats.
    fn partitioned_stats(mut p: AuthPipeline, rng: &mut SimRng) -> PipelineStats {
        let mut gen = SessionGenerator::new(UserProfile::builtin(0), rng);
        for _ in 0..200 {
            let s = gen.next_touch(rng);
            p.process_touch(&s, rng);
        }
        let st = p.stats();
        assert_eq!(st.touches, 200);
        assert_eq!(
            st.outside + st.low_quality + st.verified + st.inconclusive + st.mismatched,
            st.touches
        );
        st
    }

    #[test]
    fn stats_partition_touch_count() {
        let mut rng = SimRng::seed_from(6);
        let p = pipeline(0, &mut rng);
        partitioned_stats(p, &mut rng);
    }

    #[test]
    fn stats_partition_touch_count_with_nothing_enrolled() {
        let mut rng = SimRng::seed_from(6);
        let p = AuthPipeline::new(
            CapturePipeline::new(sensors(), ReadoutConfig::default()),
            QualityGate::default(),
            FingerprintProcessor::new(),
            RiskConfig::default(),
            SimDuration::from_millis(4),
        );
        let st = partitioned_stats(p, &mut rng);
        // Captures that pass the gate have no template to match against.
        assert!(st.low_quality > 0);
        assert_eq!(st.verified + st.inconclusive + st.mismatched, 0);
    }
}
