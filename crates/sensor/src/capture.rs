//! The opportunistic capture path (touch → activation → windowed readout).
//!
//! Figure 6, top half: a touch is detected, its panel coordinates are
//! transformed to sensor line/column addresses, and — if the transformed
//! location falls on a sensor — that sensor is driven to capture fingertip
//! data around the touch point. This module packages that sequence and its
//! timing; the quality gate and matching (Figure 6's bottom half) live in
//! the FLock pipeline crate.

use btd_fingerprint::minutiae::{CaptureWindow, Observation};
use btd_fingerprint::pattern::FingerPattern;
use btd_fingerprint::quality::CaptureConditions;
use btd_sim::geom::{MmPoint, MmRect, MmSize};
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;

use crate::array::PlacedSensor;
use crate::readout::{CellWindow, ReadoutConfig};

/// Half-extent of the capture window around a touch point, millimetres.
pub const CAPTURE_HALF_EXTENT_MM: f64 = 4.0;

/// The result of attempting a capture for one touch.
#[derive(Debug)]
pub enum CaptureOutcome {
    /// The touch landed outside every sensor patch (Figure 6 decision 1:
    /// "requires data capture outside the areas of fingerprint sensors").
    OutsideSensors,
    /// A sensor was activated and produced data.
    Captured(CapturedData),
}

/// Data and timing from a successful sensor activation.
#[derive(Debug)]
pub struct CapturedData {
    /// Index of the sensor (in the pipeline's sensor list) that fired.
    pub sensor_index: usize,
    /// The cell window that was read out.
    pub window: CellWindow,
    /// Time the windowed readout took.
    pub capture_time: SimDuration,
    /// The biometric observation (minutiae + quality report).
    pub observation: Observation,
}

/// The sensor side of the opportunistic capture pipeline.
#[derive(Debug, Clone)]
pub struct CapturePipeline {
    sensors: Vec<PlacedSensor>,
    readout: ReadoutConfig,
}

impl CapturePipeline {
    /// Creates a pipeline over the given placed sensors.
    pub fn new(sensors: Vec<PlacedSensor>, readout: ReadoutConfig) -> Self {
        CapturePipeline { sensors, readout }
    }

    /// The placed sensors.
    pub fn sensors(&self) -> &[PlacedSensor] {
        &self.sensors
    }

    /// Which sensor covers `p`, if any.
    pub fn sensor_covering(&self, p: MmPoint) -> Option<usize> {
        self.sensors.iter().position(|s| s.covers(p))
    }

    /// Attempts an opportunistic capture for a touch at `touch_pos`.
    ///
    /// `finger_center` is where the fingertip pad centre sits on the panel
    /// (ground truth from the workload generator); `speed_mm_s` and
    /// `pressure` come from the touch event; `contact_radius_mm` bounds how
    /// much skin actually covers the window.
    #[allow(clippy::too_many_arguments)] // the capture is parameterized by
                                         // the full physical context of one touch; bundling these into a struct
                                         // would just move the field list
    pub fn capture(
        &self,
        touch_pos: MmPoint,
        finger_center: MmPoint,
        finger: &FingerPattern,
        speed_mm_s: f64,
        pressure: f64,
        contact_radius_mm: f64,
        moisture: f64,
        rng: &mut SimRng,
    ) -> CaptureOutcome {
        let Some(sensor_index) = self.sensor_covering(touch_pos) else {
            return CaptureOutcome::OutsideSensors;
        };
        let sensor = &self.sensors[sensor_index];
        let window = sensor
            .window_around(touch_pos, CAPTURE_HALF_EXTENT_MM)
            .expect("covering sensor must yield a window");
        let capture_time = self.readout.capture_time(&sensor.spec, &window);

        // How much of the readout window is actually under skin: the
        // intersection of the window with the contact disc (approximated by
        // its bounding square, which is close enough for a coverage ratio).
        let window_rect = sensor.window_bounds(&window);
        let contact_rect = MmRect::centered(
            touch_pos,
            MmSize::new(2.0 * contact_radius_mm, 2.0 * contact_radius_mm),
        );
        let covered = window_rect
            .intersect(contact_rect)
            .map_or(0.0, |r| r.area());
        let coverage = (covered / window_rect.area()).clamp(0.0, 1.0);

        let conditions = CaptureConditions {
            speed_mm_s,
            pressure: pressure.clamp(0.0, 1.0),
            coverage,
            moisture: moisture.clamp(0.0, 1.0),
        };

        // The fingertip-frame region the window sees.
        let fp_window = CaptureWindow {
            rect: MmRect::new(
                MmPoint::new(
                    window_rect.left() - finger_center.x,
                    window_rect.top() - finger_center.y,
                ),
                window_rect.size,
            ),
        };
        let observation = finger.observe(&fp_window, &conditions, rng);

        CaptureOutcome::Captured(CapturedData {
            sensor_index,
            window,
            capture_time,
            observation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SensorSpec;

    fn pipeline() -> CapturePipeline {
        CapturePipeline::new(
            vec![
                PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(10.0, 20.0)),
                PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(30.0, 70.0)),
            ],
            ReadoutConfig::default(),
        )
    }

    #[test]
    fn touch_off_sensors_is_outside() {
        let p = pipeline();
        let finger = FingerPattern::generate(1, 0);
        let mut rng = SimRng::seed_from(1);
        let out = p.capture(
            MmPoint::new(1.0, 1.0),
            MmPoint::new(1.0, 1.0),
            &finger,
            0.0,
            0.5,
            4.0,
            0.3,
            &mut rng,
        );
        assert!(matches!(out, CaptureOutcome::OutsideSensors));
    }

    #[test]
    fn touch_on_sensor_captures_with_timing() {
        let p = pipeline();
        let finger = FingerPattern::generate(1, 0);
        let mut rng = SimRng::seed_from(2);
        let touch = MmPoint::new(14.0, 24.0);
        let out = p.capture(touch, touch, &finger, 0.0, 0.55, 4.5, 0.3, &mut rng);
        let CaptureOutcome::Captured(data) = out else {
            panic!("expected capture");
        };
        assert_eq!(data.sensor_index, 0);
        assert!(data.capture_time > SimDuration::ZERO);
        assert!(data.capture_time < SimDuration::from_millis(50));
        assert!(data.observation.quality.score > 0.3);
        assert!(!data.observation.minutiae.is_empty());
    }

    #[test]
    fn second_sensor_is_selected_when_covering() {
        let p = pipeline();
        let finger = FingerPattern::generate(1, 0);
        let mut rng = SimRng::seed_from(3);
        let touch = MmPoint::new(34.0, 74.0);
        let out = p.capture(touch, touch, &finger, 0.0, 0.55, 4.5, 0.3, &mut rng);
        let CaptureOutcome::Captured(data) = out else {
            panic!("expected capture");
        };
        assert_eq!(data.sensor_index, 1);
    }

    #[test]
    fn fast_touch_degrades_quality() {
        let p = pipeline();
        let finger = FingerPattern::generate(1, 0);
        let touch = MmPoint::new(14.0, 24.0);
        let mut q_slow = 0.0;
        let mut q_fast = 0.0;
        for seed in 0..10 {
            let mut rng = SimRng::seed_from(seed);
            if let CaptureOutcome::Captured(d) =
                p.capture(touch, touch, &finger, 0.0, 0.55, 4.5, 0.3, &mut rng)
            {
                q_slow += d.observation.quality.score;
            }
            let mut rng = SimRng::seed_from(seed + 100);
            if let CaptureOutcome::Captured(d) =
                p.capture(touch, touch, &finger, 110.0, 0.55, 4.5, 0.3, &mut rng)
            {
                q_fast += d.observation.quality.score;
            }
        }
        assert!(q_fast < 0.3 * q_slow, "fast {q_fast} vs slow {q_slow}");
    }

    #[test]
    fn edge_touch_has_reduced_coverage() {
        let p = pipeline();
        let finger = FingerPattern::generate(1, 0);
        let mut rng = SimRng::seed_from(5);
        // Touch right at the sensor corner: window clamps, contact covers
        // only part of it.
        let touch = MmPoint::new(10.2, 20.2);
        let out = p.capture(touch, touch, &finger, 0.0, 0.55, 2.0, 0.3, &mut rng);
        let CaptureOutcome::Captured(data) = out else {
            panic!("expected capture");
        };
        assert!(
            data.observation.quality.score < 0.9,
            "corner capture should lose quality (got {})",
            data.observation.quality.score
        );
    }
}
