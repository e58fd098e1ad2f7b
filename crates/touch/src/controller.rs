//! The touchscreen controller.
//!
//! Ties the scan and detection stages together at the panel frame rate and
//! maintains touch identity across frames (so speed can be estimated and
//! Down/Move/Up phases emitted). In the FLock architecture (Fig. 5) this is
//! the "Touchscreen Controller" block; its output feeds the fingerprint
//! controller.

use btd_sim::geom::MmPoint;
use btd_sim::rng::SimRng;
use btd_sim::time::SimTime;

use crate::contact::Contact;
use crate::detect::detect_touches;
use crate::event::{TouchEvent, TouchPhase};
use crate::panel::PanelSpec;
use crate::scan::scan;

/// Maximum distance a touch can move between frames and keep its identity.
const TRACK_RADIUS_MM: f64 = 15.0;

#[derive(Clone, Copy, Debug)]
struct ActiveTouch {
    id: u64,
    pos: MmPoint,
    at: SimTime,
}

/// The touchscreen controller.
///
/// # Example
///
/// ```
/// use btd_touch::contact::Contact;
/// use btd_touch::controller::TouchController;
/// use btd_touch::event::TouchPhase;
/// use btd_touch::panel::PanelSpec;
/// use btd_sim::geom::MmPoint;
/// use btd_sim::rng::SimRng;
/// use btd_sim::time::SimTime;
///
/// let mut tc = TouchController::new(PanelSpec::smartphone());
/// let mut rng = SimRng::seed_from(1);
/// let c = Contact::new(MmPoint::new(20.0, 40.0), 4.0, 0.5);
/// let down = tc.scan_frame(SimTime::ZERO, &[c], &mut rng);
/// assert_eq!(down[0].phase, TouchPhase::Down);
/// ```
#[derive(Debug)]
pub struct TouchController {
    panel: PanelSpec,
    active: Vec<ActiveTouch>,
    next_id: u64,
}

impl TouchController {
    /// Creates a controller for `panel`.
    pub fn new(panel: PanelSpec) -> Self {
        TouchController {
            panel,
            active: Vec::new(),
            next_id: 1,
        }
    }

    /// Scans one frame at time `now` with the given physical contacts and
    /// returns the touch events the frame produces. Detection results are
    /// available one frame time after `now` (the paper's 4 ms); event
    /// timestamps reflect that.
    pub fn scan_frame(
        &mut self,
        now: SimTime,
        contacts: &[Contact],
        rng: &mut SimRng,
    ) -> Vec<TouchEvent> {
        let report_at = now + self.panel.frame_time;
        let frame = scan(&self.panel, contacts, rng);
        let detections = detect_touches(&self.panel, &frame);

        let mut events = Vec::new();
        let mut matched_active = vec![false; self.active.len()];
        let mut next_active: Vec<ActiveTouch> = Vec::new();

        // Amplitude → pressure: invert the nominal coupling of a 4 mm/0.5
        // pressure touch.
        let nominal = Contact::new(MmPoint::new(1.0, 1.0), 4.0, 0.5).coupling();

        for det in &detections {
            // Track: nearest unmatched active touch within the radius.
            let mut best: Option<(usize, f64)> = None;
            for (i, a) in self.active.iter().enumerate() {
                if matched_active[i] {
                    continue;
                }
                let d = a.pos.distance_to(det.pos);
                if d < TRACK_RADIUS_MM && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            let pressure = (0.5 * det.amplitude / nominal).clamp(0.0, 1.0);
            match best {
                Some((i, dist)) => {
                    matched_active[i] = true;
                    let dt = report_at
                        .saturating_duration_since(self.active[i].at)
                        .as_secs_f64();
                    let speed = if dt > 0.0 { dist / dt } else { 0.0 };
                    let id = self.active[i].id;
                    events.push(TouchEvent {
                        id,
                        pos: det.pos,
                        at: report_at,
                        phase: TouchPhase::Move,
                        pressure,
                        speed_mm_s: speed,
                    });
                    next_active.push(ActiveTouch {
                        id,
                        pos: det.pos,
                        at: report_at,
                    });
                }
                None => {
                    let id = self.next_id;
                    self.next_id += 1;
                    events.push(TouchEvent {
                        id,
                        pos: det.pos,
                        at: report_at,
                        phase: TouchPhase::Down,
                        pressure,
                        speed_mm_s: 0.0,
                    });
                    next_active.push(ActiveTouch {
                        id,
                        pos: det.pos,
                        at: report_at,
                    });
                }
            }
        }

        // Unmatched previously-active touches have lifted.
        for (i, a) in self.active.iter().enumerate() {
            if !matched_active[i] {
                events.push(TouchEvent {
                    id: a.id,
                    pos: a.pos,
                    at: report_at,
                    phase: TouchPhase::Up,
                    pressure: 0.0,
                    speed_mm_s: 0.0,
                });
            }
        }

        self.active = next_active;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_sim::time::SimDuration;

    fn c(x: f64, y: f64) -> Contact {
        Contact::new(MmPoint::new(x, y), 4.0, 0.6)
    }

    #[test]
    fn down_move_up_lifecycle() {
        let mut tc = TouchController::new(PanelSpec::smartphone());
        let mut rng = SimRng::seed_from(1);
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(4);
        let t2 = t1 + SimDuration::from_millis(4);

        let down = tc.scan_frame(t0, &[c(20.0, 40.0)], &mut rng);
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].phase, TouchPhase::Down);
        assert_eq!(tc.active_count(), 1);

        let moved = tc.scan_frame(t1, &[c(22.0, 40.0)], &mut rng);
        assert_eq!(moved[0].phase, TouchPhase::Move);
        assert_eq!(moved[0].id, down[0].id);
        assert!(moved[0].speed_mm_s > 0.0);

        let up = tc.scan_frame(t2, &[], &mut rng);
        assert_eq!(up[0].phase, TouchPhase::Up);
        assert_eq!(up[0].id, down[0].id);
        assert_eq!(tc.active_count(), 0);
    }

    #[test]
    fn events_are_stamped_one_frame_later() {
        let mut tc = TouchController::new(PanelSpec::smartphone());
        let mut rng = SimRng::seed_from(2);
        let events = tc.scan_frame(SimTime::ZERO, &[c(20.0, 40.0)], &mut rng);
        assert_eq!(events[0].at, SimTime::ZERO + SimDuration::from_millis(4));
    }

    #[test]
    fn speed_estimate_tracks_motion() {
        let mut tc = TouchController::new(PanelSpec::smartphone());
        let mut rng = SimRng::seed_from(3);
        let mut now = SimTime::ZERO;
        tc.scan_frame(now, &[c(10.0, 40.0)], &mut rng);
        // Move 2mm per 4ms frame = 500 mm/s nominal.
        let mut speeds = Vec::new();
        for i in 1..=5 {
            now += SimDuration::from_millis(4);
            let ev = tc.scan_frame(now, &[c(10.0 + 2.0 * i as f64, 40.0)], &mut rng);
            speeds.push(ev[0].speed_mm_s);
        }
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        assert!((200.0..900.0).contains(&mean), "mean speed {mean}");
    }

    #[test]
    fn distinct_touches_get_distinct_ids() {
        let mut tc = TouchController::new(PanelSpec::smartphone());
        let mut rng = SimRng::seed_from(4);
        let events = tc.scan_frame(
            SimTime::ZERO,
            &[
                Contact::new(MmPoint::new(10.0, 20.0), 4.0, 0.9),
                Contact::new(MmPoint::new(40.0, 75.0), 4.0, 0.4),
            ],
            &mut rng,
        );
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].id, events[1].id);
    }

    #[test]
    fn new_touch_after_lift_gets_new_id() {
        let mut tc = TouchController::new(PanelSpec::smartphone());
        let mut rng = SimRng::seed_from(5);
        let mut now = SimTime::ZERO;
        let first = tc.scan_frame(now, &[c(20.0, 40.0)], &mut rng);
        now += SimDuration::from_millis(4);
        tc.scan_frame(now, &[], &mut rng);
        now += SimDuration::from_millis(4);
        let second = tc.scan_frame(now, &[c(20.0, 40.0)], &mut rng);
        assert_ne!(first[0].id, second[0].id);
        assert_eq!(second[0].phase, TouchPhase::Down);
    }

    impl TouchController {
        /// The panel this controller drives.
        pub fn panel(&self) -> &PanelSpec {
            &self.panel
        }

        /// Number of touches currently tracked.
        pub fn active_count(&self) -> usize {
            self.active.len()
        }
    }
}
