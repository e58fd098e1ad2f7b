//! Critical-button UI layout (paper §IV-A preventive measures).
//!
//! Against the low-quality-evasion impostor the paper proposes that "a
//! system can display critical buttons or menus over biometric enabled
//! touchscreen regions, that cannot be bypassed by an impostor" and that
//! "for interacting with certain buttons or menus, the system can require
//! a minimal touch time (longer than the required fingerprint capture
//! time)". [`UiLayout`] implements both rules.

use btd_sensor::array::PlacedSensor;
use btd_sim::geom::{MmPoint, MmRect, MmSize};
use btd_sim::rng::SimRng;
use btd_sim::time::{SimDuration, SimTime};
use btd_workload::session::TouchSample;

/// One critical button.
#[derive(Clone, Debug)]
pub struct ButtonSpec {
    /// The action this button triggers (e.g. `"/transfer"`).
    pub action: String,
    /// Where the button is drawn on the panel.
    pub region: MmRect,
    /// Minimum dwell time for the touch to register.
    pub min_dwell: SimDuration,
}

/// The outcome of checking a touch against a critical button.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ButtonTouchCheck {
    /// The touch registers.
    Accepted,
    /// The touch missed the button region.
    OffButton,
    /// The touch lifted before the minimal dwell elapsed.
    TooShort,
    /// No such button.
    UnknownAction,
}

/// A layout of critical buttons, each over a fingerprint sensor.
#[derive(Clone, Debug, Default)]
pub struct UiLayout {
    buttons: Vec<ButtonSpec>,
}

impl UiLayout {
    /// Lays `actions` out over the given sensors, round-robin, each button
    /// centred on its sensor and inset so every accepted touch point is on
    /// sensor glass.
    ///
    /// # Panics
    ///
    /// Panics if `sensors` is empty.
    pub fn over_sensors(
        actions: &[&str],
        sensors: &[PlacedSensor],
        min_dwell: SimDuration,
    ) -> UiLayout {
        assert!(!sensors.is_empty(), "need at least one sensor");
        let buttons = actions
            .iter()
            .enumerate()
            .map(|(i, action)| {
                let sensor = &sensors[i % sensors.len()];
                let bounds = sensor.bounds();
                ButtonSpec {
                    action: (*action).to_owned(),
                    region: MmRect::centered(
                        bounds.center(),
                        MmSize::new(bounds.size.w * 0.8, bounds.size.h * 0.8),
                    ),
                    min_dwell,
                }
            })
            .collect();
        UiLayout { buttons }
    }

    /// The button for `action`, if laid out.
    pub fn button_for(&self, action: &str) -> Option<&ButtonSpec> {
        self.buttons.iter().find(|b| b.action == action)
    }

    /// All buttons.
    pub fn buttons(&self) -> &[ButtonSpec] {
        &self.buttons
    }

    /// Synthesizes the deliberate touch a user makes on `action`'s button:
    /// slow, firm, centred, and held for the minimal dwell.
    ///
    /// # Panics
    ///
    /// Panics if `action` has no button.
    pub fn deliberate_touch(
        &self,
        action: &str,
        user_id: u64,
        finger_index: u8,
        at: SimTime,
        rng: &mut SimRng,
    ) -> TouchSample {
        let button = self
            .button_for(action)
            .unwrap_or_else(|| panic!("no button for {action}"));
        let center = button.region.center();
        let pos = button.region.clamp_point(MmPoint::new(
            center.x + rng.gaussian_with(0.0, button.region.size.w / 8.0),
            center.y + rng.gaussian_with(0.0, button.region.size.h / 8.0),
        ));
        TouchSample {
            at,
            pos,
            finger_center: pos.offset(rng.gaussian_with(0.0, 0.8), rng.gaussian_with(1.2, 0.8)),
            user_id,
            finger_index,
            speed_mm_s: rng.range_f64(0.0, 6.0),
            pressure: rng.gaussian_with(0.55, 0.08).clamp(0.25, 0.9),
            contact_radius_mm: rng.range_f64(3.8, 5.5),
            moisture: rng.range_f64(0.2, 0.5),
            dwell: button.min_dwell + SimDuration::from_millis(rng.below(150)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::FlockConfig;
    use crate::pipeline::TouchAuthOutcome;

    fn layout() -> (UiLayout, Vec<PlacedSensor>) {
        let sensors = FlockConfig::default_sensors();
        let layout = UiLayout::over_sensors(
            &["/transfer", "/settings", "/logout", "/delete"],
            &sensors,
            SimDuration::from_millis(200),
        );
        (layout, sensors)
    }

    #[test]
    fn every_button_sits_on_a_sensor() {
        let (layout, sensors) = layout();
        assert_eq!(layout.buttons().len(), 4);
        for b in layout.buttons() {
            assert!(
                sensors.iter().any(|s| s.bounds().contains_rect(b.region)),
                "button {} is off-sensor",
                b.action
            );
        }
    }

    #[test]
    fn touch_checks() {
        let (layout, _) = layout();
        let b = layout.button_for("/transfer").unwrap();
        let center = b.region.center();
        let dwell = SimDuration::from_millis(250);
        assert_eq!(
            layout.check_touch("/transfer", center, dwell),
            ButtonTouchCheck::Accepted
        );
        assert_eq!(
            layout.check_touch("/transfer", MmPoint::new(0.0, 0.0), dwell),
            ButtonTouchCheck::OffButton
        );
        assert_eq!(
            layout.check_touch("/transfer", center, SimDuration::from_millis(50)),
            ButtonTouchCheck::TooShort
        );
        assert_eq!(
            layout.check_touch("/nope", center, dwell),
            ButtonTouchCheck::UnknownAction
        );
    }

    #[test]
    fn deliberate_touches_always_capture() {
        // The whole point of the defence: a touch on a critical button
        // cannot land outside a sensor.
        let (layout, _) = layout();
        let mut rng = SimRng::seed_from(1);
        let mut flock =
            crate::module::FlockModule::new("ui-test", FlockConfig::fast_test(), &mut rng);
        flock.enroll_owner(0, 3, &mut rng);
        for _ in 0..50 {
            let touch = layout.deliberate_touch("/transfer", 0, 0, SimTime::ZERO, &mut rng);
            assert_eq!(
                layout.check_touch("/transfer", touch.pos, touch.dwell),
                ButtonTouchCheck::Accepted
            );
            let out = flock.process_touch(&touch, &mut rng);
            assert!(
                !matches!(out.outcome, TouchAuthOutcome::OutsideSensors),
                "critical-button touch missed the sensor"
            );
        }
        // Most deliberate owner touches verify.
        let stats = flock.auth().stats();
        assert!(
            stats.verified > 30,
            "only {} of 50 verified",
            stats.verified
        );
    }

    #[test]
    fn impostor_cannot_rush_a_critical_button() {
        // An evasive impostor flicking the button fast fails the dwell
        // rule before the biometric even runs.
        let (layout, _) = layout();
        let b = layout.button_for("/delete").unwrap();
        let rushed_dwell = SimDuration::from_millis(30);
        assert_eq!(
            layout.check_touch("/delete", b.region.center(), rushed_dwell),
            ButtonTouchCheck::TooShort
        );
        // The minimal dwell exceeds a windowed capture time, so an
        // accepted touch always leaves time for a capture.
        let spec = btd_sensor::spec::SensorSpec::flock_patch();
        let window = spec.full_window();
        let capture = btd_sensor::readout::ReadoutConfig::default().capture_time(&spec, &window);
        assert!(b.min_dwell > capture);
    }

    impl UiLayout {
        /// Checks a touch (position + dwell) against `action`'s button.
        pub fn check_touch(
            &self,
            action: &str,
            pos: MmPoint,
            dwell: SimDuration,
        ) -> ButtonTouchCheck {
            let Some(button) = self.button_for(action) else {
                return ButtonTouchCheck::UnknownAction;
            };
            if !button.region.contains(pos) {
                return ButtonTouchCheck::OffButton;
            }
            if dwell < button.min_dwell {
                return ButtonTouchCheck::TooShort;
            }
            ButtonTouchCheck::Accepted
        }
    }
}
