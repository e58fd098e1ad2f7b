//! Touch panel geometry and timing.
//!
//! A projected-capacitive panel is described by its active area and the
//! pitch of the ITO electrode grid. The paper quotes a "typical response
//! time of a capacitive touch panel \[of\] 4 ms"; [`PanelSpec::frame_time`]
//! carries that number into the capture-latency experiments.

use btd_sim::geom::{MmPoint, MmRect, MmSize};
use btd_sim::time::SimDuration;

/// Static description of a capacitive touch panel.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PanelSpec {
    /// Active area size, millimetres.
    pub size: MmSize,
    /// ITO electrode pitch, millimetres (same for rows and columns).
    pub electrode_pitch_mm: f64,
    /// Full-panel scan (frame) time.
    pub frame_time: SimDuration,
}

impl PanelSpec {
    /// A 2012-era smartphone panel: 3.7-inch class, 52 × 94 mm active
    /// area, 5 mm electrode pitch, 4 ms frame (the paper's number).
    pub fn smartphone() -> Self {
        PanelSpec {
            size: MmSize::new(52.0, 94.0),
            electrode_pitch_mm: 5.0,
            frame_time: SimDuration::from_millis(4),
        }
    }

    /// Creates a custom panel.
    ///
    /// # Panics
    ///
    /// Panics if the pitch is not positive or exceeds either panel
    /// dimension.
    pub fn new(size: MmSize, electrode_pitch_mm: f64, frame_time: SimDuration) -> Self {
        assert!(
            electrode_pitch_mm > 0.0
                && electrode_pitch_mm <= size.w
                && electrode_pitch_mm <= size.h,
            "electrode pitch must be positive and fit the panel"
        );
        PanelSpec {
            size,
            electrode_pitch_mm,
            frame_time,
        }
    }

    /// Number of column electrodes (sensing X positions).
    pub fn columns(&self) -> usize {
        (self.size.w / self.electrode_pitch_mm).floor() as usize
    }

    /// Number of row electrodes (sensing Y positions).
    pub fn rows(&self) -> usize {
        (self.size.h / self.electrode_pitch_mm).floor() as usize
    }

    /// The panel's active area as a rectangle with origin (0, 0).
    pub fn bounds(&self) -> MmRect {
        MmRect::new(MmPoint::new(0.0, 0.0), self.size)
    }

    /// X position (mm) of column electrode `i`'s centreline.
    pub fn column_x(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.electrode_pitch_mm
    }

    /// Y position (mm) of row electrode `i`'s centreline.
    pub fn row_y(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.electrode_pitch_mm
    }

    /// Whether `p` lies on the active area.
    pub fn contains(&self, p: MmPoint) -> bool {
        self.bounds().contains(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smartphone_dimensions() {
        let p = PanelSpec::smartphone();
        assert_eq!(p.columns(), 10);
        assert_eq!(p.rows(), 18);
        assert_eq!(p.frame_time, SimDuration::from_millis(4));
    }

    #[test]
    fn electrode_positions_are_centred() {
        let p = PanelSpec::smartphone();
        assert_eq!(p.column_x(0), 2.5);
        assert_eq!(p.row_y(1), 7.5);
    }

    #[test]
    fn bounds_contains_interior() {
        let p = PanelSpec::smartphone();
        assert!(p.contains(MmPoint::new(26.0, 47.0)));
        assert!(!p.contains(MmPoint::new(-1.0, 47.0)));
        assert!(!p.contains(MmPoint::new(26.0, 95.0)));
    }

    #[test]
    #[should_panic(expected = "pitch")]
    fn degenerate_pitch_rejected() {
        let _ = PanelSpec::new(MmSize::new(50.0, 90.0), 0.0, SimDuration::from_millis(4));
    }

    #[test]
    fn tablet_is_larger() {
        assert!(PanelSpec::tablet().rows() > PanelSpec::smartphone().rows());
    }

    impl PanelSpec {
        /// A tablet-class panel (for the scaling ablation).
        pub fn tablet() -> Self {
            PanelSpec {
                size: MmSize::new(150.0, 200.0),
                electrode_pitch_mm: 5.5,
                frame_time: SimDuration::from_millis(6),
            }
        }
    }
}
