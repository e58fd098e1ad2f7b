//! The parallel row/column capacitance scan.
//!
//! Figure 1 of the paper: "The separation of the top and bottom ITO layers
//! supports parallel sensing on both X and Y directions." A scan therefore
//! produces two 1-D profiles — per-column and per-row capacitance deltas —
//! in a single frame time, rather than a 2-D mutual-capacitance image.

use btd_sim::rng::SimRng;

use crate::contact::Contact;
use crate::panel::PanelSpec;

/// The two electrode profiles produced by one scan frame.
#[derive(Clone, PartialEq, Debug)]
pub struct ScanFrame {
    /// Per-column capacitance delta (senses X positions).
    pub columns: Vec<f64>,
    /// Per-row capacitance delta (senses Y positions).
    pub rows: Vec<f64>,
}

/// Sensing noise level as a fraction of a nominal single-touch amplitude.
pub const NOISE_FRACTION: f64 = 0.015;

/// Nominal amplitude of a medium touch, used to scale noise.
fn nominal_amplitude() -> f64 {
    Contact::new(btd_sim::geom::MmPoint::new(0.0, 0.0), 4.0, 0.5).coupling()
}

/// Scans the panel under the given physical contacts.
///
/// Contacts outside the active area contribute nothing (their coupling is
/// clipped by the glass edge).
pub fn scan(panel: &PanelSpec, contacts: &[Contact], rng: &mut SimRng) -> ScanFrame {
    let noise = NOISE_FRACTION * nominal_amplitude();
    let mut columns = vec![0.0; panel.columns()];
    let mut rows = vec![0.0; panel.rows()];

    for contact in contacts {
        if !panel.contains(contact.center) {
            continue;
        }
        for (i, col) in columns.iter_mut().enumerate() {
            let d = (contact.center.x - panel.column_x(i)).abs();
            *col += contact.profile_at(d);
        }
        for (i, row) in rows.iter_mut().enumerate() {
            let d = (contact.center.y - panel.row_y(i)).abs();
            *row += contact.profile_at(d);
        }
    }

    for v in columns.iter_mut().chain(rows.iter_mut()) {
        *v += rng.gaussian_with(0.0, noise);
        *v = v.max(0.0);
    }

    ScanFrame { columns, rows }
}

impl ScanFrame {}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_sim::geom::MmPoint;

    fn mid_contact() -> Contact {
        Contact::new(MmPoint::new(26.0, 47.0), 4.0, 0.6)
    }

    #[test]
    fn single_touch_peaks_near_contact() {
        let panel = PanelSpec::smartphone();
        let mut rng = SimRng::seed_from(1);
        let frame = scan(&panel, &[mid_contact()], &mut rng);
        let best_col = frame
            .columns
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let best_row = frame
            .rows
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((panel.column_x(best_col) - 26.0).abs() <= panel.electrode_pitch_mm);
        assert!((panel.row_y(best_row) - 47.0).abs() <= panel.electrode_pitch_mm);
    }

    #[test]
    fn empty_panel_reads_only_noise() {
        let panel = PanelSpec::smartphone();
        let mut rng = SimRng::seed_from(2);
        let frame = scan(&panel, &[], &mut rng);
        let nominal = super::nominal_amplitude();
        assert!(frame.peak_column() < 0.1 * nominal);
        assert!(frame.peak_row() < 0.1 * nominal);
        assert!(!frame.any_above(0.1 * nominal));
    }

    #[test]
    fn off_panel_contact_ignored() {
        let panel = PanelSpec::smartphone();
        let mut rng = SimRng::seed_from(3);
        let off = Contact::new(MmPoint::new(-20.0, 47.0), 4.0, 0.9);
        let frame = scan(&panel, &[off], &mut rng);
        assert!(frame.peak_column() < 0.1 * super::nominal_amplitude());
    }

    #[test]
    fn two_touches_produce_two_column_peaks() {
        let panel = PanelSpec::smartphone();
        let mut rng = SimRng::seed_from(4);
        let a = Contact::new(MmPoint::new(10.0, 20.0), 4.0, 0.6);
        let b = Contact::new(MmPoint::new(42.0, 80.0), 4.0, 0.6);
        let frame = scan(&panel, &[a, b], &mut rng);
        // Columns near x=10 and x=42 should both be strong; middle weak.
        let strong_left = frame.columns[1].max(frame.columns[2]);
        let strong_right = frame.columns[7].max(frame.columns[8]);
        let weak_mid = frame.columns[5];
        assert!(strong_left > 3.0 * weak_mid);
        assert!(strong_right > 3.0 * weak_mid);
    }

    #[test]
    fn pressure_raises_amplitude() {
        let panel = PanelSpec::smartphone();
        let mut rng = SimRng::seed_from(5);
        let soft = Contact::new(MmPoint::new(26.0, 47.0), 4.0, 0.2);
        let hard = Contact::new(MmPoint::new(26.0, 47.0), 4.0, 0.9);
        let f_soft = scan(&panel, &[soft], &mut rng);
        let f_hard = scan(&panel, &[hard], &mut rng);
        assert!(f_hard.peak_column() > 2.0 * f_soft.peak_column());
    }

    impl ScanFrame {
        /// The strongest column reading.
        pub fn peak_column(&self) -> f64 {
            self.columns.iter().copied().fold(0.0, f64::max)
        }

        /// The strongest row reading.
        pub fn peak_row(&self) -> f64 {
            self.rows.iter().copied().fold(0.0, f64::max)
        }

        /// Whether any electrode reads above `threshold`.
        pub fn any_above(&self, threshold: f64) -> bool {
            self.peak_column() > threshold && self.peak_row() > threshold
        }
    }
}
