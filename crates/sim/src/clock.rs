//! Digital clock-domain modelling.
//!
//! The TFT readout architecture in the paper (Figure 4, Table II) is driven
//! by an explicit pixel clock — e.g. 4 MHz for the sensor of Lee et al. and
//! 250–500 kHz for the poly-Si TFT prototypes. [`ClockDomain`] converts
//! between cycle counts and [`SimDuration`] so the readout simulation can be
//! written in cycles and reported in wall-clock terms.

use crate::time::SimDuration;

/// A fixed-frequency clock domain.
///
/// # Example
///
/// ```
/// use btd_sim::clock::ClockDomain;
///
/// let pixel_clock = ClockDomain::from_hz(4_000_000.0); // 4 MHz (Table II row 1)
/// assert_eq!(pixel_clock.cycles_to_duration(4_000).as_millis(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ClockDomain {
    freq_hz: f64,
}

impl ClockDomain {
    /// Creates a clock domain at `freq_hz` hertz.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not strictly positive and finite.
    pub fn from_hz(freq_hz: f64) -> Self {
        assert!(
            freq_hz.is_finite() && freq_hz > 0.0,
            "clock frequency must be positive and finite"
        );
        ClockDomain { freq_hz }
    }

    /// Creates a clock domain at `mhz` megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        ClockDomain::from_hz(mhz * 1e6)
    }

    /// Creates a clock domain at `khz` kilohertz.
    pub fn from_khz(khz: f64) -> Self {
        ClockDomain::from_hz(khz * 1e3)
    }

    /// The frequency in hertz.
    pub fn freq_hz(self) -> f64 {
        self.freq_hz
    }

    /// The duration of `cycles` clock cycles.
    pub fn cycles_to_duration(self, cycles: u64) -> SimDuration {
        SimDuration::from_secs_f64(cycles as f64 / self.freq_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_matches_frequency() {
        let clk = ClockDomain::from_mhz(1.0);
        assert_eq!(clk.period(), SimDuration::from_micros(1));
    }

    #[test]
    fn khz_constructor() {
        let clk = ClockDomain::from_khz(250.0); // Table II, Hara et al.
        assert_eq!(clk.period(), SimDuration::from_micros(4));
    }

    #[test]
    fn cycles_roundtrip_through_duration() {
        let clk = ClockDomain::from_mhz(4.0);
        let d = clk.cycles_to_duration(1_000);
        assert_eq!(clk.duration_to_cycles(d), 1_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = ClockDomain::from_hz(0.0);
    }

    impl ClockDomain {
        /// The period of one cycle.
        pub fn period(self) -> SimDuration {
            SimDuration::from_secs_f64(1.0 / self.freq_hz)
        }

        /// How many full cycles fit in `d` (truncating).
        pub fn duration_to_cycles(self, d: SimDuration) -> u64 {
            (d.as_secs_f64() * self.freq_hz).floor() as u64
        }
    }
}
