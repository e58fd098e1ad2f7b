//! Energy and power accounting for the hardware models.
//!
//! The paper motivates *opportunistic* sensor activation with power cost:
//! keeping the whole touch-display covered in always-on fingerprint sensors
//! is infeasible, so sensors sit idle and wake only when a touch lands on
//! them. [`EnergyMeter`] accumulates per-component energy so the ablation
//! benches can compare always-on against opportunistic capture.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimDuration;

/// Energy in joules (newtype so callers cannot confuse J with W).
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Joules(pub f64);

/// Power in watts.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Watts(pub f64);

impl Watts {
    /// Energy spent running at this power for `d`.
    pub fn over(self, d: SimDuration) -> Joules {
        Joules(self.0 * d.as_secs_f64())
    }
}

impl std::ops::Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules(0.0), std::ops::Add::add)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        if j >= 1.0 {
            write!(f, "{:.3}J", j)
        } else if j >= 1e-3 {
            write!(f, "{:.3}mJ", j * 1e3)
        } else if j >= 1e-6 {
            write!(f, "{:.3}uJ", j * 1e6)
        } else {
            write!(f, "{:.3}nJ", j * 1e9)
        }
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w >= 1.0 {
            write!(f, "{:.3}W", w)
        } else if w >= 1e-3 {
            write!(f, "{:.3}mW", w * 1e3)
        } else {
            write!(f, "{:.3}uW", w * 1e6)
        }
    }
}

/// Accumulates energy per named component.
///
/// # Example
///
/// ```
/// use btd_sim::power::{EnergyMeter, Watts};
/// use btd_sim::time::SimDuration;
///
/// let mut meter = EnergyMeter::new();
/// meter.record("sensor", Watts(0.010).over(SimDuration::from_millis(20)));
/// assert!(meter.total().0 > 0.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EnergyMeter {
    by_component: BTreeMap<String, Joules>,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Adds `energy` to the bucket for `component`.
    pub fn record(&mut self, component: &str, energy: Joules) {
        // Look up by `&str` first: only a new bucket owns a copy of the
        // name.
        match self.by_component.get_mut(component) {
            Some(bucket) => *bucket += energy,
            None => {
                self.by_component
                    .insert(component.to_owned(), Joules(0.0) + energy);
            }
        }
    }

    /// Total energy across all components.
    pub fn total(&self) -> Joules {
        self.by_component.values().copied().sum()
    }

    /// Iterates component names and energies in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Joules)> {
        self.by_component.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another meter's totals into this one.
    pub fn absorb(&mut self, other: &EnergyMeter) {
        for (name, energy) in other.iter() {
            self.record(name, energy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_over_time_is_energy() {
        let e = Watts(2.0).over(SimDuration::from_millis(500));
        assert!((e.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn meter_accumulates_per_component() {
        let mut m = EnergyMeter::new();
        m.record("a", Joules(1.0));
        m.record("a", Joules(2.0));
        m.record("b", Joules(0.5));
        assert!((m.component("a").0 - 3.0).abs() < 1e-12);
        assert!((m.total().0 - 3.5).abs() < 1e-12);
        assert_eq!(m.component("missing").0, 0.0);
    }

    #[test]
    fn absorb_merges() {
        let mut m1 = EnergyMeter::new();
        m1.record("x", Joules(1.0));
        let mut m2 = EnergyMeter::new();
        m2.record("x", Joules(2.0));
        m2.record("y", Joules(3.0));
        m1.absorb(&m2);
        assert!((m1.component("x").0 - 3.0).abs() < 1e-12);
        assert!((m1.component("y").0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_units() {
        assert_eq!(Joules(0.5).to_string(), "500.000mJ");
        assert_eq!(Watts(0.0005).to_string(), "500.000uW");
    }

    impl EnergyMeter {
        /// The accumulated energy for `component`, or zero if never recorded.
        pub fn component(&self, component: &str) -> Joules {
            self.by_component
                .get(component)
                .copied()
                .unwrap_or(Joules(0.0))
        }
    }
}
