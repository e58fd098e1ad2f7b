#![warn(missing_docs)]

//! Simulation substrate for the TRUST / FLock reproduction.
//!
//! The paper ("Continuous Remote Mobile Identity Management Using Biometric
//! Integrated Touch-Display", MICRO 2012) describes hardware that was never
//! fabricated. Every other crate in this workspace therefore runs on top of a
//! deterministic simulation substrate provided here:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) with no dependence on the host clock.
//! * [`clock`] — a digital clock model used by the cycle-level readout
//!   simulations ([`clock::ClockDomain`]).
//! * [`rng`] — a small, seedable, splittable PRNG so every experiment is
//!   reproducible from a single seed.
//! * [`geom`] — millimetre-denominated 2-D geometry shared by the
//!   touchscreen, sensor, and placement crates.
//! * [`event`] — a deterministic discrete-event queue.
//! * [`power`] — energy/power bookkeeping for the hardware models.
//!
//! # Example
//!
//! ```
//! use btd_sim::time::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO;
//! let t = start + SimDuration::from_millis(4); // a touchscreen frame
//! assert_eq!(t.as_nanos(), 4_000_000);
//! ```

pub mod clock;
pub mod event;
pub mod geom;
pub mod power;
pub mod rng;
pub mod time;

pub use geom::{MmPoint, MmRect, MmSize};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
