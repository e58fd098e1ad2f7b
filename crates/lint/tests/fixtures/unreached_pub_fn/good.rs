//! GOOD: every `pub fn` is reached, each through one call shape the
//! graph resolves: `!f(x)`, `f::<8>(x)`, a const initializer,
//! `.and_then(f)`, a trait-impl method, and the call to `drive` from the
//! integration test `crates/demo/tests/smoke.rs` the harness stages next
//! to this file (at `crates/demo/src/lib.rs`).

use std::fmt;

/// The initializer runs `build_table`, though no fn body calls it.
pub const TABLE: [u64; 4] = build_table();

pub const fn build_table() -> [u64; 4] {
    [1, 2, 3, 4]
}

pub struct Meter {
    pub reading: u64,
}

impl Meter {
    pub fn label(&self) -> &'static str {
        if self.reading > TABLE[3] {
            "high"
        } else {
            "low"
        }
    }
}

impl fmt::Display for Meter {
    // Trait dispatch calls `fmt`, and `fmt` calls `label`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

pub fn drive(x: u64) -> bool {
    !is_odd(x) && widen::<8>(x) > 0 && parse(x).and_then(halve).is_some()
}

pub fn is_odd(x: u64) -> bool {
    x % 2 == 1
}

pub fn widen<const N: usize>(x: u64) -> u64 {
    x << N
}

pub fn parse(x: u64) -> Option<u64> {
    Some(x)
}

pub fn halve(x: u64) -> Option<u64> {
    x.checked_div(2)
}
