//! BAD: two `pub fn`s that nothing outside unit tests reaches. Staged at
//! `crates/demo/src/lib.rs` by the test harness, next to the integration
//! test `crates/demo/tests/smoke.rs`, which calls `drive`.

pub fn drive(x: u64) -> u64 {
    x + 1
}

/// No caller anywhere.
pub fn orphan(x: u64) -> u64 {
    x * 2
}

/// Only the unit test below calls it.
pub fn test_only(x: u64) -> u64 {
    x * 3
}

#[cfg(test)]
mod tests {
    #[test]
    fn triples() {
        assert_eq!(super::test_only(2), 6);
    }
}
