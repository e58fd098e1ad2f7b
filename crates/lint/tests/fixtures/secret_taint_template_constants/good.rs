//! GOOD: the same log line reports only how many constants there are —
//! `len` is a registered sanitizer, so the projection launders the
//! taint. Staged at `crates/flock/src/fp_processor.rs` by the test
//! harness.

pub fn log_set(set: &TemplateSet) {
    let count = set.direction_trig.len();
    println!("directions: {:?}", count);
}
