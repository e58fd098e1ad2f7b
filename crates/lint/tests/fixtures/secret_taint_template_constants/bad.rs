//! BAD: the matcher's per-template constants are derived from the
//! enrolled minutiae, so printing them leaks the template. The value is
//! renamed before it reaches the format macro, so only the dataflow rule
//! sees it. Staged at `crates/flock/src/fp_processor.rs` by the test
//! harness.

pub fn log_set(set: &TemplateSet) {
    let angles = &set.direction_trig;
    let first = angles[0];
    println!("first direction: {:?}", first);
}
