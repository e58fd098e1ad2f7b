//! Enrolled fingerprint templates.
//!
//! The FLock module "can authenticate the user identity by matching the
//! input with the stored biometric templates"; templates live in the
//! module's protected non-volatile storage. A [`Template`] is a cleaned-up
//! minutiae constellation in the fingertip frame, produced by the
//! enrollment procedure in [`crate::enroll`].

use std::fmt;

use crate::minutiae::Minutia;

/// An enrolled reference template.
#[derive(Clone)]
pub struct Template {
    user_id: u64,
    finger_index: u8,
    minutiae: Vec<Minutia>,
}

// The minutiae constellation IS the credential: printing it hands an
// attacker everything needed to synthesize a matching fingertip. Debug
// output carries only sizes and indices.
impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Template(user {}, finger {}, {} minutiae <redacted>)",
            self.user_id,
            self.finger_index,
            self.minutiae.len()
        )
    }
}

impl Template {
    /// Builds a template from minutiae in the fingertip frame.
    ///
    /// # Panics
    ///
    /// Panics if `minutiae` is empty — an empty template can never match
    /// and would silently disable authentication.
    pub fn new(user_id: u64, finger_index: u8, minutiae: Vec<Minutia>) -> Self {
        assert!(!minutiae.is_empty(), "template must contain minutiae");
        Template {
            user_id,
            finger_index,
            minutiae,
        }
    }

    /// The enrolled user.
    pub fn user_id(&self) -> u64 {
        self.user_id
    }

    /// The enrolled finger.
    pub fn finger_index(&self) -> u8 {
        self.finger_index
    }

    /// The reference minutiae (fingertip frame).
    pub fn minutiae(&self) -> &[Minutia] {
        &self.minutiae
    }

    /// Number of reference minutiae.
    pub fn len(&self) -> usize {
        self.minutiae.len()
    }

    /// Always false (construction forbids empty templates); provided for
    /// API completeness alongside [`Template::len`].
    pub fn is_empty(&self) -> bool {
        self.minutiae.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minutiae::MinutiaKind;
    use btd_sim::geom::MmPoint;

    fn minutia(x: f64) -> Minutia {
        Minutia::new(MmPoint::new(x, 0.0), 0.5, MinutiaKind::Ending)
    }

    #[test]
    fn construction_and_accessors() {
        let t = Template::new(7, 2, vec![minutia(0.0), minutia(1.0)]);
        assert_eq!(t.user_id(), 7);
        assert_eq!(t.finger_index(), 2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "must contain minutiae")]
    fn empty_template_rejected() {
        let _ = Template::new(1, 0, Vec::new());
    }

    #[test]
    fn encoded_size_scales_with_minutiae() {
        let t1 = Template::new(1, 0, vec![minutia(0.0)]);
        let t2 = Template::new(1, 0, vec![minutia(0.0), minutia(1.0)]);
        assert_eq!(t2.encoded_size() - t1.encoded_size(), 17);
    }

    impl Template {
        /// A compact, storage-friendly byte encoding (used to size the FLock
        /// flash budget): 17 bytes per minutia plus an 16-byte header.
        pub fn encoded_size(&self) -> usize {
            16 + 17 * self.minutiae.len()
        }
    }
}
