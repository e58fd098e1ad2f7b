//! Canonical byte encoding for signed and MACed protocol fields.
//!
//! Every message in Figs. 9/10 carries a MAC "computed over these values";
//! for that to be meaningful the values need one unambiguous byte
//! representation. [`FieldWriter`] length-prefixes every field, so two
//! different field sequences can never encode to the same bytes.

/// Serializes a sequence of length-prefixed fields.
#[derive(Debug, Default)]
pub struct FieldWriter {
    buf: Vec<u8>,
}

impl FieldWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        FieldWriter::default()
    }

    /// Appends a byte-string field.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.buf
            .extend_from_slice(&(data.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(data);
        self
    }

    /// Appends a UTF-8 string field.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Appends a `u64` field.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_be_bytes())
    }

    /// Appends a `u32` field.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_be_bytes())
    }

    /// Finishes, returning the canonical bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Convenience: encodes fields with a domain-separation label first.
///
/// # Example
///
/// ```
/// use trust_core::wire::signing_bytes;
///
/// let a = signing_bytes("registration-v1", |w| {
///     w.str("www.xyz.com").str("alice");
/// });
/// let b = signing_bytes("registration-v1", |w| {
///     w.str("www.xyz.co").str("malice");
/// });
/// assert_ne!(a, b);
/// ```
pub fn signing_bytes(label: &str, fill: impl FnOnce(&mut FieldWriter)) -> Vec<u8> {
    let mut w = FieldWriter::new();
    w.str(label);
    fill(&mut w);
    w.finish()
}

/// Reads back a sequence of length-prefixed fields written by
/// [`FieldWriter`].
///
/// Every accessor returns `None` on truncated or malformed input instead
/// of panicking, so journal recovery can treat a torn record as "not a
/// record" rather than a crash.
#[derive(Debug)]
pub struct FieldReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FieldReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        FieldReader { buf, pos: 0 }
    }

    /// Reads the next byte-string field.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len_end = self.pos.checked_add(4)?;
        let len_bytes = self.buf.get(self.pos..len_end)?;
        let len = u32::from_be_bytes(len_bytes.try_into().ok()?) as usize;
        let end = len_end.checked_add(len)?;
        let data = self.buf.get(len_end..end)?;
        self.pos = end;
        Some(data)
    }

    /// Reads the next field as a UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Reads the next field as a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.bytes()?;
        Some(u64::from_be_bytes(b.try_into().ok()?))
    }

    /// Reads the next field as a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.bytes()?;
        Some(u32::from_be_bytes(b.try_into().ok()?))
    }

    /// Reads a fixed-size byte array field.
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes()?.try_into().ok()
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Two different field sequences never encode to the same bytes
        /// (framing is unambiguous).
        #[test]
        fn field_framing_is_injective(
            a in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..6),
            b in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..6),
        ) {
            let enc = |fields: &Vec<Vec<u8>>| {
                let mut w = FieldWriter::new();
                for f in fields {
                    w.bytes(f);
                }
                w.finish()
            };
            if a != b {
                prop_assert_ne!(enc(&a), enc(&b));
            } else {
                prop_assert_eq!(enc(&a), enc(&b));
            }
        }

        /// The encoding length is exactly the sum of field lengths plus
        /// 4 bytes of framing per field.
        #[test]
        fn encoding_length_is_predictable(
            fields in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..8),
        ) {
            let mut w = FieldWriter::new();
            for f in &fields {
                w.bytes(f);
            }
            let expected: usize = fields.iter().map(|f| f.len() + 4).sum();
            prop_assert_eq!(w.finish().len(), expected);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_boundaries_are_unambiguous() {
        let a = signing_bytes("l", |w| {
            w.str("ab").str("c");
        });
        let b = signing_bytes("l", |w| {
            w.str("a").str("bc");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn labels_domain_separate() {
        let a = signing_bytes("login", |w| {
            w.u64(1);
        });
        let b = signing_bytes("logout", |w| {
            w.u64(1);
        });
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            signing_bytes("x", |w| {
                w.u64(7).f64(0.25).bytes(&[1, 2, 3]);
            })
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn u32_round_trips_and_differs_from_u64() {
        let mut w = FieldWriter::new();
        w.u32(0xDEAD_BEEF).u64(0xDEAD_BEEF);
        let bytes = w.finish();
        let mut r = FieldReader::new(&bytes);
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(0xDEAD_BEEF));
        assert!(r.is_empty());
        // A u32 field cannot be misread as a u64 field (length framing).
        let mut r = FieldReader::new(&bytes);
        assert_eq!(r.u64(), None);
    }

    #[test]
    fn empty_fields_are_still_framed() {
        let a = signing_bytes("l", |w| {
            w.str("").str("");
        });
        let b = signing_bytes("l", |w| {
            w.str("");
        });
        assert_ne!(a, b);
    }

    impl FieldWriter {
        /// Appends an `f64` field (IEEE-754 big-endian bits).
        pub fn f64(&mut self, v: f64) -> &mut Self {
            self.bytes(&v.to_be_bytes())
        }
    }

    impl<'a> FieldReader<'a> {
        /// Reads the next field as an `f64`.
        pub fn f64(&mut self) -> Option<f64> {
            let b = self.bytes()?;
            Some(f64::from_be_bytes(b.try_into().ok()?))
        }
    }
}
