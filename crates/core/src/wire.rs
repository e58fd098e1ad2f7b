//! Canonical byte encoding for signed and MACed protocol fields.
//!
//! Every message in Figs. 9/10 carries a MAC "computed over these values";
//! for that to be meaningful the values need one unambiguous byte
//! representation. [`FieldWriter`] length-prefixes every field, so two
//! different field sequences can never encode to the same bytes.
//!
//! A writer streams into any [`Sink`]: a `Vec<u8>` when the bytes must
//! exist (signatures, journal frames), an [`HmacSha256`] when they exist
//! only to be MACed. A message's one [`Canonical`] field list therefore
//! feeds its session MAC ([`mac`]) with no intermediate buffer, and a
//! nested field list is length-prefixed without being built first
//! ([`FieldWriter::nested`]).
//!
//! Durable state (journal records, shard snapshots) uses the same framing
//! through [`Durable`]: one impl per type writes and reads it, and the
//! `durable!` macro derives both directions from one field list.

use std::sync::Arc;

use btd_crypto::hmac::{constant_time_eq, HmacSha256, Tag};
use btd_crypto::nonce::Nonce;
use btd_crypto::sha256::Digest;

/// Where a [`FieldWriter`] puts the bytes it encodes.
pub trait Sink {
    /// Absorbs `data`, in order.
    fn put(&mut self, data: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

impl Sink for HmacSha256 {
    fn put(&mut self, data: &[u8]) {
        self.update(data);
    }
}

/// A borrowed sink, so a writer can fill a buffer its caller keeps.
impl<S: Sink + ?Sized> Sink for &mut S {
    fn put(&mut self, data: &[u8]) {
        (**self).put(data);
    }
}

/// Counts bytes and keeps none: measures a nested field list's length
/// before the list is streamed.
#[derive(Debug, Default)]
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, data: &[u8]) {
        self.0 += data.len();
    }
}

/// A value with one canonical field list, written into any sink.
pub trait Canonical {
    /// Writes the value's fields, in their canonical order, into `w`.
    fn fields<S: Sink>(&self, w: &mut FieldWriter<S>);
}

/// Serializes a sequence of length-prefixed fields into a [`Sink`].
#[derive(Debug, Default)]
pub struct FieldWriter<S: Sink = Vec<u8>> {
    sink: S,
}

impl FieldWriter {
    /// Creates a writer over an empty buffer.
    pub fn new() -> Self {
        FieldWriter::default()
    }
}

impl<S: Sink> FieldWriter<S> {
    /// Creates a writer that streams into `sink`.
    pub fn over(sink: S) -> Self {
        FieldWriter { sink }
    }

    /// Appends a byte-string field.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.sink.put(&(data.len() as u32).to_be_bytes());
        self.sink.put(data);
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

    /// Appends `value`'s whole field list as one byte-string field, the
    /// same bytes as `bytes(&encoded(value))` without building the inner
    /// encoding: the list is written once into a counting sink for its
    /// length, then again into this writer's sink.
    pub fn nested(&mut self, value: &impl Canonical) -> &mut Self {
        let mut len = FieldWriter::over(Len::default());
        value.fields(&mut len);
        self.sink.put(&(len.sink.0 as u32).to_be_bytes());
        value.fields(self);
        self
    }

    /// Appends `value`'s durable fields.
    pub fn put<T: Durable>(&mut self, value: &T) -> &mut Self {
        value.put(self);
        self
    }

    /// Finishes, returning the sink.
    pub fn finish(self) -> S {
        self.sink
    }
}

/// `HMAC-SHA256(key, fields(value))`, with the field list streamed
/// straight into the MAC.
pub fn mac(key: &[u8], value: &impl Canonical) -> Tag {
    let mut w = FieldWriter::over(HmacSha256::new(key));
    value.fields(&mut w);
    w.finish().finalize()
}

/// Whether `tag` is [`mac`]`(key, value)`, compared in constant time.
pub fn mac_matches(key: &[u8], value: &impl Canonical, tag: &Tag) -> bool {
    constant_time_eq(mac(key, value).as_bytes(), tag.as_bytes())
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

    /// Reads a fixed-size byte array field.
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes()?.try_into().ok()
    }

    /// Reads the next durable value.
    pub fn get<T: Durable>(&mut self) -> Option<T> {
        T::get(self)
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

/// A value with one durable field list: [`Durable::put`] writes it and
/// [`Durable::get`] reads it back, so the two directions cannot drift.
///
/// Unlike [`Canonical`], which builds MAC inputs (a label first, the MAC
/// itself left out), a durable encoding carries every field and no label.
pub trait Durable: Sized {
    /// Writes the fields, in wire order, into `w`.
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>);
    /// Reads the fields written by [`Durable::put`]; `None` on truncated
    /// or malformed input.
    fn get(r: &mut FieldReader<'_>) -> Option<Self>;
}

/// The encoding of `value` in a fresh buffer.
pub fn encode<T: Durable>(value: &T) -> Vec<u8> {
    let mut w = FieldWriter::new();
    w.put(value);
    w.finish()
}

/// Decodes `bytes` as exactly one `T`: `None` on truncation, malformation
/// or trailing bytes, so no two buffers decode to the same value.
pub fn decode<T: Durable>(bytes: &[u8]) -> Option<T> {
    let mut r = FieldReader::new(bytes);
    let value = r.get()?;
    r.is_empty().then_some(value)
}

impl Durable for u64 {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.u64(*self);
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Durable for String {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.str(self);
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        r.str().map(str::to_owned)
    }
}

impl Durable for Vec<u8> {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.bytes(self);
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        r.bytes().map(<[u8]>::to_vec)
    }
}

/// The bytes of a `String`: sharing a name changes nothing on the wire.
impl Durable for Arc<str> {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.str(self);
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        r.str().map(Arc::from)
    }
}

/// The bytes of a `Vec<u8>`.
impl Durable for Arc<[u8]> {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.bytes(self);
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        r.bytes().map(Arc::from)
    }
}

impl Durable for Nonce {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        r.array().map(Nonce)
    }
}

impl Durable for Digest {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        r.array().map(Digest)
    }
}

/// A `u64` flag (0 or 1), then the value if present.
impl<T: Durable> Durable for Option<T> {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        match self {
            Some(v) => w.u64(1).put(v),
            None => w.u64(0),
        };
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        match r.u64()? {
            0 => Some(None),
            1 => r.get().map(Some),
            _ => None,
        }
    }
}

/// A `u64` count, then the items.
impl<T: Durable> Durable for Vec<T> {
    fn put<S: Sink>(&self, w: &mut FieldWriter<S>) {
        w.u64(self.len() as u64);
        for v in self {
            w.put(v);
        }
    }
    fn get(r: &mut FieldReader<'_>) -> Option<Self> {
        // The count is untrusted: grow as items arrive, never reserve it.
        let mut items = Vec::new();
        for _ in 0..r.u64()? {
            items.push(r.get()?);
        }
        Some(items)
    }
}

/// Implements [`Durable`] from one field list in wire order, so the
/// writer and the reader are the same list. Every field must be listed
/// (the pattern and the constructor are exhaustive), and each field's
/// type must itself be [`Durable`].
///
/// A struct: `durable!(Page { path, body })`. An enum: each variant after
/// its tag, written first as a string field:
/// `durable!(Record { "a" => A { x }, "b" => B { x, y } })`.
macro_rules! durable {
    ($ty:ident { $($tag:literal => $variant:ident { $($field:ident),* $(,)? }),+ $(,)? }) => {
        impl $crate::wire::Durable for $ty {
            fn put<S: $crate::wire::Sink>(&self, w: &mut $crate::wire::FieldWriter<S>) {
                match self {
                    $($ty::$variant { $($field),* } => {
                        w.str($tag)$(.put($field))*;
                    })+
                }
            }
            fn get(r: &mut $crate::wire::FieldReader<'_>) -> Option<Self> {
                Some(match r.str()? {
                    $($tag => $ty::$variant { $($field: r.get()?),* },)+
                    _ => return None,
                })
            }
        }
    };
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Durable for $ty {
            fn put<S: $crate::wire::Sink>(&self, w: &mut $crate::wire::FieldWriter<S>) {
                w$(.put(&self.$field))+;
            }
            fn get(r: &mut $crate::wire::FieldReader<'_>) -> Option<Self> {
                Some($ty { $($field: r.get()?),+ })
            }
        }
    };
}
pub(crate) use durable;

#[cfg(test)]
mod proptests {
    use super::*;
    use btd_crypto::hmac::hmac_sha256;
    use proptest::prelude::*;

    /// A bare field list.
    struct List(Vec<Vec<u8>>);

    impl Canonical for List {
        fn fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
            for f in &self.0 {
                w.bytes(f);
            }
        }
    }

    fn encoded(list: &List) -> Vec<u8> {
        let mut w = FieldWriter::new();
        list.fields(&mut w);
        w.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A nested list writes exactly the bytes of its encoding framed
        /// as one field, and streaming a list into the MAC tags exactly
        /// its encoding.
        #[test]
        fn nested_and_streamed_fields_match_the_buffer(
            head in proptest::collection::vec(any::<u8>(), 0..16),
            inner in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..6),
            key in proptest::collection::vec(any::<u8>(), 0..80),
        ) {
            let inner = List(inner);
            let mut streamed = FieldWriter::new();
            streamed.bytes(&head).nested(&inner).u64(7);
            let mut buffered = FieldWriter::new();
            buffered.bytes(&head).bytes(&encoded(&inner)).u64(7);
            prop_assert_eq!(streamed.finish(), buffered.finish());
            prop_assert_eq!(mac(&key, &inner), hmac_sha256(&key, &encoded(&inner)));
        }

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
    fn shared_names_encode_like_owned_ones() {
        for name in ["", "sess-7-00ff", "pay/\u{e9}t\u{e9}"] {
            let shared: Arc<str> = Arc::from(name);
            assert_eq!(encode(&shared), encode(&name.to_owned()));
            assert_eq!(decode::<Arc<str>>(&encode(&shared)), Some(shared));
        }
        for body in [&b""[..], b"\x00balance: $100\xff"] {
            let shared: Arc<[u8]> = Arc::from(body);
            assert_eq!(encode(&shared), encode(&body.to_vec()));
            assert_eq!(decode::<Arc<[u8]>>(&encode(&shared)), Some(shared));
        }
        // Strictness carries over: invalid UTF-8 is no name, and trailing
        // bytes are no value.
        assert_eq!(decode::<Arc<str>>(&encode(&vec![0xFFu8])), None);
        let mut extended = encode(&Arc::<[u8]>::from(&b"x"[..]));
        extended.push(0);
        assert_eq!(decode::<Arc<[u8]>>(&extended), None);
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
        /// Reads the next field as a `u32`.
        pub fn u32(&mut self) -> Option<u32> {
            let b = self.bytes()?;
            Some(u32::from_be_bytes(b.try_into().ok()?))
        }

        /// Reads the next field as an `f64`.
        pub fn f64(&mut self) -> Option<f64> {
            let b = self.bytes()?;
            Some(f64::from_be_bytes(b.try_into().ok()?))
        }
    }
}
