//! Hand-rolled binary codec for snapshots and traces.
//!
//! The workspace builds offline (no crates.io), so this is the in-tree
//! replacement for a serialization crate, sized to exactly what the
//! snapshot (`docs/SNAPSHOT_FORMAT.md`) and trace
//! (`docs/TRACE_FORMAT.md`) formats need:
//!
//! * little-endian fixed-width integers,
//! * LEB128 varints (unsigned, plus zigzag for signed deltas),
//! * a framed container — 4-byte magic, `u32` version, `u64` payload
//!   length, payload, FNV-1a checksum over everything before it,
//! * typed decode errors so corrupt or truncated inputs are rejected
//!   instead of misread.
//!
//! Encoders never fail; all fallibility lives on the [`ByteReader`] side.
//!
//! Structured values implement [`Codec`] (decode builds a fresh value)
//! or [`Restore`] (decode overwrites a value already built from the
//! same configuration). Both are normally generated by [`codec!`](crate::codec!)
//! from one field list per type, so the two directions cannot drift
//! apart: the generated code destructures every field, and a field
//! added to the type but not to its list is a compile error.
//! Decoding is structural only — it rejects bytes that cannot form a
//! value (truncation, bad tags, broken constructor invariants). Checks
//! against the configuration (index ranges, capacities, counts) belong
//! to each component's validation step, which runs after decode.
//!
//! ```
//! use chopim_dram::codec::{ByteReader, ByteWriter, read_framed, write_framed};
//!
//! let mut w = ByteWriter::new();
//! w.varint(300);
//! w.f32(1.5);
//! let framed = write_framed(*b"DEMO", 1, w.finish());
//! let payload = read_framed(*b"DEMO", 1, &framed).unwrap();
//! let mut r = ByteReader::new(payload);
//! assert_eq!(r.varint().unwrap(), 300);
//! assert_eq!(r.f32().unwrap(), 1.5);
//! assert!(r.is_empty());
//! ```

#![warn(clippy::cast_possible_truncation)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::Cycle;

/// Why a snapshot or trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the expected data (truncated file).
    Truncated,
    /// The 4-byte magic did not match the expected format.
    BadMagic,
    /// The format version is not one this build can read.
    BadVersion(u32),
    /// The FNV-1a trailer did not match the content (corruption).
    BadChecksum,
    /// A decoded value is structurally impossible (context in the str).
    Corrupt(&'static str),
    /// The snapshot/trace was captured under a different configuration.
    ConfigMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadMagic => write!(f, "bad magic (not this format)"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadChecksum => write!(f, "checksum mismatch (corrupt input)"),
            CodecError::Corrupt(what) => write!(f, "corrupt field: {what}"),
            CodecError::ConfigMismatch => write!(f, "configuration fingerprint mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes` — the checksum both binary formats use
/// (same hash family the experiment grid already uses for point seeds).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Growable little-endian byte sink. Every `put` appends; call
/// [`finish`](Self::finish) to take the buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its little-endian IEEE-754 bits (bit-exact
    /// round-trip, NaN payloads included).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append an unsigned LEB128 varint (1 byte for values < 128).
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append a signed value as a zigzag-encoded varint (small magnitudes
    /// of either sign stay short).
    pub fn varint_signed(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append any [`Codec`] value.
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Take the accumulated bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over an immutable byte slice; every read checks bounds and
/// returns [`CodecError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) yields 4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take(8) yields 8 bytes"),
        ))
    }

    /// Read an `f32` from its IEEE-754 bits.
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) yields 4 bytes"),
        )))
    }

    /// Read an unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Corrupt("varint longer than 10 bytes"))
    }

    /// Read a zigzag-encoded signed varint.
    pub fn varint_signed(&mut self) -> Result<i64, CodecError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a varint and narrow it to `u32`.
    pub fn varint_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.varint()?).map_err(|_| CodecError::Corrupt("u32 overflow"))
    }

    /// Read a varint and narrow it to `usize`.
    pub fn varint_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.varint()?).map_err(|_| CodecError::Corrupt("usize overflow"))
    }

    /// Read a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool byte not 0/1")),
        }
    }

    /// Read any [`Codec`] value.
    pub fn get<T: Codec>(&mut self) -> Result<T, CodecError> {
        T::decode(self)
    }
}

// --- structured values ----------------------------------------------------

/// A value with a snapshot encoding; decoding builds a fresh value.
/// Implement it with [`codec!`](crate::codec!) rather than by hand.
pub trait Codec: Sized {
    /// Append the encoding of `self`.
    fn encode(&self, w: &mut ByteWriter);

    /// Read one value; `Truncated`/`Corrupt` when the bytes cannot form one.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// State restored *into* a value already built from the configuration the
/// snapshot was captured under: fields derived from that configuration
/// are kept, everything else is overwritten. Every [`Codec`] value is
/// trivially restorable (decode and replace).
pub trait Restore {
    /// Append the encoding of the restorable state.
    fn encode_state(&self, w: &mut ByteWriter);

    /// Overwrite the restorable state from `r`: structural decode errors,
    /// or `ConfigMismatch` when the image disagrees with a
    /// construction-time value it carries.
    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;
}

impl<T: Codec> Restore for T {
    #[cold]
    fn encode_state(&self, w: &mut ByteWriter) {
        self.encode(w);
    }

    #[cold]
    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        *self = T::decode(r)?;
        Ok(())
    }
}

/// Scalars with a dedicated [`ByteWriter`]/[`ByteReader`] method pair.
macro_rules! scalar_codec {
    ($($t:ty: $put:ident / $get:ident),*) => {$(
        impl Codec for $t {
            #[cold]
            fn encode(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }

            #[cold]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    )*};
}
scalar_codec!(u8: u8 / u8, u64: varint / varint, bool: bool / bool, f32: f32 / f32);

/// Narrower unsigned integers: varints, `Corrupt` when the value does
/// not fit.
macro_rules! narrow_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[cold]
            fn encode(&self, w: &mut ByteWriter) {
                w.varint(*self as u64);
            }

            #[cold]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                <$t>::try_from(r.varint()?)
                    .map_err(|_| CodecError::Corrupt(concat!(stringify!($t), " overflow")))
            }
        }
    )*};
}
narrow_codec!(u16, u32, usize);

/// `bool` presence flag, then the value.
impl<T: Codec> Codec for Option<T> {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
}

/// Shared values encode as their contents; decode builds a fresh `Arc`
/// (nothing in the engine depends on pointer identity).
impl<T: Codec> Codec for Arc<T> {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        T::encode(self, w);
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

/// Append a length-prefixed sequence — a varint count, then each element:
/// the encoding of every collection, usable on a borrowed slice (e.g. a
/// queue's live region).
#[cold]
pub fn encode_seq<'a, T: Codec + 'a>(vs: impl ExactSizeIterator<Item = &'a T>, w: &mut ByteWriter) {
    w.varint(vs.len() as u64);
    for v in vs {
        v.encode(w);
    }
}

impl<T: Codec> Codec for Vec<T> {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        encode_seq(self.iter(), w);
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.varint_usize()?;
        // Every element takes at least one byte, so a corrupt length can
        // never reserve more than the input could hold.
        let mut vs = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            vs.push(T::decode(r)?);
        }
        Ok(vs)
    }
}

/// Other collections encode like the `Vec` of their items.
macro_rules! seq_codec {
    ($($seq:ty => $($bound:ident)?),*) => {$(
        impl<T: Codec $(+ $bound)?> Codec for $seq {
            #[cold]
            fn encode(&self, w: &mut ByteWriter) {
                encode_seq(self.iter(), w);
            }

            #[cold]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(Vec::<T>::decode(r)?.into_iter().collect())
            }
        }
    )*};
}
seq_codec!(VecDeque<T> =>, Arc<[T]> =>, BTreeSet<T> => Ord);

/// Length-prefixed `(key, value)` pairs in key order.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        w.varint(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<(K, V)>::decode(r)?.into_iter().collect())
    }
}

/// Fixed arrays carry no length prefix: the length is the type's.
impl<T: Codec + Default, const N: usize> Codec for [T; N] {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        for v in self {
            v.encode(w);
        }
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for v in &mut out {
            *v = T::decode(r)?;
        }
        Ok(out)
    }
}

/// Tuples encode their elements in order.
macro_rules! tuple_codec {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            #[cold]
            fn encode(&self, w: &mut ByteWriter) {
                $(self.$i.encode(w);)+
            }

            #[cold]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    )*};
}
tuple_codec! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

/// `Ok` when `ok`, else `Corrupt(what)`: the building block of the
/// validation steps that run after decode.
pub fn check(ok: bool, what: &'static str) -> Result<(), CodecError> {
    if ok {
        Ok(())
    } else {
        Err(CodecError::Corrupt(what))
    }
}

/// Read a value and require it to equal `held` (`ConfigMismatch`
/// otherwise) — the restore side of a `codec!` `expect` field.
#[cold]
pub fn expect<T: Codec + PartialEq>(held: &T, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
    if T::decode(r)? == *held {
        Ok(())
    } else {
        Err(CodecError::ConfigMismatch)
    }
}

// --- per-field encoding overrides ----------------------------------------
//
// Each module is the `(encode, decode)` pair a `codec!` field list names
// with `field: module`.

/// `Option<Cycle>` as one varint: `None` ↦ 0, `Some(c)` ↦ `c + 1`.
/// Cycles never reach `u64::MAX`, so the shift is lossless.
pub mod opt_cycle {
    use super::{ByteReader, ByteWriter, CodecError, Cycle};

    /// Append `v`.
    #[cold]
    pub fn encode(v: &Option<Cycle>, w: &mut ByteWriter) {
        w.varint(v.map_or(0, |c| c + 1));
    }

    /// Read a value written by [`encode`].
    #[cold]
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Option<Cycle>, CodecError> {
        Ok(r.varint()?.checked_sub(1))
    }
}

/// Fixed-width little-endian integers (RNG state words, the CPU-clock
/// accumulator), and arrays of them.
pub mod fixed {
    use super::{ByteReader, ByteWriter, CodecError};

    /// A value with a fixed-width encoding.
    pub trait Fixed: Sized {
        /// Append `self`.
        fn put(&self, w: &mut ByteWriter);
        /// Read one value.
        fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
    }

    macro_rules! fixed_int {
        ($($t:ident),*) => {$(
            impl Fixed for $t {
                fn put(&self, w: &mut ByteWriter) {
                    w.$t(*self);
                }

                fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                    r.$t()
                }
            }
        )*};
    }
    fixed_int!(u32, u64);

    impl<T: Fixed + Default + Copy, const N: usize> Fixed for [T; N] {
        fn put(&self, w: &mut ByteWriter) {
            self.iter().for_each(|v| v.put(w));
        }

        fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let mut out = [T::default(); N];
            for v in &mut out {
                *v = T::get(r)?;
            }
            Ok(out)
        }
    }

    /// Append `v` at fixed width.
    #[cold]
    pub fn encode<T: Fixed>(v: &T, w: &mut ByteWriter) {
        v.put(w);
    }

    /// Read a value written by [`encode`].
    #[cold]
    pub fn decode<T: Fixed>(r: &mut ByteReader<'_>) -> Result<T, CodecError> {
        T::get(r)
    }
}

/// Three-state values as one `u8` tag: `0` for the outer `None`, then
/// `Option<bool>` as `1 + b`, or `Option<Option<T>>` as `1` for
/// `Some(None)` and `2` followed by `v` for `Some(Some(v))`. A `Cell`
/// encodes its contents.
pub mod tri {
    use std::cell::Cell;

    use super::{ByteReader, ByteWriter, Codec, CodecError};

    /// A value with a three-state tag encoding.
    pub trait Tri: Sized {
        /// Append `self`.
        fn put(&self, w: &mut ByteWriter);
        /// Read one value (`Corrupt` on a tag above 2).
        fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
    }

    impl Tri for Option<bool> {
        fn put(&self, w: &mut ByteWriter) {
            w.u8(self.map_or(0, |b| 1 + u8::from(b)));
        }

        fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            match r.u8()? {
                0 => Ok(None),
                t @ 1..=2 => Ok(Some(t == 2)),
                _ => Err(CodecError::Corrupt("three-state tag")),
            }
        }
    }

    impl<T: Codec> Tri for Option<Option<T>> {
        fn put(&self, w: &mut ByteWriter) {
            w.u8(self.as_ref().map_or(0, |v| 1 + u8::from(v.is_some())));
            if let Some(Some(v)) = self {
                v.encode(w);
            }
        }

        fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            match r.u8()? {
                0 => Ok(None),
                1 => Ok(Some(None)),
                2 => Ok(Some(Some(T::decode(r)?))),
                _ => Err(CodecError::Corrupt("three-state tag")),
            }
        }
    }

    impl<T: Tri + Copy> Tri for Cell<T> {
        fn put(&self, w: &mut ByteWriter) {
            self.get().put(w);
        }

        fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            T::get(r).map(Cell::new)
        }
    }

    /// Append `v`.
    #[cold]
    pub fn encode<T: Tri>(v: &T, w: &mut ByteWriter) {
        v.put(w);
    }

    /// Read a value written by [`encode`].
    #[cold]
    pub fn decode<T: Tri>(r: &mut ByteReader<'_>) -> Result<T, CodecError> {
        T::get(r)
    }
}

/// Generate both directions of a snapshot codec from one field list.
///
/// The list order *is* the byte order. Four forms:
///
/// * `codec! { Name { a, b: opt_cycle, c: skip } }` implements
///   [`Codec`] for a struct; a `skip` field decodes as its `Default`.
/// * `codec! { Name(a, b) }` does the same for a tuple struct (the
///   names bind the fields in order).
/// * `codec! { in_place Name { .. } }` implements [`Restore`]: decode
///   overwrites the listed fields of a value built from the same
///   configuration and keeps the `skip` ones. `in_place(pub(crate))`
///   generates the same two methods as inherent ones with that
///   visibility instead, for state no other crate may restore.
/// * `codec! { enum Name { 0 => Unit, 1 => Tuple(x, y), 2 => Struct { a, b } } }`
///   implements [`Codec`] for an enum with explicit `u8` tags.
///
/// A struct may also be a local newtype over a foreign struct whose
/// fields are public — `codec! { Local(Foreign) { .. } }` — which is
/// how a crate encodes a type it does not own.
///
/// Field overrides (default: the field type's [`Codec`]):
///
/// * `skip` — not encoded (derived, or configuration);
/// * `opt_cycle`, `fixed`, `tri` — the encodings of the same-named
///   modules in [`codec`](mod@crate::codec);
/// * `expect` (`in_place` only) — encoded as a cross-check of a
///   construction-time value: decode fails with
///   [`CodecError::ConfigMismatch`] unless the image holds the same one;
/// * `each` (`in_place` only) — a sequence whose length the
///   configuration fixes: elements with no length prefix, each
///   restored in place;
/// * any other name — a module in scope at the call site with
///   `encode(&T, &mut ByteWriter)` and `decode` (or, `in_place`,
///   `restore(&mut T, &mut ByteReader)`).
///
/// Every field must be listed: the generated code destructures the
/// whole struct (or variant) without `..`, so a new field fails to
/// compile until it is encoded or marked `skip`.
///
/// ```
/// use chopim_dram::codec::{ByteReader, ByteWriter, Codec};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe {
///     hits: u64,
///     last: Option<u64>,
///     scratch: u32,
/// }
/// chopim_dram::codec! { Probe { hits, last: opt_cycle, scratch: skip } }
///
/// let p = Probe { hits: 3, last: Some(9), scratch: 7 };
/// let mut w = ByteWriter::new();
/// p.encode(&mut w);
/// let bytes = w.finish();
/// assert_eq!(bytes, [3, 10]);
/// let back = Probe::decode(&mut ByteReader::new(&bytes)).unwrap();
/// assert_eq!(back, Probe { hits: 3, last: Some(9), scratch: 0 });
/// ```
///
/// Forgetting a field does not compile:
///
/// ```compile_fail,E0027
/// struct Probe {
///     hits: u64,
///     misses: u64,
/// }
/// chopim_dram::codec! { Probe { hits } }
/// ```
#[macro_export]
macro_rules! codec {
    (enum $ty:ident { $(
        $tag:literal => $v:ident
            $(( $($t:ident),* $(,)? ))?
            $({ $($f:ident $(: $how:ident)?),* $(,)? })?
    ),* $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            #[cold]
            fn encode(&self, w: &mut $crate::codec::ByteWriter) {
                match self {$(
                    $ty::$v $(( $($t),* ))? $({ $($f),* })? => {
                        w.u8($tag);
                        $($($crate::codec::Codec::encode($t, w);)*)?
                        $($($crate::__codec_field!(encode w, $f $(, $how)?);)*)?
                    }
                )*}
            }

            #[cold]
            fn decode(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                ::core::result::Result::Ok(match r.u8()? {
                    $($tag => $ty::$v
                        $(( $($crate::__codec_field!(@tuple r, $t)),* ))?
                        $({ $($f: $crate::__codec_field!(decode r $(, $how)?)),* })?,
                    )*
                    _ => {
                        return ::core::result::Result::Err($crate::codec::CodecError::Corrupt(
                            concat!(stringify!($ty), " tag"),
                        ))
                    }
                })
            }
        }
    };
    (in_place($vis:vis) $ty:ident $fields:tt) => {
        $crate::codec!(@in_place [impl $ty] [$vis] $ty $fields);
    };
    (in_place $ty:ident $fields:tt) => {
        $crate::codec!(@in_place [impl $crate::codec::Restore for $ty] [] $ty $fields);
    };
    (@in_place [$($head:tt)*] [$($vis:tt)*] $ty:ident { $($f:ident $(: $how:ident)?),* $(,)? }) => {
        $($head)* {
            /// Append the restorable state (generated by `codec!`).
            #[cold]
            // chopim-lint: allow(coldpath) -- it is #[cold]; the scanner cannot see past the `$vis` fragment
            $($vis)* fn encode_state(&self, w: &mut $crate::codec::ByteWriter) {
                let $ty { $($f),* } = self;
                $($crate::__codec_field!(encode w, $f $(, $how)?);)*
            }

            /// Overwrite the restorable state (generated by `codec!`).
            #[cold]
            // chopim-lint: allow(coldpath) -- it is #[cold]; the scanner cannot see past the `$vis` fragment
            $($vis)* fn decode_state(
                &mut self,
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> ::core::result::Result<(), $crate::codec::CodecError> {
                let $ty { $($f),* } = self;
                $($crate::__codec_field!(restore r, $f $(, $how)?);)*
                ::core::result::Result::Ok(())
            }
        }
    };
    ($ty:ident ( $remote:ident ) { $($f:ident $(: $how:ident)?),* $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            #[cold]
            fn encode(&self, w: &mut $crate::codec::ByteWriter) {
                let $remote { $($f),* } = &self.0;
                $($crate::__codec_field!(encode w, $f $(, $how)?);)*
            }

            #[cold]
            fn decode(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                $(let $f = $crate::__codec_field!(decode r $(, $how)?);)*
                ::core::result::Result::Ok($ty($remote { $($f),* }))
            }
        }
    };
    ($ty:ident ( $($t:ident),* $(,)? )) => {
        impl $crate::codec::Codec for $ty {
            #[cold]
            fn encode(&self, w: &mut $crate::codec::ByteWriter) {
                let $ty($($t),*) = self;
                $($crate::codec::Codec::encode($t, w);)*
            }

            #[cold]
            fn decode(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                ::core::result::Result::Ok($ty($($crate::__codec_field!(@tuple r, $t)),*))
            }
        }
    };
    ($ty:ident { $($f:ident $(: $how:ident)?),* $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            #[cold]
            fn encode(&self, w: &mut $crate::codec::ByteWriter) {
                let $ty { $($f),* } = self;
                $($crate::__codec_field!(encode w, $f $(, $how)?);)*
            }

            #[cold]
            fn decode(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                $(let $f = $crate::__codec_field!(decode r $(, $how)?);)*
                ::core::result::Result::Ok($ty { $($f),* })
            }
        }
    };
}

/// One field of a [`codec!`](crate::codec!) list, in one direction
/// (implementation detail of `codec!`).
#[doc(hidden)]
#[macro_export]
macro_rules! __codec_field {
    // encode: `$f` is bound to `&Field`.
    (encode $w:ident, $f:ident) => {{
        #[allow(unused_imports)]
        use $crate::codec::Restore as _;
        $f.encode_state($w)
    }};
    (encode $w:ident, $f:ident, skip) => {
        let _ = $f;
    };
    (encode $w:ident, $f:ident, expect) => {
        $crate::codec::Codec::encode($f, $w)
    };
    (encode $w:ident, $f:ident, each) => {{
        #[allow(unused_imports)]
        use $crate::codec::Restore as _;
        $f.iter().for_each(|v| v.encode_state($w))
    }};
    (encode $w:ident, $f:ident, opt_cycle) => {
        $crate::codec::opt_cycle::encode($f, $w)
    };
    (encode $w:ident, $f:ident, fixed) => {
        $crate::codec::fixed::encode($f, $w)
    };
    (encode $w:ident, $f:ident, tri) => {
        $crate::codec::tri::encode($f, $w)
    };
    (encode $w:ident, $f:ident, $how:ident) => {
        $how::encode($f, $w)
    };
    // decode: an expression producing the field value.
    (decode $r:ident) => {
        $crate::codec::Codec::decode($r)?
    };
    (decode $r:ident, skip) => {
        ::core::default::Default::default()
    };
    (decode $r:ident, opt_cycle) => {
        $crate::codec::opt_cycle::decode($r)?
    };
    (decode $r:ident, fixed) => {
        $crate::codec::fixed::decode($r)?
    };
    (decode $r:ident, tri) => {
        $crate::codec::tri::decode($r)?
    };
    (decode $r:ident, $how:ident) => {
        $how::decode($r)?
    };
    (@tuple $r:ident, $t:ident) => {
        $crate::codec::Codec::decode($r)?
    };
    // restore: `$f` is bound to `&mut Field`.
    (restore $r:ident, $f:ident) => {{
        #[allow(unused_imports)]
        use $crate::codec::Restore as _;
        $f.decode_state($r)?
    }};
    (restore $r:ident, $f:ident, skip) => {
        let _ = $f;
    };
    (restore $r:ident, $f:ident, expect) => {
        $crate::codec::expect($f, $r)?
    };
    (restore $r:ident, $f:ident, each) => {{
        #[allow(unused_imports)]
        use $crate::codec::Restore as _;
        $f.iter_mut().try_for_each(|v| v.decode_state($r))?
    }};
    (restore $r:ident, $f:ident, opt_cycle) => {
        *$f = $crate::codec::opt_cycle::decode($r)?
    };
    (restore $r:ident, $f:ident, fixed) => {
        *$f = $crate::codec::fixed::decode($r)?
    };
    (restore $r:ident, $f:ident, tri) => {
        *$f = $crate::codec::tri::decode($r)?
    };
    (restore $r:ident, $f:ident, $how:ident) => {
        $how::restore($f, $r)?
    };
}

/// Wrap `payload` in the standard frame: `magic · version(u32) ·
/// len(u64) · payload · fnv1a(u64)` with the checksum taken over every
/// preceding byte. Both the snapshot and trace containers use this.
pub fn write_framed(magic: [u8; 4], version: u32, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validate a frame written by [`write_framed`] and return its payload.
///
/// # Errors
///
/// [`CodecError::BadMagic`] / [`CodecError::BadVersion`] on a foreign or
/// newer file, [`CodecError::Truncated`] when bytes are missing, and
/// [`CodecError::BadChecksum`] when the trailer disagrees with the
/// content.
pub fn read_framed(magic: [u8; 4], version: u32, bytes: &[u8]) -> Result<&[u8], CodecError> {
    if bytes.len() < 16 {
        return Err(CodecError::Truncated);
    }
    if bytes[..4] != magic {
        return Err(CodecError::BadMagic);
    }
    let got_version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if got_version != version {
        return Err(CodecError::BadVersion(got_version));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let len = usize::try_from(len).map_err(|_| CodecError::Truncated)?;
    let end = 16usize.checked_add(len).ok_or(CodecError::Truncated)?;
    if bytes.len() < end + 8 {
        return Err(CodecError::Truncated);
    }
    let want = u64::from_le_bytes(bytes[end..end + 8].try_into().expect("8-byte slice"));
    if fnv1a(&bytes[..end]) != want {
        return Err(CodecError::BadChecksum);
    }
    Ok(&bytes[16..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        let mut w = ByteWriter::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            w.varint(v);
        }
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        for &v in &vals {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn signed_varint_round_trip() {
        let mut w = ByteWriter::new();
        let vals = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        for &v in &vals {
            w.varint_signed(v);
        }
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        for &v in &vals {
            assert_eq!(r.varint_signed().unwrap(), v);
        }
    }

    #[test]
    fn fixed_width_and_options() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f32(-0.0);
        w.bool(true);
        for v in [None, Some(0), Some(41)] {
            opt_cycle::encode(&v, &mut w);
        }
        tri::encode(&Some(true), &mut w);
        tri::encode(&Some(Some(300usize)), &mut w);
        w.put(&(Some(2u16), vec![1u32, 128], [5u64, 6]));
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(opt_cycle::decode(&mut r).unwrap(), None);
        assert_eq!(opt_cycle::decode(&mut r).unwrap(), Some(0));
        assert_eq!(opt_cycle::decode(&mut r).unwrap(), Some(41));
        assert_eq!(tri::decode::<Option<bool>>(&mut r).unwrap(), Some(true));
        assert_eq!(
            tri::decode::<Option<Option<usize>>>(&mut r).unwrap(),
            Some(Some(300))
        );
        assert_eq!(
            r.get::<(Option<u16>, Vec<u32>, [u64; 2])>().unwrap(),
            (Some(2), vec![1, 128], [5, 6])
        );
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = ByteReader::new(&[0x80]);
        assert_eq!(r.varint(), Err(CodecError::Truncated));
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
    }

    #[test]
    fn framing_detects_tampering() {
        let framed = write_framed(*b"TEST", 3, vec![1, 2, 3, 4]);
        assert_eq!(read_framed(*b"TEST", 3, &framed).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(read_framed(*b"ELSE", 3, &framed), Err(CodecError::BadMagic));
        assert_eq!(
            read_framed(*b"TEST", 4, &framed),
            Err(CodecError::BadVersion(3))
        );
        assert_eq!(
            read_framed(*b"TEST", 3, &framed[..framed.len() - 1]),
            Err(CodecError::Truncated)
        );
        let mut flipped = framed.clone();
        flipped[17] ^= 0xff;
        assert_eq!(
            read_framed(*b"TEST", 3, &flipped),
            Err(CodecError::BadChecksum)
        );
    }

    #[test]
    fn fnv1a_reference_vector() {
        // Well-known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
