//! # stamp-codec — binary (de)serialization for durable artifacts
//!
//! The durable artifact store (`stamp batch --store DIR`) persists
//! phase results across processes, which requires every cacheable
//! artifact to round-trip **exactly** — bit-identical fixpoints, no
//! float-text detours, no map-iteration nondeterminism. This crate
//! provides the shared encoding substrate:
//!
//! - [`Enc`] / [`Dec`]: a little-endian byte writer/reader pair with
//!   length-prefixed variable-size fields,
//! - the [`Codec`] trait with impls for primitives, tuples, `String`,
//!   `Option`, `Vec`, `BTreeMap`, `BTreeSet`, `HashMap` (hash maps are
//!   serialized in sorted key order so equal maps encode equal bytes),
//! - [`crc32`], the IEEE CRC-32 used to checksum on-disk records.
//!
//! Decoding is total: malformed input yields a [`CodecError`], never a
//! panic — the disk store treats any decode failure as a cache miss and
//! recomputes. Collection lengths are validated against the remaining
//! input before allocating, so a corrupt length prefix cannot trigger a
//! huge allocation.
//!
//! Each artifact crate implements [`Codec`] for its own types next to
//! their definitions (private fields stay private); the on-disk format
//! is versioned centrally by the store's schema fingerprint, so there
//! are no per-type version tags.
//!
//! # Example
//!
//! ```
//! use stamp_codec::{Codec, Dec, Enc};
//!
//! let mut e = Enc::new();
//! (42u32, "hello".to_string()).enc(&mut e);
//! let bytes = e.into_bytes();
//! let mut d = Dec::new(&bytes);
//! let back = <(u32, String)>::dec(&mut d)?;
//! assert_eq!(back, (42, "hello".to_string()));
//! assert!(d.finish().is_ok());
//! # Ok::<(), stamp_codec::CodecError>(())
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;
use std::hash::Hash;

/// Error produced when bytes do not decode to a valid value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// A tag, length or invariant check failed; names what was being
    /// decoded.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated input"),
            CodecError::Invalid(what) => write!(f, "invalid encoding of {what}"),
        }
    }
}

impl Error for CodecError {}

/// A byte writer. All integers are little-endian; variable-length
/// fields are length-prefixed by their container's impl.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a collection length (`u32`; artifacts never approach 2^32
    /// elements).
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in `u32`.
    pub fn len_prefix(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("collection too large for artifact encoding"));
    }
}

/// A byte reader over an encoded buffer; the mirror of [`Enc`].
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a collection length and validates it against the remaining
    /// input, assuming every element occupies at least `min_elem_bytes`
    /// — a corrupt length prefix fails here instead of allocating.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Invalid("length prefix"));
        }
        Ok(n)
    }

    /// Asserts that every byte was consumed (trailing garbage is an
    /// error: it means the schema changed without a version bump).
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes"))
        }
    }
}

/// Exact binary round-trip: `dec(enc(x)) == x` for every valid value.
pub trait Codec: Sized {
    /// Appends this value's encoding.
    fn enc(&self, e: &mut Enc);
    /// Decodes one value, consuming exactly what [`Codec::enc`] wrote.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or invalid input; never panics.
    fn dec(d: &mut Dec) -> Result<Self, CodecError>;
}

impl Codec for u8 {
    fn enc(&self, e: &mut Enc) {
        e.u8(*self);
    }
    fn dec(d: &mut Dec) -> Result<u8, CodecError> {
        d.u8()
    }
}

impl Codec for u32 {
    fn enc(&self, e: &mut Enc) {
        e.u32(*self);
    }
    fn dec(d: &mut Dec) -> Result<u32, CodecError> {
        d.u32()
    }
}

impl Codec for u64 {
    fn enc(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn dec(d: &mut Dec) -> Result<u64, CodecError> {
        d.u64()
    }
}

impl Codec for i32 {
    fn enc(&self, e: &mut Enc) {
        e.u32(*self as u32);
    }
    fn dec(d: &mut Dec) -> Result<i32, CodecError> {
        Ok(d.u32()? as i32)
    }
}

impl Codec for usize {
    fn enc(&self, e: &mut Enc) {
        e.u64(*self as u64);
    }
    fn dec(d: &mut Dec) -> Result<usize, CodecError> {
        usize::try_from(d.u64()?).map_err(|_| CodecError::Invalid("usize"))
    }
}

impl Codec for bool {
    fn enc(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }
    fn dec(d: &mut Dec) -> Result<bool, CodecError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }
}

impl Codec for String {
    fn enc(&self, e: &mut Enc) {
        e.len_prefix(self.len());
        e.raw(self.as_bytes());
    }
    fn dec(d: &mut Dec) -> Result<String, CodecError> {
        let n = d.len_prefix(1)?;
        let bytes = d.raw(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Option<T>, CodecError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        e.len_prefix(self.len());
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Vec<T>, CodecError> {
        let n = d.len_prefix(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<(A, B), CodecError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
        self.2.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<(A, B, C), CodecError> {
        Ok((A::dec(d)?, B::dec(d)?, C::dec(d)?))
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn enc(&self, e: &mut Enc) {
        e.len_prefix(self.len());
        for (k, v) in self {
            k.enc(e);
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<BTreeMap<K, V>, CodecError> {
        let n = d.len_prefix(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::dec(d)?;
            let v = V::dec(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn enc(&self, e: &mut Enc) {
        e.len_prefix(self.len());
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<BTreeSet<T>, CodecError> {
        let n = d.len_prefix(1)?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::dec(d)?);
        }
        Ok(out)
    }
}

/// Hash maps encode in sorted key order, so equal maps produce equal
/// bytes regardless of insertion history or hasher seed.
impl<K: Codec + Ord + Hash, V: Codec> Codec for HashMap<K, V> {
    fn enc(&self, e: &mut Enc) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        e.len_prefix(entries.len());
        for (k, v) in entries {
            k.enc(e);
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<HashMap<K, V>, CodecError> {
        let n = d.len_prefix(2)?;
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::dec(d)?;
            let v = V::dec(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Encodes one value standalone.
pub fn encode_value<T: Codec>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.enc(&mut e);
    e.into_bytes()
}

/// Decodes one value standalone, requiring every byte to be consumed.
///
/// # Errors
///
/// [`CodecError`] on truncated, invalid or over-long input.
pub fn decode_value<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Dec::new(bytes);
    let v = T::dec(&mut d)?;
    d.finish()?;
    Ok(v)
}

/// The IEEE CRC-32 (reflected, polynomial `0xedb88320`) of `bytes` —
/// the per-record checksum of the on-disk artifact log, computed on
/// every append and every read of a record.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Slicing-by-8: `t[k][b]` is the CRC of byte `b` followed by `k`
    // zero bytes, so one step folds eight input bytes. The tables cost
    // 8 KiB and are built once.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    });
    let byte = |crc: u32, k: usize, shift: u32| t[k][((crc >> shift) & 0xff) as usize];
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = byte(lo, 7, 0)
            ^ byte(lo, 6, 8)
            ^ byte(lo, 5, 16)
            ^ byte(lo, 4, 24)
            ^ byte(hi, 3, 0)
            ^ byte(hi, 2, 8)
            ^ byte(hi, 1, 16)
            ^ byte(hi, 0, 24);
    }
    for &b in chunks.remainder() {
        crc = byte(crc ^ u32::from(b), 0, 0) ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_value(&v);
        let back: T = decode_value(&bytes).expect("decodes");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-1i32);
        roundtrip(i32::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX as u64 as usize);
        roundtrip("héllo wörld".to_string());
        roundtrip(String::new());
    }

    #[test]
    fn containers_round_trip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u8));
        roundtrip(None::<String>);
        roundtrip((1u32, "x".to_string()));
        roundtrip((1u8, 2u32, 3u64));
        roundtrip(BTreeMap::from([(1u32, "a".to_string()), (2, "b".to_string())]));
        roundtrip(BTreeSet::from([5u32, 1, 9]));
        roundtrip(HashMap::from([(9u64, 1u8), (4, 2), (7, 3)]));
    }

    #[test]
    fn hash_maps_encode_deterministically() {
        // Same entries, different insertion orders: identical bytes.
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in 0..100u32 {
            a.insert(k, k * 2);
        }
        for k in (0..100u32).rev() {
            b.insert(k, k * 2);
        }
        assert_eq!(encode_value(&a), encode_value(&b));
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let bytes = encode_value(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r: Result<Vec<u64>, _> = decode_value(&bytes[..cut]);
            assert!(r.is_err(), "accepted a {cut}-byte prefix of {} bytes", bytes.len());
        }
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        // A Vec claiming u32::MAX elements with a 4-byte body.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        e.u32(0);
        let r: Result<Vec<u8>, _> = decode_value(&e.into_bytes());
        assert_eq!(r, Err(CodecError::Invalid("length prefix")));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_value(&42u32);
        bytes.push(0);
        assert_eq!(decode_value::<u32>(&bytes), Err(CodecError::Invalid("trailing bytes")));
    }

    #[test]
    fn invalid_tags_error() {
        assert_eq!(decode_value::<bool>(&[2]), Err(CodecError::Invalid("bool")));
        assert_eq!(decode_value::<Option<u8>>(&[9, 0]), Err(CodecError::Invalid("option tag")));
        let bad_utf8 = {
            let mut e = Enc::new();
            e.len_prefix(2);
            e.raw(&[0xff, 0xfe]);
            e.into_bytes()
        };
        assert_eq!(decode_value::<String>(&bad_utf8), Err(CodecError::Invalid("utf-8 string")));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn crc32_agrees_with_the_bitwise_definition() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { 0xedb8_8320 ^ (crc >> 1) } else { crc >> 1 };
                }
            }
            !crc
        }
        let bytes: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        // Every length and alignment around the 8-byte step.
        for start in 0..8 {
            for end in start..bytes.len() {
                assert_eq!(crc32(&bytes[start..end]), bitwise(&bytes[start..end]));
            }
        }
    }
}
