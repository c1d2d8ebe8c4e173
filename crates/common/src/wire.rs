//! A small, explicit little-endian wire codec.
//!
//! Both the RPC message bodies and the KV store's on-disk formats are
//! encoded with this codec. We deliberately avoid a serialization
//! framework on the hot path: GekkoFS RPC headers are a handful of
//! integers and one path string, and the paper's throughput numbers
//! (tens of millions of ops/s) leave no room for reflective encoders.
//!
//! All integers are little-endian and fixed-width except where `varint`
//! is used explicitly (length prefixes inside SSTable blocks).
//!
//! [`Encoder`]/[`Decoder`] are the byte level. One level up, [`Wire`]
//! gives a type its single layout — both codec halves from one
//! declaration — and [`wire_struct!`](crate::wire_struct) derives it
//! for a struct in field order; RPC messages and `Metadata` are
//! declared that way rather than as hand-paired encode/decode bodies.

#![deny(clippy::cast_possible_truncation)]

use crate::error::{GkfsError, Result};

/// Append-only encoder producing a `Vec<u8>`.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Start encoding / decoding.
    pub fn new() -> Encoder {
        Encoder { buf: Vec::new() }
    }

    /// With capacity.
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// U8.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// U16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// U32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// U64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// I64.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// LEB128-style unsigned varint (used in block-local encodings
    /// where most values are small).
    pub fn varint(&mut self, mut v: u64) -> &mut Self {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
        self
    }

    /// A collection or buffer length as its wire `u32`. Every count in
    /// the protocol is bounded far below 4 GiB by the MAX_* frame and
    /// batch caps, so a length that does not fit is a logic error worth
    /// stopping — never a value to truncate silently.
    pub fn count(&mut self, n: usize) -> &mut Self {
        self.u32(u32::try_from(n).unwrap_or_else(|_| panic!("wire count {n} does not fit u32")))
    }

    /// Length-prefixed (u32) byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.count(v.len());
        self.buf.extend_from_slice(v);
        self
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Any [`Wire`] value, chained like the scalar writers.
    pub fn put<T: Wire>(&mut self, v: &T) -> &mut Self {
        v.put(self);
        self
    }

    /// `v`'s encoding as a length-prefixed byte string — the bytes
    /// `self.bytes(&v.encode())` writes, encoded in place: the length
    /// word is reserved, `v` is put behind it, and the word is patched.
    pub fn put_prefixed<T: Wire>(&mut self, v: &T) -> &mut Self {
        let at = self.len();
        self.u32(0).put(v);
        let n = self.len() - at - 4;
        let n = u32::try_from(n).unwrap_or_else(|_| panic!("wire count {n} does not fit u32"));
        self.set_u32(at, n)
    }

    /// Overwrite the four bytes at `at` — a placeholder written earlier
    /// — with `v`.
    pub fn set_u32(&mut self, at: usize, v: u32) -> &mut Self {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
        self
    }

    /// Raw bytes with no length prefix (caller knows the framing).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Into vec.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// As slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Cursor-style decoder over a byte slice. Every accessor returns
/// `Corruption` on underrun so malformed frames can never panic a
/// daemon.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Start encoding / decoding.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // `pos <= len` always; compared this way round a hostile `n`
        // (a varint length) cannot overflow the sum.
        if n > self.buf.len() - self.pos {
            return Err(GkfsError::Corruption(format!(
                "decode underrun: need {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// U8.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// U16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// U32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// U64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// I64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err(GkfsError::Corruption("varint overflow".into()));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// An element count (pairs with [`Encoder::count`]) that the bytes
    /// left can hold, each element taking at least `min_len` of them —
    /// a larger one is `Corruption`, so a decoder may size what it
    /// allocates by it. The one wire-count bound: every count read off
    /// a wire or a disk comes through here.
    pub fn count(&mut self, min_len: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_len {
            return Err(GkfsError::Corruption(format!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Length-prefixed byte string (pairs with [`Encoder::bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Length-prefixed UTF-8 string (pairs with [`Encoder::str`]).
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| GkfsError::Corruption(format!("invalid utf8 in frame: {e}")))
    }

    /// Raw bytes with no length prefix.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Byte offset of the cursor from the start of the buffer. Lets a
    /// caller that owns the backing buffer (e.g. a refcounted frame)
    /// turn a just-decoded field into a sub-range of the original
    /// allocation instead of copying it out.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Assert the frame was consumed exactly — trailing garbage is
    /// treated as corruption.
    pub fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(GkfsError::Corruption(format!(
                "{} trailing bytes in frame",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// A value with one wire layout: [`Wire::put`] and [`Wire::get`] are
/// the two halves of the same declaration, so a message cannot list its
/// fields in one order when encoding and another when decoding. Every
/// RPC body, [`crate::Metadata`] and the KV store's merge operands go
/// through this trait; [`wire_struct!`](crate::wire_struct) derives it
/// for a plain struct in field order.
pub trait Wire: Sized {
    /// Fewest bytes any encoded value occupies — what bounds a
    /// wire-supplied element count ([`Decoder::count`]) in `Vec<T>::get`.
    const MIN_LEN: usize;

    /// Append this value's encoding.
    fn put(&self, e: &mut Encoder);

    /// Decode one value from the cursor.
    fn get(d: &mut Decoder<'_>) -> Result<Self>;

    /// This value alone, as a message body.
    ///
    /// The buffer is sized before its first byte: it starts at
    /// [`Wire::MIN_LEN`], which is exact for a fixed-layout value (a
    /// [`crate::Metadata`] record, a size operand) — those never grow —
    /// and nothing at all for a `MIN_LEN` of 0 (every `()` reply).
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(Self::MIN_LEN);
        self.put(&mut e);
        e.into_vec()
    }

    /// Decode a buffer holding exactly one value; trailing bytes are
    /// corruption.
    fn decode(buf: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(buf);
        let v = Self::get(&mut d)?;
        d.finish()?;
        Ok(v)
    }
}

impl Wire for () {
    const MIN_LEN: usize = 0;
    fn put(&self, _: &mut Encoder) {}
    fn get(_: &mut Decoder<'_>) -> Result<()> {
        Ok(())
    }
}

impl Wire for u8 {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Encoder) {
        e.u8(*self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<u8> {
        d.u8()
    }
}

impl Wire for u32 {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Encoder) {
        e.u32(*self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<u32> {
        d.u32()
    }
}

impl Wire for u64 {
    const MIN_LEN: usize = 8;
    fn put(&self, e: &mut Encoder) {
        e.u64(*self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<u64> {
        d.u64()
    }
}

/// One byte, `0` or `1`; any other value is corruption, so that what
/// decodes is what an encoder wrote.
impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Encoder) {
        e.u8(*self as u8);
    }
    fn get(d: &mut Decoder<'_>) -> Result<bool> {
        match d.u8()? {
            flag @ 0..=1 => Ok(flag == 1),
            other => Err(GkfsError::Corruption(format!("byte {other:#04x} where a bool belongs"))),
        }
    }
}

impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<String> {
        Ok(d.str()?.to_string())
    }
}

fn put_slice<T: Wire>(items: &[T], e: &mut Encoder) {
    e.count(items.len());
    for item in items {
        item.put(e);
    }
}

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Encoder) {
        put_slice(self, e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Vec<T>> {
        const { assert!(T::MIN_LEN > 0, "a Vec element must occupy wire bytes") };
        let n = d.count(T::MIN_LEN)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(d)?);
        }
        Ok(v)
    }
}

/// `Vec<T>`'s layout behind a shared, immutable handle.
impl<T: Wire> Wire for std::sync::Arc<[T]> {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Encoder) {
        put_slice(self, e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(Vec::get(d)?.into())
    }
}

/// A presence byte, then the value if present.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Encoder) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Option<T>> {
        Ok(if bool::get(d)? { Some(T::get(d)?) } else { None })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, e: &mut Encoder) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<(A, B)> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// Declare a struct and its [`Wire`] impl at once: the fields cross the
/// wire in declaration order, each through its own `Wire` impl. Docs,
/// derives and visibilities pass through unchanged.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = 0 $( + <$ty as $crate::wire::Wire>::MIN_LEN )*;
            fn put(&self, e: &mut $crate::wire::Encoder) {
                $( $crate::wire::Wire::put(&self.$field, e); )*
            }
            fn get(d: &mut $crate::wire::Decoder<'_>) -> $crate::Result<Self> {
                Ok($name { $( $field: $crate::wire::Wire::get(d)?, )* })
            }
        }
    };
}

/// Vectored frame emitter for byte-stream transports.
///
/// The TCP wire format is `[payload_len: u32 LE][payload][crc32(payload):
/// u32 LE]`. The original transport assembled `payload` into one
/// contiguous `Vec` and issued three `write_all` calls (length, payload,
/// CRC) — for a `ReadChunks` reply that meant memcpy'ing every chunk
/// buffer into a concatenation `Vec` and paying three syscalls per
/// frame. `FrameWriter` instead takes the payload as a list of borrowed
/// segments (e.g. the encoded header prefix plus each chunk buffer),
/// computes the CRC incrementally across them, and hands the kernel one
/// `writev`-shaped `write_vectored` call covering header, every
/// segment, and the trailer. Nothing is concatenated; the bytes go
/// fd→chunk buffer→socket.
///
/// Ownership rule: segments are *borrowed* for the duration of
/// [`FrameWriter::write_to`] only. The caller keeps the buffers alive
/// (and unmodified) until the call returns; the writer never stashes
/// them.
///
/// Partial writes resume from the exact byte reached; `Interrupted` is
/// retried.
pub struct FrameWriter<'a> {
    segments: Vec<&'a [u8]>,
    payload_len: usize,
}

impl<'a> Default for FrameWriter<'a> {
    fn default() -> Self {
        FrameWriter::new()
    }
}

impl<'a> FrameWriter<'a> {
    /// Start an empty frame.
    pub fn new() -> FrameWriter<'a> {
        FrameWriter {
            segments: Vec::with_capacity(4),
            payload_len: 0,
        }
    }

    /// Append one borrowed payload segment. Empty segments are legal
    /// and contribute nothing to the wire image.
    pub fn segment(&mut self, s: &'a [u8]) -> &mut Self {
        if !s.is_empty() {
            self.segments.push(s);
        }
        self.payload_len += s.len();
        self
    }

    /// Total payload length (excludes the 8 framing bytes).
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Emit `[len][segments...][crc]` with vectored writes. The common
    /// case is a single `write_vectored` syscall; short writes resume
    /// from the exact byte reached.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let header = u32::try_from(self.payload_len)
            .map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "frame payload exceeds the u32 length field",
                )
            })?
            .to_le_bytes();
        let mut crc = 0u32;
        for s in &self.segments {
            crc = crate::crc::crc32_update(crc, s);
        }
        let trailer = crc.to_le_bytes();

        // Header, segments, trailer as one slice list plus the iovec
        // array handed to the kernel. Every control frame and every
        // chunk batch of up to INLINE_SEGMENTS pieces keeps both on
        // the stack; only wider gathers pay for two `Vec`s.
        let n = self.segments.len() + 2;
        if self.segments.len() <= INLINE_SEGMENTS {
            let mut slices: [&[u8]; INLINE_SEGMENTS + 2] = [&[]; INLINE_SEGMENTS + 2];
            slices[0] = &header;
            slices[1..n - 1].copy_from_slice(&self.segments);
            slices[n - 1] = &trailer;
            let mut iov = [std::io::IoSlice::new(&[]); INLINE_SEGMENTS + 2];
            write_all_vectored(w, &slices[..n], &mut iov[..n])
        } else {
            let mut slices: Vec<&[u8]> = Vec::with_capacity(n);
            slices.push(&header);
            slices.extend_from_slice(&self.segments);
            slices.push(&trailer);
            let mut iov = vec![std::io::IoSlice::new(&[]); n];
            write_all_vectored(w, &slices, &mut iov)
        }
    }
}

/// Segment count up to which [`FrameWriter::write_to`] builds its
/// slice list and iovec array on the stack.
const INLINE_SEGMENTS: usize = 8;

/// Write every byte of `slices`, in order, with vectored writes. `iov`
/// is caller-provided scratch of the same length. Partial writes are
/// handled by advancing a (slice, offset) cursor and re-pointing the
/// first live iovec at the unwritten rest of its slice
/// (`IoSlice::advance_slices` would consume the array instead);
/// `Interrupted` is retried.
fn write_all_vectored<'s>(
    w: &mut impl std::io::Write,
    slices: &[&'s [u8]],
    iov: &mut [std::io::IoSlice<'s>],
) -> std::io::Result<()> {
    for (v, s) in iov.iter_mut().zip(slices) {
        *v = std::io::IoSlice::new(s);
    }
    let mut idx = 0usize; // current slice
    let mut off = 0usize; // bytes of slices[idx] already written
    while idx < slices.len() {
        iov[idx] = std::io::IoSlice::new(&slices[idx][off..]);
        let mut n = match w.write_vectored(&iov[idx..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "wrote zero bytes of frame",
                ));
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 && idx < slices.len() {
            let rem = slices[idx].len() - off;
            if n < rem {
                off += n;
                n = 0;
            } else {
                n -= rem;
                idx += 1;
                off = 0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.u8(7).u16(1234).u32(0xDEADBEEF).u64(u64::MAX).i64(-42);
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 1234);
        assert_eq!(d.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        d.finish().unwrap();
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        let mut e = Encoder::new();
        e.str("/some/path").bytes(b"\x00\x01\x02").str("");
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(d.str().unwrap(), "/some/path");
        assert_eq!(d.bytes().unwrap(), b"\x00\x01\x02");
        assert_eq!(d.str().unwrap(), "");
        d.finish().unwrap();
    }

    #[test]
    fn varint_roundtrip() {
        let vals = [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut e = Encoder::new();
        for &v in &vals {
            e.varint(v);
        }
        let buf = e.into_vec();
        let mut d = Decoder::new(&buf);
        for &v in &vals {
            assert_eq!(d.varint().unwrap(), v);
        }
        d.finish().unwrap();
    }

    #[test]
    fn varint_compactness() {
        let mut e = Encoder::new();
        e.varint(5);
        assert_eq!(e.len(), 1);
        let mut e = Encoder::new();
        e.varint(u64::MAX);
        assert_eq!(e.len(), 10);
    }

    #[test]
    fn underrun_is_error_not_panic() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(d.u64().is_err());
        let mut d = Decoder::new(&[10, 0, 0, 0]); // claims 10 bytes follow
        assert!(d.bytes().is_err());
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut e = Encoder::new();
        e.u8(1);
        let mut v = e.into_vec();
        v.push(99);
        let mut d = Decoder::new(&v);
        d.u8().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn invalid_utf8_is_corruption() {
        let mut e = Encoder::new();
        e.bytes(&[0xFF, 0xFE]);
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert!(matches!(d.str(), Err(GkfsError::Corruption(_))));
    }

    wire_struct! {
        /// A struct through the macro: fields cross in declaration order.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Sample {
            tag: u8,
            name: String,
            pairs: Vec<(u32, u64)>,
            flag: bool,
            maybe: Option<u64>,
            shared: std::sync::Arc<[u8]>,
        }
    }

    #[test]
    fn wire_struct_is_its_fields_in_order() {
        let v = Sample {
            tag: 7,
            name: "n".into(),
            pairs: vec![(1, 2), (3, 4)],
            flag: true,
            maybe: Some(9),
            shared: vec![5, 6].into(),
        };
        let mut e = Encoder::new();
        e.u8(7).str("n").count(2).u32(1).u64(2).u32(3).u64(4).u8(1).u8(1).u64(9);
        e.count(2).u8(5).u8(6);
        assert_eq!(v.encode(), e.as_slice());
        assert_eq!(Sample::decode(&v.encode()).unwrap(), v);
        assert_eq!(Sample::MIN_LEN, 1 + 4 + 4 + 1 + 1 + 4);
        let none = Sample { maybe: None, ..v };
        assert_eq!(Sample::decode(&none.encode()).unwrap(), none);
        // `decode` owns the finish: one byte too many or too few is an error.
        let mut long = none.encode();
        long.push(0);
        assert!(Sample::decode(&long).is_err());
        long.truncate(long.len() - 2);
        assert!(Sample::decode(&long).is_err());
        assert_eq!(<()>::decode(&[]), Ok(()));
        assert!(<()>::decode(&[0]).is_err());
    }

    #[test]
    fn an_encoding_is_sized_before_its_first_byte() {
        // A fixed layout is allocated once, at its exact length ...
        let record = crate::Metadata::new_file(1).encode();
        assert_eq!((record.len(), record.capacity()), (29, crate::Metadata::MIN_LEN));
        let operand = (7u64, 9u64).encode();
        assert_eq!((operand.len(), operand.capacity()), (16, 16));
        // ... and a MIN_LEN of 0 allocates nothing.
        assert_eq!(().encode().capacity(), 0);
    }

    #[test]
    fn put_prefixed_writes_the_bytes_of_a_copied_encoding() {
        let v = Sample {
            tag: 1,
            name: "prefixed".into(),
            pairs: vec![(2, 3)],
            flag: false,
            maybe: None,
            shared: vec![4].into(),
        };
        let mut inline = Encoder::new();
        inline.u8(9).put_prefixed(&v).put_prefixed(&()).u8(9);
        let mut copied = Encoder::new();
        copied.u8(9).bytes(&v.encode()).bytes(&[]).u8(9);
        assert_eq!(inline.as_slice(), copied.as_slice());
    }

    #[test]
    fn vec_count_is_bounded_by_the_bytes_behind_it() {
        // u32::MAX twelve-byte elements with nothing behind the count:
        // rejected before `with_capacity` could ask for 48 GiB.
        let hostile = u32::MAX.to_le_bytes();
        assert!(matches!(
            Vec::<(u32, u64)>::decode(&hostile),
            Err(GkfsError::Corruption(_))
        ));
        // The bound is exact: n elements of MIN_LEN bytes pass, n + 1 do not.
        let mut e = Encoder::new();
        e.count(2).u64(1).u64(2);
        assert_eq!(Vec::<u64>::decode(e.as_slice()).unwrap(), vec![1, 2]);
        let mut e = Encoder::new();
        e.count(3).u64(1).u64(2);
        assert!(matches!(Vec::<u64>::decode(e.as_slice()), Err(GkfsError::Corruption(_))));
    }

    #[test]
    fn truncated_varint_is_error() {
        let mut d = Decoder::new(&[0x80, 0x80]); // continuation bits, no end
        assert!(d.varint().is_err());
    }

    /// Reference frame image: what the old contiguous
    /// `write_all(len); write_all(payload); write_all(crc)` path put on
    /// the wire. The vectored writer must be byte-identical.
    fn contiguous_frame(payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(payload.len() + 8);
        v.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        v.extend_from_slice(payload);
        v.extend_from_slice(&crate::crc::crc32(payload).to_le_bytes());
        v
    }

    #[test]
    fn frame_writer_matches_contiguous_encoding() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        // Split the payload at a few arbitrary points, including empty
        // and 1-byte segments.
        let splits: &[&[usize]] = &[&[], &[0], &[300], &[1, 2, 150], &[100, 200], &[299]];
        for cuts in splits {
            let mut fw = FrameWriter::new();
            let mut prev = 0;
            for &c in *cuts {
                fw.segment(&payload[prev..c]);
                prev = c;
            }
            fw.segment(&payload[prev..]);
            let mut out = Vec::new();
            fw.write_to(&mut out).unwrap();
            assert_eq!(out, contiguous_frame(&payload), "cuts {cuts:?}");
        }
    }

    #[test]
    fn frame_writer_empty_payload() {
        let mut out = Vec::new();
        FrameWriter::new().write_to(&mut out).unwrap();
        assert_eq!(out, contiguous_frame(b""));
        let mut out = Vec::new();
        let mut fw = FrameWriter::new();
        fw.segment(b"").segment(b"");
        fw.write_to(&mut out).unwrap();
        assert_eq!(out, contiguous_frame(b""));
    }

    /// Writer that accepts at most `cap` bytes per call and fails with
    /// `Interrupted` every third call — exercises the resume cursor.
    struct TrickleWriter {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl std::io::Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "signal",
                ));
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        // No write_vectored override: the default trait impl forwards
        // the first non-empty buffer to `write`, which is exactly the
        // short-write shape we want to torture the cursor with.
    }

    #[test]
    fn frame_writer_survives_short_writes_and_interrupts() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 241) as u8).collect();
        for cap in [1usize, 2, 3, 7, 64, 4096] {
            let mut fw = FrameWriter::new();
            fw.segment(&payload[..333]).segment(&payload[333..334]).segment(&payload[334..]);
            let mut w = TrickleWriter { out: Vec::new(), cap, calls: 0 };
            fw.write_to(&mut w).unwrap();
            assert_eq!(w.out, contiguous_frame(&payload), "cap {cap}");
        }
    }

    #[test]
    fn frame_writer_inline_and_heap_paths_agree() {
        // 8 segments is the last count kept on the stack, 9 the first
        // that allocates; both, and a much wider gather, must put the
        // contiguous image on the wire whole and under short writes.
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 239) as u8).collect();
        for pieces in [INLINE_SEGMENTS, INLINE_SEGMENTS + 1, 40] {
            let mut fw = FrameWriter::new();
            for seg in payload.chunks(payload.len().div_ceil(pieces)) {
                fw.segment(seg);
            }
            let mut out = Vec::new();
            fw.write_to(&mut out).unwrap();
            assert_eq!(out, contiguous_frame(&payload), "{pieces} pieces");
            let mut w = TrickleWriter {
                out: Vec::new(),
                cap: 7,
                calls: 0,
            };
            fw.write_to(&mut w).unwrap();
            assert_eq!(w.out, contiguous_frame(&payload), "{pieces}, trickled");
        }
    }
}
