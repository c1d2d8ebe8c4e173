//! RPC message frames.
//!
//! A request carries an opcode, a correlation id, a compact body
//! (encoded with the [`gkfs_common::wire`] codec by the caller), and an
//! optional **bulk** payload. The bulk payload is the analogue of
//! Mercury's bulk handles: large data (write payloads, read results)
//! travels out-of-band from the header so the in-process transport can
//! hand it over by reference (the RDMA stand-in) and the TCP transport
//! can stream it without re-buffering the header.

use bytes::Bytes;
use gkfs_common::wire::{Decoder, Encoder};
use gkfs_common::{GkfsError, Result};

pub use crate::proto::Opcode;

/// One RPC request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Opcode.
    pub opcode: Opcode,
    /// Correlation id, unique per connection.
    pub id: u64,
    /// Compact encoded arguments.
    pub body: Bytes,
    /// Out-of-band bulk payload (write data). Empty when unused.
    pub bulk: Bytes,
}

impl Request {
    /// Build a request with opcode and body (id assigned at send time).
    pub fn new(opcode: Opcode, body: impl Into<Bytes>) -> Request {
        Request {
            opcode,
            id: 0,
            body: body.into(),
            bulk: Bytes::new(),
        }
    }

    /// With bulk.
    pub fn with_bulk(mut self, bulk: impl Into<Bytes>) -> Request {
        self.bulk = bulk.into();
        self
    }

    /// Serialize for a byte-stream transport: the prefix, then the bulk.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = self.encode_prefix();
        v.extend_from_slice(&self.bulk);
        v
    }

    /// Serialize the frame *prefix* only: everything up to and
    /// including the bulk length word, but not the bulk bytes
    /// themselves. The transport hands prefix and bulk to a vectored
    /// frame writer, so a large write payload goes to the socket as a
    /// borrowed slice instead of being concatenated into a fresh `Vec`.
    pub fn encode_prefix(&self) -> Vec<u8> {
        self.encode_prefix_for(self.bulk.len())
    }

    /// [`Request::encode_prefix`] announcing `bulk_len` bulk bytes
    /// instead of `self.bulk.len()` — for a transport that sends the
    /// bulk from borrowed segments ([`crate::Endpoint::submit_gather`])
    /// and so never has it in `self.bulk`.
    pub fn encode_prefix_for(&self, bulk_len: usize) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.body.len() + 32);
        e.u16(self.opcode as u16);
        e.u64(self.id);
        e.bytes(&self.body);
        e.count(bulk_len);
        e.into_vec()
    }

    /// Deserialize from an owned (refcounted) frame buffer. Body and
    /// bulk are taken as sub-ranges of `frame` rather than decoded
    /// field-by-field, so a transport that reads a whole frame into one
    /// buffer can hand large payloads onward without a per-field copy.
    pub fn decode_owned(frame: &Bytes) -> Result<Request> {
        let mut d = Decoder::new(frame);
        let opcode = Opcode::from_u16(d.u16()?)?;
        let id = d.u64()?;
        let (body, bulk) = slice_body_bulk(frame, d)?;
        Ok(Request { opcode, id, body, bulk })
    }
}

/// The tail both frame kinds share — length-prefixed body, then
/// length-prefixed bulk, then nothing — as views into `frame`'s own
/// allocation rather than copies.
fn slice_body_bulk(frame: &Bytes, mut d: Decoder<'_>) -> Result<(Bytes, Bytes)> {
    let body_len = d.bytes()?.len();
    let body_end = d.position();
    let bulk_len = d.bytes()?.len();
    let bulk_end = d.position();
    d.finish()?;
    Ok((
        frame.slice(body_end - body_len..body_end),
        frame.slice(bulk_end - bulk_len..bulk_end),
    ))
}

/// Response status: OK or a [`GkfsError`] wire code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Ok.
    Ok,
    /// Err.
    Err(GkfsError),
}

/// One RPC response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Id.
    pub id: u64,
    /// Status.
    pub status: Status,
    /// Compact encoded results.
    pub body: Bytes,
    /// Out-of-band bulk payload (read data). Empty when unused.
    pub bulk: Bytes,
}

impl Response {
    /// Ok.
    pub fn ok(body: impl Into<Bytes>) -> Response {
        Response {
            id: 0,
            status: Status::Ok,
            body: body.into(),
            bulk: Bytes::new(),
        }
    }

    /// Err.
    pub fn err(e: GkfsError) -> Response {
        Response {
            id: 0,
            status: Status::Err(e),
            body: Bytes::new(),
            bulk: Bytes::new(),
        }
    }

    /// With bulk.
    pub fn with_bulk(mut self, bulk: impl Into<Bytes>) -> Response {
        self.bulk = bulk.into();
        self
    }

    /// Convert into a `Result`, surfacing the remote error.
    pub fn into_result(self) -> Result<Response> {
        match &self.status {
            Status::Ok => Ok(self),
            Status::Err(e) => Err(e.clone()),
        }
    }

    /// Serialize for a byte-stream transport: the prefix, then the bulk.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = self.encode_prefix();
        v.extend_from_slice(&self.bulk);
        v
    }

    /// Serialize the frame *prefix* only — the reply analogue of
    /// [`Request::encode_prefix`]; a `ReadChunks` reply's
    /// scatter-gather buffer is passed to the transport as a borrowed
    /// slice and never re-buffered.
    pub fn encode_prefix(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.body.len() + 32);
        e.u64(self.id);
        match &self.status {
            Status::Ok => {
                e.u32(0);
                e.str("");
            }
            Status::Err(err) => {
                e.u32(err.code());
                e.str(err.detail());
            }
        }
        e.bytes(&self.body);
        e.count(self.bulk.len());
        e.into_vec()
    }

    /// Deserialize from an owned (refcounted) frame buffer, slicing
    /// body and bulk out of `frame` instead of copying field-by-field.
    pub fn decode_owned(frame: &Bytes) -> Result<Response> {
        let mut d = Decoder::new(frame);
        let (id, status) = decode_head(&mut d)?;
        let (body, bulk) = slice_body_bulk(frame, d)?;
        Ok(Response { id, status, body, bulk })
    }

    /// The *prefix* of a reply frame of `payload` bytes — id, status,
    /// body, bulk length — decoded from its first bytes, `head`, and
    /// how many of them it took; the bulk, the rest of the payload, is
    /// left out (`bulk` is empty) for a receiver that lands it where it
    /// belongs. Fails on a prefix `head` does not hold whole, and on one
    /// whose bulk length disagrees with `payload`.
    pub(crate) fn decode_prefix(head: &[u8], payload: usize) -> Result<(Response, usize)> {
        let mut d = Decoder::new(head);
        let (id, status) = decode_head(&mut d)?;
        let body = Bytes::copy_from_slice(d.bytes()?);
        let bulk = d.u32()? as usize;
        let prefix = d.position();
        if prefix + bulk != payload {
            return Err(GkfsError::Corruption(format!(
                "a {payload}-byte reply frame announces {bulk} bulk bytes after a {prefix}-byte prefix"
            )));
        }
        Ok((Response { id, status, body, bulk: Bytes::new() }, prefix))
    }
}

/// A reply's id and status, the front of every reply frame.
fn decode_head(d: &mut Decoder<'_>) -> Result<(u64, Status)> {
    let id = d.u64()?;
    let code = d.u32()?;
    let detail = d.str()?;
    let status = if code == 0 {
        Status::Ok
    } else {
        Status::Err(GkfsError::from_code(code, detail))
    };
    Ok((id, status))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut req = Request::new(Opcode::WriteChunks, &b"body-bytes"[..])
            .with_bulk(Bytes::from(vec![9u8; 1024]));
        req.id = 77;
        let back = Request::decode_owned(&Bytes::from(req.encode())).unwrap();
        assert_eq!(back.opcode, Opcode::WriteChunks);
        assert_eq!(back.id, 77);
        assert_eq!(&back.body[..], b"body-bytes");
        assert_eq!(back.bulk.len(), 1024);
    }

    #[test]
    fn response_roundtrip_ok_and_err() {
        let mut r = Response::ok(&b"result"[..]).with_bulk(Bytes::from_static(b"data"));
        r.id = 5;
        let back = Response::decode_owned(&Bytes::from(r.encode())).unwrap();
        assert_eq!(back.id, 5);
        assert_eq!(back.status, Status::Ok);
        assert_eq!(&back.bulk[..], b"data");

        let mut r = Response::err(GkfsError::InvalidArgument("bad offset".into()));
        r.id = 6;
        let back = Response::decode_owned(&Bytes::from(r.encode())).unwrap();
        match &back.status {
            Status::Err(GkfsError::InvalidArgument(s)) => assert_eq!(s, "bad offset"),
            other => panic!("unexpected status {other:?}"),
        }
        assert!(back.into_result().is_err());
    }

    #[test]
    fn prefix_plus_bulk_is_byte_identical_to_encode() {
        let mut req = Request::new(Opcode::WriteChunks, &b"args"[..])
            .with_bulk(Bytes::from(vec![3u8; 777]));
        req.id = 42;
        let mut framed = req.encode_prefix();
        framed.extend_from_slice(&req.bulk);
        assert_eq!(framed, req.encode());
        // The gather form: same prefix from a request that does not
        // hold the bulk.
        let mut bare = Request::new(Opcode::WriteChunks, &b"args"[..]);
        bare.id = 42;
        assert_eq!(bare.encode_prefix_for(777), req.encode_prefix());

        let mut resp = Response::ok(&b"lens"[..]).with_bulk(Bytes::from(vec![7u8; 123]));
        resp.id = 42;
        let mut framed = resp.encode_prefix();
        framed.extend_from_slice(&resp.bulk);
        assert_eq!(framed, resp.encode());

        // Error responses and empty bulks too.
        let mut resp = Response::err(GkfsError::NotFound);
        resp.id = 9;
        let framed = resp.encode_prefix();
        assert_eq!(framed, resp.encode());
    }

    #[test]
    fn decode_owned_slices_the_frame() {
        // Body and bulk come back as views into the frame's own
        // allocation — nothing is copied out.
        let mut req = Request::new(Opcode::ReadChunks, &b"body"[..])
            .with_bulk(Bytes::from(vec![5u8; 64]));
        req.id = 11;
        let frame = Bytes::from(req.encode());
        let got = Request::decode_owned(&frame).unwrap();
        assert_eq!((got.opcode, got.id), (Opcode::ReadChunks, 11));
        assert_eq!((&got.body[..], &got.bulk[..]), (&b"body"[..], &[5u8; 64][..]));
        assert!(frame.as_ptr_range().contains(&got.body.as_ptr()));
        assert!(frame.as_ptr_range().contains(&got.bulk.as_ptr()));

        let mut resp = Response::ok(&b"res"[..]).with_bulk(Bytes::from(vec![8u8; 32]));
        resp.id = 12;
        let frame = Bytes::from(resp.encode());
        let got = Response::decode_owned(&frame).unwrap();
        assert_eq!((got.id, &got.status), (12, &Status::Ok));
        assert_eq!((&got.body[..], &got.bulk[..]), (&b"res"[..], &[8u8; 32][..]));
        assert!(frame.as_ptr_range().contains(&got.bulk.as_ptr()));
    }

    #[test]
    fn malformed_frames_error() {
        // Truncated frames error instead of panicking.
        assert!(Request::decode_owned(&Bytes::from_static(&[1, 2, 3])).is_err());
        assert!(Response::decode_owned(&Bytes::new()).is_err());
        // Unknown opcode in an otherwise well-formed frame.
        let mut req = Request::new(Opcode::Ping, &b""[..]);
        req.id = 1;
        let mut buf = req.encode();
        buf[0] = 0xFF;
        buf[1] = 0xFF;
        assert!(Request::decode_owned(&Bytes::from(buf)).is_err());
    }
}
