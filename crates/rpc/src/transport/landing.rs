//! Where a chunk read's bytes land: the caller's result buffer, as
//! Mercury's bulk transfer moves a read straight into the memory the
//! client exposes (§III).
//!
//! A `ReadChunks` reply is a body — per op, the bytes it returns and
//! whether its daemon holds the chunk at all ([`ReadChunksResp`]) — and
//! a bulk, the ops' bytes back to back. The body arrives before the
//! bulk, so a receiver that knows each op's *window* — its share of the
//! result — can put every run of the bulk where it belongs as it comes
//! off the socket: a TCP waiter reading its own reply does
//! ([`ReplyHandle::land_within`](crate::ReplyHandle::land_within)). A
//! reply that reached its waiter as a buffer — read by another thread,
//! or over the in-process transport — is copied in by the same plan,
//! and the copy counted.

use crate::message::{Response, Status};
use crate::proto::{ReadChunksResp, Wire};
use gkfs_common::{GkfsError, Result};
use std::mem::MaybeUninit;

/// The windows of one chunk-read batch, one per op in op order — each
/// as many bytes as its op asks, not necessarily adjacent to the next
/// — and what each op has resolved to so far. Op `i` of a reply lands
/// its `lens[i]` bytes at the front of window `i` unless the reply
/// flags it absent or an earlier reply resolved it; those bytes go
/// nowhere. Only initialised bytes are ever written to a window.
pub struct Landing<'w> {
    windows: Vec<&'w mut [MaybeUninit<u8>]>,
    /// Per op: how many bytes at the front of its window a reply
    /// resolved it with; `None` while none has.
    landed: Vec<Option<usize>>,
    /// Bytes copied into the windows out of a reply's bulk.
    copied: u64,
}

/// How a reply's bulk splits: runs of bytes in bulk order, each landing
/// at the front of an op's window (`Some(op)`) or dropped.
pub(crate) type Runs = Vec<(usize, Option<usize>)>;

impl<'w> Landing<'w> {
    /// A batch whose op `i` lands in `windows[i]`.
    pub fn new(windows: Vec<&'w mut [MaybeUninit<u8>]>) -> Landing<'w> {
        Landing { landed: vec![None; windows.len()], windows, copied: 0 }
    }

    /// Per op: the bytes a reply resolved it with, `None` while no reply
    /// has.
    pub fn landed(&self) -> &[Option<usize>] {
        &self.landed
    }

    /// Whether every op is resolved.
    pub fn done(&self) -> bool {
        self.landed.iter().all(Option::is_some)
    }

    /// Bytes copied into the windows from a reply's bulk — a reply
    /// that was not received straight into them.
    pub fn copied(&self) -> u64 {
        self.copied
    }

    /// Zero-fill every window past what landed in it — holes and short
    /// tails, which no byte reached — and return how many bytes that
    /// was. Every byte of every window is initialised after.
    pub fn zero_fill(&mut self) -> u64 {
        let mut zeros = 0;
        for (window, landed) in self.windows.iter_mut().zip(&self.landed) {
            let tail = &mut window[landed.unwrap_or(0)..];
            tail.fill(MaybeUninit::new(0));
            zeros += tail.len() as u64;
        }
        zeros
    }

    /// The plan for a reply whose body is `body` and whose bulk is
    /// `bulk` bytes. A reply that disagrees with the batch — a count of
    /// lens other than the ops', an op longer than its window, an
    /// absent op that carries bytes, lens that do not sum to the bulk —
    /// is an `Rpc` error and lands nothing.
    pub(crate) fn plan(&self, body: &[u8], bulk: usize) -> Result<Runs> {
        let reply = ReadChunksResp::decode(body)?;
        let ops = self.windows.len();
        if reply.lens.len() != ops {
            return Err(GkfsError::Rpc(format!("read reply has {} lens for {ops} ops", reply.lens.len())));
        }
        let mut runs = Vec::with_capacity(ops);
        let mut total = 0usize;
        for (i, (&len, &missing)) in reply.lens.iter().zip(&reply.missing).enumerate() {
            let window = self.windows[i].len();
            let len = usize::try_from(len).ok().filter(|&len| len <= window).ok_or_else(|| {
                GkfsError::Rpc(format!("read reply overruns op {i}: {len} bytes for a {window}-byte window"))
            })?;
            if missing && len > 0 {
                return Err(GkfsError::Rpc(format!("read reply carries {len} bytes for absent op {i}")));
            }
            total += len;
            runs.push((len, (!missing && self.landed[i].is_none()).then_some(i)));
        }
        if total != bulk {
            return Err(GkfsError::Rpc(format!("read reply's lens sum to {total}, its bulk is {bulk} bytes")));
        }
        Ok(runs)
    }

    /// The front `n` bytes of op `op`'s window (`n` within it: a plan's
    /// run).
    pub(crate) fn window(&mut self, op: usize, n: usize) -> &mut [MaybeUninit<u8>] {
        &mut self.windows[op][..n]
    }

    /// `runs` landed whole: each resolves its op.
    pub(crate) fn commit(&mut self, runs: &Runs) {
        for &(n, op) in runs {
            if let Some(op) = op {
                self.landed[op] = Some(n);
            }
        }
    }

    /// Land a reply that arrived as a buffer: its bulk copied into the
    /// windows by the reply's plan, and counted; handed back with its
    /// bulk taken. A reply with an error status is handed back as it
    /// is, and lands nothing.
    pub(crate) fn absorb(&mut self, mut resp: Response) -> Result<Response> {
        if resp.status != Status::Ok {
            return Ok(resp);
        }
        let runs = self.plan(&resp.body, resp.bulk.len())?;
        let mut at = 0;
        for &(n, op) in &runs {
            if let Some(op) = op {
                self.window(op, n).write_copy_of_slice(&resp.bulk[at..at + n]);
                self.copied += n as u64;
            }
            at += n;
        }
        self.commit(&runs);
        resp.bulk = bytes::Bytes::new();
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::body_of;
    use bytes::Bytes;

    fn reply(lens: &[u64], missing: &[bool], bulk: &[u8]) -> Response {
        let body = body_of(&ReadChunksResp { lens: lens.to_vec(), missing: missing.to_vec() });
        Response::ok(body).with_bulk(Bytes::copy_from_slice(bulk))
    }

    #[test]
    fn a_copied_reply_fills_its_windows_and_leaves_the_rest_to_the_zero_fill() {
        let mut out = [MaybeUninit::new(7u8); 10];
        let (a, b) = out.split_at_mut(4);
        let mut land = Landing::new(vec![b, a]);
        // Op 0 (the window at 4..10) is short, op 1 (0..4) absent.
        let resp = land.absorb(reply(&[3, 0], &[false, true], b"abc")).unwrap();
        assert!(resp.bulk.is_empty());
        assert_eq!(land.landed(), &[Some(3), None]);
        assert!(!land.done());
        // The next chain member answers op 1; op 0's bytes go nowhere.
        land.absorb(reply(&[2, 4], &[false, false], b"zzwxyz")).unwrap();
        assert_eq!(land.landed(), &[Some(3), Some(4)]);
        assert_eq!((land.copied(), land.zero_fill()), (7, 3));
        drop(land);
        // SAFETY: every byte of `out` was initialised at its creation,
        // and a landing writes initialised bytes only.
        assert_eq!(unsafe { out.assume_init_ref() }, b"wxyzabc\0\0\0");
    }

    #[test]
    fn a_reply_that_disagrees_with_its_batch_lands_nothing() {
        let mut out = [MaybeUninit::new(0u8); 8];
        let mut land = Landing::new(out.chunks_mut(4).collect());
        for (lens, missing, bulk) in [
            (&[4u64][..], &[false][..], &b"abcd"[..]),
            (&[5, 0], &[false, false], b"abcde"),
            (&[2, 2], &[false, true], b"abcd"),
            (&[2, 2], &[false, false], b"abc"),
        ] {
            let err = land.absorb(reply(lens, missing, bulk)).unwrap_err();
            assert!(matches!(err, GkfsError::Rpc(_)), "{lens:?} {missing:?}: {err:?}");
        }
        assert_eq!((land.landed(), land.copied()), (&[None, None][..], 0));
        // An error status lands nothing and is not an error here.
        let refused = land.absorb(Response::err(GkfsError::NotFound)).unwrap();
        assert_eq!(refused.status, Status::Err(GkfsError::NotFound));
    }
}
