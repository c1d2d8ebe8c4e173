//! One link between a holder and a daemon.
//!
//! A [`Link`] is the only [`Endpoint`] that wraps another. It has two
//! jobs, and every in-process holder of a node goes through one:
//!
//! * **The switch.** Its target can be swapped at runtime
//!   ([`Link::swap`]): a node that dies and is replaced by a fresh
//!   process is re-pointed for every holder — clients and peer daemons —
//!   without re-plumbing a mount. In-flight requests against the old
//!   target complete or fail against it; only new submissions see the
//!   new one. The in-process analogue of a TCP endpoint redialing a
//!   restarted server.
//! * **The rule.** GekkoFS is not fault tolerant (§III-A), so what the
//!   tests defend is *clean failure*: when a daemon misbehaves, clients
//!   get typed errors, never hangs, corruption or panics. An optional
//!   [`Rule`] sees each request — opcode, body, and the link's
//!   submission index — and decides its [`Fate`]. Every scripted
//!   misbehaviour, the seeded chaos draw
//!   ([`ChaosConfig::rule`](crate::ChaosConfig::rule)) included, is one
//!   rule on this one seam.
//!
//! Without a rule a link is a pass-through: one read guard to clone the
//! target out, and the target's own `submit_gather`.

use crate::message::{Request, Response};
use crate::transport::{concat_segments, Endpoint, ReplyHandle};
use gkfs_common::lock::{rank, OrderedMutex, OrderedRwLock};
use gkfs_common::{GkfsError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Duration;

/// Decides each request's [`Fate`] from the request and its submission
/// index on the link (0 for the first). Runs on the submitter's thread,
/// under no lock of the link's.
pub type Rule = Arc<dyn Fn(&Request, u64) -> Fate + Send + Sync>;

/// What a [`Rule`] does to one request: what the target sees, and what
/// the submitter sees.
#[derive(Clone)]
pub enum Fate {
    /// Deliver; the reply comes back as the target sends it.
    Pass,
    /// Fail the submission; the target never sees the request.
    Refuse(GkfsError),
    /// Answer with this response without delivering (an application
    /// error, which nothing retries).
    Answer(Response),
    /// Deliver, then fail the wait at once: the op is applied, and its
    /// reply is lost with a typed cause.
    FailReply(GkfsError),
    /// Lose the request: the wait runs out its timeout.
    LoseRequest,
    /// Deliver and lose the reply: the op is applied, and the wait runs
    /// out its timeout.
    LoseReply,
    /// Deliver twice; the waiter hears the second delivery.
    Twice,
    /// Stall the submitter this long, then meet the fate (a full send
    /// queue: even a nonblocking caller feels it).
    Stall(Duration, Box<Fate>),
    /// Hold the request until released, then deliver it; the waiter
    /// hears its reply.
    HoldRequest(Until),
    /// Deliver at once, and hold the reply until released.
    HoldReply(Until),
    /// Deliver, and rewrite the reply before the waiter sees it.
    Rewrite(fn(&mut Response)),
}

impl Fate {
    /// A rule meeting this fate on every `n`-th request (the `n`-th,
    /// the `2n`-th, …) and passing the others.
    pub fn every(self, n: u64) -> impl Fn(&Request, u64) -> Fate + Send + Sync {
        move |_, i| if (i + 1) % n == 0 { self.clone() } else { Fate::Pass }
    }
}

/// When a held message is released.
#[derive(Clone)]
pub enum Until {
    /// After this long, on a thread of its own.
    Elapsed(Duration),
    /// When the test opens this gate.
    Opened(Arc<Gate>),
}

/// Messages held until [`Gate::open`], in the order they were held.
pub struct Gate {
    held: OrderedMutex<Vec<Box<dyn FnOnce() + Send>>>,
}

impl Gate {
    /// A closed gate holding nothing.
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate { held: OrderedMutex::new(rank::LINK_GATE, Vec::new()) })
    }

    /// How many messages wait at the gate.
    pub fn held(&self) -> usize {
        self.held.lock().len()
    }

    /// Release everything held so far, oldest first, on the calling
    /// thread: a held request is delivered and its reply awaited before
    /// the next is.
    pub fn open(&self) {
        let held = std::mem::take(&mut *self.held.lock());
        held.into_iter().for_each(|release| release());
    }
}

/// A swappable target plus an optional [`Rule`].
pub struct Link {
    slot: OrderedRwLock<(Arc<dyn Endpoint>, Option<Rule>)>,
    submitted: AtomicU64,
    swaps: AtomicU64,
}

impl Link {
    /// A pass-through link to `target`.
    pub fn new(target: Arc<dyn Endpoint>) -> Arc<Link> {
        Arc::new(Link {
            slot: OrderedRwLock::new(rank::LINK_SLOT, (target, None)),
            submitted: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        })
    }

    /// A link to `target` under `rule`.
    pub fn with_rule(
        target: Arc<dyn Endpoint>,
        rule: impl Fn(&Request, u64) -> Fate + Send + Sync + 'static,
    ) -> Arc<Link> {
        let link = Link::new(target);
        link.set_rule(Some(Arc::new(rule)));
        link
    }

    /// Put every later submission under `rule` (`None`: pass-through).
    pub fn set_rule(&self, rule: Option<Rule>) {
        self.slot.write().1 = rule;
    }

    /// Point every holder of this link at `next` (a restarted daemon).
    pub fn swap(&self, next: Arc<dyn Endpoint>) {
        self.slot.write().0 = next;
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests submitted so far: the next one's index.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// The target and the rule, cloned out: no transport work and no
    /// rule runs under the slot's guard (GKL002).
    fn current(&self) -> (Arc<dyn Endpoint>, Option<Rule>) {
        let slot = self.slot.read();
        (Arc::clone(&slot.0), slot.1.clone())
    }
}

impl Endpoint for Link {
    fn submit(&self, req: Request) -> Result<ReplyHandle> {
        let (target, rule) = self.current();
        let index = self.submitted.fetch_add(1, Ordering::Relaxed);
        match rule {
            None => target.submit(req),
            Some(rule) => meet(rule(&req, index), target, req),
        }
    }

    fn submit_gather(&self, mut req: Request, segments: &[&[u8]]) -> Result<ReplyHandle> {
        let (target, rule) = self.current();
        if rule.is_some() {
            // A rule sees the whole request, bulk included.
            req.bulk = concat_segments(segments);
            return self.submit(req);
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        target.submit_gather(req, segments)
    }

    fn timeout(&self) -> Duration {
        self.current().0.timeout()
    }

    fn reconnects(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed) + self.current().0.reconnects()
    }
}

/// Carry out `fate` for `req` against `target`. Where a fate loses a
/// reply, dropping the target's handle *is* the fault, and it gives the
/// handle's pending slot back.
fn meet(fate: Fate, target: Arc<dyn Endpoint>, req: Request) -> Result<ReplyHandle> {
    Ok(match fate {
        Fate::Pass => target.submit(req)?,
        Fate::Refuse(e) => return Err(e),
        Fate::Answer(resp) => ReplyHandle::ready(Ok(resp)),
        Fate::FailReply(e) => {
            drop(target.submit(req)?);
            ReplyHandle::ready(Err(e))
        }
        Fate::LoseRequest => ReplyHandle::lost(),
        Fate::LoseReply => {
            drop(target.submit(req)?);
            ReplyHandle::lost()
        }
        Fate::Twice => {
            drop(target.submit(req.clone()));
            target.submit(req)?
        }
        Fate::Stall(pause, then) => {
            std::thread::sleep(pause);
            meet(*then, target, req)?
        }
        Fate::HoldRequest(until) => hold(until, move || target.call(req)),
        Fate::HoldReply(until) => {
            let answer = target.call(req);
            hold(until, move || answer)
        }
        Fate::Rewrite(rewrite) => {
            let mut answer = target.call(req);
            if let Ok(resp) = &mut answer {
                rewrite(resp);
            }
            ReplyHandle::ready(answer)
        }
    })
}

/// A handle that hears `answer()` once `until` releases it.
fn hold(until: Until, answer: impl FnOnce() -> Result<Response> + Send + 'static) -> ReplyHandle {
    let (tx, rx) = sync_channel(1);
    let release = move || drop(tx.send(answer()));
    match until {
        Until::Elapsed(after) => drop(std::thread::spawn(move || {
            std::thread::sleep(after);
            release();
        })),
        Until::Opened(gate) => gate.held.lock().push(Box::new(release)),
    }
    ReplyHandle::pending(rx)
}
