//! Seeded chaos injection for the RPC layer.
//!
//! GekkoFS trades resilience for speed, so the property the chaos
//! suite defends is **clean failure**: under injected faults every
//! operation either completes or returns a typed error within its
//! deadline — no hangs, no panics, no silent corruption. One seeded
//! draw ([`ChaosConfig`]), two places a fault can live:
//!
//! * [`ChaosConfig::rule`] is the draw as a [`Link`](crate::Link) rule:
//!   faults at the submit/wait boundary of the in-process transport, so
//!   cluster-level chaos tests run fast and fully deterministic.
//! * [`ChaosListener`] is a TCP man-in-the-middle proxy: it frame-
//!   aligns the real wire protocol and drops, delays, duplicates,
//!   corrupts, or resets actual bytes, exercising the CRC check and
//!   the endpoint's auto-reconnect end to end.
//!
//! All decisions come from a seeded splitmix64 stream — never from
//! wall-clock or OS randomness — so a failing seed replays exactly.
//! (Injected *delays* sleep real time, but their occurrence and
//! length are drawn from the seed.)

use crate::link::Fate;
use crate::message::Request;
use crate::transport::tcp::FrameReader;
use gkfs_common::lock::{rank, OrderedMutex};
use gkfs_common::retry::splitmix64;
use gkfs_common::wire::FrameWriter;
use gkfs_common::{GkfsError, Result};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault probabilities (all in `[0, 1]`) plus the PRNG seed.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Request vanishes before reaching the daemon (caller times out).
    pub drop_request: f64,
    /// Daemon applies the op but the reply is lost (caller times out
    /// on the endpoint injector; the proxy swallows the reply frame).
    pub drop_reply: f64,
    /// Request is delivered twice (duplicate delivery on the wire).
    pub duplicate: f64,
    /// Frame payload is corrupted in transit. Post-CRC, this
    /// surfaces as [`GkfsError::Corruption`] and a connection drop,
    /// never as silently wrong data.
    pub corrupt: f64,
    /// Connection reset: in-flight ops fail with a retryable error.
    pub reset: f64,
    /// Extra latency is injected on the path.
    pub delay: f64,
    /// Upper bound for one injected delay.
    pub max_delay: Duration,
}

impl ChaosConfig {
    /// No faults at all — a control configuration.
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_request: 0.0,
            drop_reply: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reset: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
        }
    }

    /// A mildly hostile network: occasional faults of every kind.
    pub fn light(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_request: 0.01,
            drop_reply: 0.01,
            duplicate: 0.02,
            corrupt: 0.02,
            reset: 0.005,
            delay: 0.05,
            max_delay: Duration::from_millis(5),
        }
    }

    /// An actively hostile network: every op has a real chance of
    /// being hit, often more than once across its retries.
    pub fn heavy(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_request: 0.04,
            drop_reply: 0.04,
            duplicate: 0.05,
            corrupt: 0.05,
            reset: 0.02,
            delay: 0.10,
            max_delay: Duration::from_millis(10),
        }
    }

    /// The seeded draw as a [`Link`](crate::Link) rule, counting what
    /// it injects into `stats`. Each submission consumes a fixed number
    /// of draws, so fault placement depends only on the seed and the
    /// submission order. A reset or a corrupt frame refuses the
    /// submission with the typed error the transport would raise (a
    /// corrupted frame never reaches the application: the CRC catches
    /// it); a delay stalls the submitter before the fault.
    pub fn rule(self, stats: Arc<ChaosStats>) -> impl Fn(&Request, u64) -> Fate + Send + Sync {
        let rng = OrderedMutex::new(rank::CHAOS_RNG, self.seed);
        move |_, _| {
            let decision = decide(&self, &mut rng.lock());
            let refuse = |e, count| (Fate::Refuse(e), Some(count));
            let (fate, count) = match decision.fault {
                Fault::None => (Fate::Pass, None),
                Fault::Reset => {
                    refuse(GkfsError::Rpc("chaos: connection reset".into()), &stats.resets)
                }
                Fault::Corrupt => {
                    refuse(GkfsError::Corruption("chaos: corrupted frame".into()), &stats.corruptions)
                }
                Fault::DropRequest => (Fate::LoseRequest, Some(&stats.dropped_requests)),
                Fault::DropReply => (Fate::LoseReply, Some(&stats.dropped_replies)),
                Fault::Duplicate => (Fate::Twice, Some(&stats.duplicates)),
            };
            if let Some(n) = count {
                n.fetch_add(1, Ordering::Relaxed);
            }
            let Some(pause) = decision.delay else { return fate };
            stats.delays.fetch_add(1, Ordering::Relaxed);
            Fate::Stall(pause, Box::new(fate))
        }
    }
}

gkfs_common::counters! {
    /// Counts of injected faults, for assertions that chaos actually ran.
    #[derive(Debug, Default)]
    pub struct ChaosStats {
        /// Requests swallowed.
        pub dropped_requests: AtomicU64,
        /// Replies swallowed.
        pub dropped_replies: AtomicU64,
        /// Requests delivered twice.
        pub duplicates: AtomicU64,
        /// Frames corrupted (endpoint injector: corruption errors).
        pub corruptions: AtomicU64,
        /// Connections reset (endpoint injector: reset errors).
        pub resets: AtomicU64,
        /// Delays injected.
        pub delays: AtomicU64,
    }
}

impl ChaosStats {
    /// Total faults injected so far.
    pub fn total(&self) -> u64 {
        self.fields().iter().map(|&(_, n)| n).sum()
    }
}

/// Advance the splitmix64 stream and return a uniform draw in `[0,1)`.
fn draw(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (splitmix64(*state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One fault decision for an operation passing through an injector.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    DropRequest,
    DropReply,
    Duplicate,
    Corrupt,
    Reset,
}

/// Everything decided under the RNG lock, acted on after it drops —
/// injected sleeps must never run while the lock is held.
struct Decision {
    fault: Fault,
    delay: Option<Duration>,
}

fn decide(cfg: &ChaosConfig, state: &mut u64) -> Decision {
    // One draw per fault class keeps the stream layout fixed, so a
    // given (seed, op index) always yields the same decision no
    // matter which probabilities are zero.
    let reset = draw(state) < cfg.reset;
    let corrupt = draw(state) < cfg.corrupt;
    let drop_req = draw(state) < cfg.drop_request;
    let drop_rep = draw(state) < cfg.drop_reply;
    let dup = draw(state) < cfg.duplicate;
    let delay_hit = draw(state) < cfg.delay;
    let delay_frac = draw(state);

    let fault = if reset {
        Fault::Reset
    } else if corrupt {
        Fault::Corrupt
    } else if drop_req {
        Fault::DropRequest
    } else if drop_rep {
        Fault::DropReply
    } else if dup {
        Fault::Duplicate
    } else {
        Fault::None
    };
    let delay = if delay_hit && cfg.max_delay > Duration::ZERO {
        Some(cfg.max_delay.mul_f64(delay_frac))
    } else {
        None
    };
    Decision { fault, delay }
}

/// Wire-level chaos: a TCP proxy between clients and one daemon that
/// injects faults into real frames. Faults on the client→daemon pump
/// use the request-side probabilities; daemon→client uses the
/// reply-side ones. It frames with the transport's own reader and
/// writer: a frame is received — its checksum checked — by a
/// `FrameReader` and sent on by a [`FrameWriter`]. A corrupt fault
/// flips a payload byte of the encoded frame after its checksum is
/// computed, so the receiver's check must catch it.
pub struct ChaosListener {
    addr: SocketAddr,
    shutting_down: Arc<AtomicBool>,
    accept_thread: OrderedMutex<Option<std::thread::JoinHandle<()>>>,
    chaos_conns: Arc<Proxied>,
    stats: Arc<ChaosStats>,
}

/// The connections being proxied, by serial: the client's stream and
/// the daemon's, kept to sever them.
type Proxied = OrderedMutex<HashMap<u64, [TcpStream; 2]>>;

/// One proxied connection's entry in [`Proxied`], shared by its two
/// pumps: it leaves when the last of them ends.
struct Entry {
    serial: u64,
    conns: Arc<Proxied>,
}

impl Entry {
    /// Shut both streams of the connection down, which ends the other
    /// pump too (nothing to do once severed).
    fn sever(&self) {
        for s in self.conns.lock().get(&self.serial).into_iter().flatten() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for Entry {
    fn drop(&mut self) {
        self.conns.lock().remove(&self.serial);
    }
}

/// Which direction a pump moves bytes; selects the fault classes.
#[derive(Clone, Copy)]
enum PumpDir {
    ClientToDaemon,
    DaemonToClient,
}

/// Send `payload` on as one frame, `copies` times, or corrupted once.
fn forward(
    to: &mut TcpStream,
    payload: &[u8],
    copies: usize,
    corrupt: bool,
) -> std::io::Result<()> {
    let mut fw = FrameWriter::new();
    fw.segment(payload);
    if corrupt {
        let mut wire = Vec::with_capacity(payload.len() + 8);
        fw.write_to(&mut wire)?;
        wire[4 + payload.len() / 2] ^= 0x40;
        return to.write_all(&wire);
    }
    (0..copies).try_for_each(|_| fw.write_to(to))
}

#[allow(clippy::too_many_arguments)]
fn pump(
    from: TcpStream,
    mut to: TcpStream,
    dir: PumpDir,
    cfg: ChaosConfig,
    rng: Arc<OrderedMutex<u64>>,
    stats: Arc<ChaosStats>,
    shutting_down: Arc<AtomicBool>,
    entry: Arc<Entry>,
) {
    let mut frames = FrameReader::new(from);
    while !shutting_down.load(Ordering::SeqCst) {
        // The proxy waits inside a frame as long as it takes.
        let Ok(payload) = frames.next_frame(None) else {
            break;
        };
        let decision = decide(&cfg, &mut rng.lock());
        if let Some(d) = decision.delay {
            stats.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(d);
        }
        let (counter, copies) = match decision.fault {
            Fault::Reset => {
                stats.resets.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Fault::Corrupt => (Some(&stats.corruptions), 1),
            // The draw order is shared; both classes map onto this
            // pump's direction, so both directions lose frames.
            Fault::DropRequest | Fault::DropReply => match dir {
                PumpDir::ClientToDaemon => (Some(&stats.dropped_requests), 0),
                PumpDir::DaemonToClient => (Some(&stats.dropped_replies), 0),
            },
            Fault::Duplicate => (Some(&stats.duplicates), 2),
            Fault::None => (None, 1),
        };
        if let Some(n) = counter {
            n.fetch_add(1, Ordering::Relaxed);
        }
        if forward(&mut to, &payload, copies, decision.fault == Fault::Corrupt).is_err() {
            break;
        }
    }
    entry.sever();
}

impl ChaosListener {
    /// Start a proxy in front of `upstream`. Clients connect to
    /// [`ChaosListener::local_addr`] instead of the daemon directly.
    pub fn spawn(upstream: SocketAddr, cfg: ChaosConfig) -> Result<Arc<ChaosListener>> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| GkfsError::Rpc(format!("chaos bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| GkfsError::Rpc(e.to_string()))?;
        let shutting_down = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let rng = Arc::new(OrderedMutex::new(rank::CHAOS_RNG, cfg.seed));
        let chaos_conns = Arc::new(OrderedMutex::new(rank::CHAOS_CONNS, HashMap::new()));

        let accept = {
            let shutting_down = shutting_down.clone();
            let stats = stats.clone();
            let rng = rng.clone();
            let chaos_conns = chaos_conns.clone();
            std::thread::Builder::new()
                .name("gkfs-chaos-accept".into())
                .spawn(move || {
                    for (serial, conn) in (0..).zip(listener.incoming()) {
                        if shutting_down.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = conn else { continue };
                        client.set_nodelay(true).ok();
                        let Ok(daemon) = TcpStream::connect(upstream) else {
                            // Upstream down: hang up on the client so
                            // it sees a reset, not a hang.
                            continue;
                        };
                        daemon.set_nodelay(true).ok();
                        let (Ok(c2), Ok(d2), Ok(c3), Ok(d3)) = (
                            client.try_clone(),
                            daemon.try_clone(),
                            client.try_clone(),
                            daemon.try_clone(),
                        ) else {
                            continue;
                        };
                        chaos_conns.lock().insert(serial, [c3, d3]);
                        let entry = Arc::new(Entry {
                            serial,
                            conns: Arc::clone(&chaos_conns),
                        });
                        for (from, to, dir, name) in [
                            (client, daemon, PumpDir::ClientToDaemon, "gkfs-chaos-up"),
                            (d2, c2, PumpDir::DaemonToClient, "gkfs-chaos-down"),
                        ] {
                            let cfg = cfg;
                            let rng = rng.clone();
                            let stats = stats.clone();
                            let shutting_down = shutting_down.clone();
                            let entry = Arc::clone(&entry);
                            let _ = std::thread::Builder::new()
                                .name(name.into())
                                .spawn(move || {
                                    pump(from, to, dir, cfg, rng, stats, shutting_down, entry)
                                });
                        }
                    }
                })
                .map_err(|e| GkfsError::Rpc(format!("spawn chaos accept: {e}")))?
        };

        Ok(Arc::new(ChaosListener {
            addr,
            shutting_down,
            accept_thread: OrderedMutex::new(rank::CHAOS_ACCEPT, Some(accept)),
            chaos_conns,
            stats,
        }))
    }

    /// The proxy's listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Injection counters.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Sever every proxied connection (both halves) without stopping
    /// the proxy — a full network blip.
    pub fn sever_connections(&self) {
        for c in self.chaos_conns.lock().drain().flat_map(|(_, pair)| pair) {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Stop the proxy and sever everything.
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        let accept = self.accept_thread.lock().take();
        if let Some(t) = accept {
            let _ = t.join();
        }
        self.sever_connections();
    }
}

impl Drop for ChaosListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::HandlerRegistry;
    use crate::message::Opcode;
    use crate::transport::inproc::RpcServer;
    use crate::message::Response;
    use crate::transport::Endpoint;
    use crate::transport::tcp::{TcpEndpoint, TcpServer};

    fn echo_registry() -> HandlerRegistry {
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |req| Response::ok(req.body));
        reg
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let cfg = ChaosConfig::heavy(42);
        let mut a = cfg.seed;
        let mut b = cfg.seed;
        for _ in 0..1000 {
            let da = decide(&cfg, &mut a);
            let db = decide(&cfg, &mut b);
            assert_eq!(da.fault, db.fault);
            assert_eq!(da.delay, db.delay);
        }
        // And a different seed yields a different fault placement.
        let mut c = 43;
        let differs = (0..1000).any(|_| {
            let mut a2 = a;
            decide(&cfg, &mut a2).fault != decide(&cfg, &mut c).fault
        });
        assert!(differs);
    }

    /// A link under `cfg`'s draw, and the draw's counters.
    fn chaos_link(server: &Arc<RpcServer>, cfg: ChaosConfig) -> (Arc<crate::Link>, Arc<ChaosStats>) {
        let stats = Arc::new(ChaosStats::default());
        (crate::Link::with_rule(server.endpoint(), cfg.rule(stats.clone())), stats)
    }

    #[test]
    fn quiet_config_injects_nothing() {
        let server = RpcServer::new(echo_registry(), 2);
        let (ep, stats) = chaos_link(&server, ChaosConfig::quiet(7));
        for _ in 0..200 {
            ep.call(Request::new(Opcode::Ping, &b"x"[..])).unwrap();
        }
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn chaos_endpoint_faults_are_typed_and_bounded() {
        let server = RpcServer::new(echo_registry(), 2);
        let (ep, stats) = chaos_link(&server, ChaosConfig::heavy(1));
        let mut oks = 0u32;
        let mut errs = 0u32;
        for _ in 0..300 {
            match ep.submit(Request::new(Opcode::Ping, &b"x"[..])) {
                Ok(h) => match h.wait(Duration::from_millis(100)) {
                    Ok(_) => oks += 1,
                    Err(e) => {
                        assert!(e.is_retryable() || matches!(e, GkfsError::Timeout));
                        errs += 1;
                    }
                },
                Err(e) => {
                    assert!(e.is_retryable(), "untyped chaos error: {e:?}");
                    errs += 1;
                }
            }
        }
        assert!(oks > 0, "heavy chaos must still let most ops through");
        assert!(errs > 0, "heavy chaos must inject something in 300 ops");
        assert!(stats.total() > 0);
    }

    #[test]
    fn proxy_passes_traffic_through_quietly() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 2).unwrap();
        let proxy = ChaosListener::spawn(server.local_addr(), ChaosConfig::quiet(9)).unwrap();
        let ep = TcpEndpoint::connect(&proxy.local_addr().to_string()).unwrap();
        for i in 0..50 {
            let body = format!("m{i}");
            let resp = ep
                .call(Request::new(Opcode::Ping, bytes::Bytes::from(body.clone())))
                .unwrap();
            assert_eq!(&resp.body[..], body.as_bytes());
        }
        assert_eq!(proxy.stats().total(), 0);
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn proxy_corruption_is_caught_by_crc_not_delivered() {
        // Corrupt-only chaos: flipped payload bytes must surface as
        // typed errors (Corruption / connection loss / timeout after
        // the conn drops), never as wrong bytes in a reply.
        let mut cfg = ChaosConfig::quiet(11);
        cfg.corrupt = 0.2;
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 2).unwrap();
        let proxy = ChaosListener::spawn(server.local_addr(), cfg).unwrap();
        let ep = TcpEndpoint::connect_with(
            &proxy.local_addr().to_string(),
            crate::transport::EndpointOptions::new().with_timeout(Duration::from_secs(2)),
        )
        .unwrap();
        let mut saw_error = false;
        for i in 0..200 {
            let body = format!("payload-{i}");
            match ep.call(Request::new(Opcode::Ping, bytes::Bytes::from(body.clone()))) {
                Ok(resp) => assert_eq!(&resp.body[..], body.as_bytes(), "corruption leaked"),
                Err(e) => {
                    assert!(
                        e.is_retryable() || matches!(e, GkfsError::Timeout),
                        "untyped error under corruption: {e:?}"
                    );
                    saw_error = true;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        assert!(saw_error, "20% corruption over 200 ops must hit");
        assert!(proxy.stats().corruptions.load(Ordering::Relaxed) > 0);
        proxy.shutdown();
        server.shutdown();
    }
}
