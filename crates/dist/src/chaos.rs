//! Deterministic network chaos: a seeded in-process TCP proxy.
//!
//! Every network failure mode the fleet must survive — writes split at
//! arbitrary byte boundaries, delayed flushes, garbage bytes ahead of a
//! frame, truncation mid-frame, connections dropped at a planned frame
//! count — is generated here from a single seed, through the same RNG
//! construction as the mutation engine's per-range law
//! (`iris_fuzzer::mutation::mutant_rng`): connection `n` of a proxy
//! seeded `s` draws its [`ConnPlan`] from `SmallRng::seed_from_u64(s ^
//! n)`. A failing fleet run names its seed and is re-runnable, not a
//! flake.
//!
//! Destructive faults are budgeted by connection index: only the first
//! [`ChaosOptions::destructive_budget`] connections may draw one, so a
//! reconnecting worker is guaranteed clean connections eventually and
//! the fleet always converges. Benign perturbations (splits, delays)
//! apply to every connection — they must never change behavior.
//!
//! The proxy is transport-level only: it never parses JSON, just the
//! 4-byte length prefixes (to land `DropAtFrame` on exact frame
//! boundaries). The invariant under test is that the *report bytes*
//! are independent of everything the proxy does.

use crate::accept::Acceptor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a relay waits for each upstream address to accept its
/// connection. Unbounded, a connect to an unresponsive upstream would
/// wait out the OS's SYN retries (about two minutes on Linux), and
/// [`ChaosProxy::stop`], which joins the relay, with it.
const UPSTREAM_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// The chaos RNG law, mirroring `mutant_rng`: one independent,
/// replayable stream per connection index.
#[must_use]
pub fn chaos_rng(seed: u64, conn_index: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ conn_index)
}

/// A connection's one destructive fault (at most one per connection;
/// all are applied to the client→upstream direction, where the
/// coordinator's defenses live).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Write this many seeded garbage bytes upstream before the first
    /// forwarded byte — the coordinator must kill the connection, not
    /// the daemon.
    GarbagePrefix {
        /// Garbage byte count.
        len: usize,
    },
    /// Forward only this many upstream-bound bytes, then kill the
    /// connection — truncation lands mid-frame by construction.
    TruncateAfter {
        /// Byte budget before the cut.
        bytes: u64,
    },
    /// Kill the connection once this many complete frames have crossed
    /// upstream — a clean-boundary disconnect at a planned moment.
    DropAtFrame {
        /// Frames to let through first.
        frames: u64,
    },
}

/// The deterministic per-connection plan — a pure function of
/// `(seed, conn_index, destructive_budget)` via [`ConnPlan::derive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnPlan {
    /// Which accepted connection this is (0-based).
    pub conn_index: u64,
    /// Forwarded writes are split into chunks of 1..=`split_max` bytes
    /// at seeded boundaries (both directions; always safe).
    pub split_max: usize,
    /// Seeded pause of up to this many milliseconds before each
    /// forward (both directions; always safe).
    pub delay_ms: u64,
    /// The destructive fault, if this connection drew one.
    pub fault: Option<ConnFault>,
}

impl ConnPlan {
    /// Derive connection `conn_index`'s plan. Connections at or past
    /// `destructive_budget` never draw a fault — the liveness
    /// guarantee.
    #[must_use]
    pub fn derive(seed: u64, conn_index: u64, destructive_budget: u64) -> ConnPlan {
        let mut rng = chaos_rng(seed, conn_index);
        let split_max = rng.gen_range(1usize..=1_500);
        let delay_ms = if rng.gen_bool(0.3) {
            rng.gen_range(1u64..=2)
        } else {
            0
        };
        let fault = if conn_index < destructive_budget {
            match rng.gen_range(0u32..4) {
                0 => Some(ConnFault::GarbagePrefix {
                    len: rng.gen_range(1usize..=64),
                }),
                1 => Some(ConnFault::TruncateAfter {
                    bytes: rng.gen_range(1u64..=200),
                }),
                2 => Some(ConnFault::DropAtFrame {
                    frames: rng.gen_range(1u64..=3),
                }),
                _ => None,
            }
        } else {
            None
        };
        ConnPlan {
            conn_index,
            split_max,
            delay_ms,
            fault,
        }
    }
}

/// Configuration for [`ChaosProxy::start`].
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Bind address (`:0` for ephemeral; see [`ChaosProxy::addr`]).
    pub listen: String,
    /// Where to forward — the real coordinator's address.
    pub upstream: String,
    /// The chaos seed: same seed, same plans.
    pub seed: u64,
    /// How many connections (by index) may draw a destructive fault.
    pub destructive_budget: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_owned(),
            upstream: String::new(),
            seed: 0,
            destructive_budget: 4,
        }
    }
}

/// A running chaos proxy. Dropping it (or [`ChaosProxy::stop`]) closes
/// the listener, ends every relayed connection and joins every thread
/// that served one.
pub struct ChaosProxy {
    conns: Acceptor,
}

impl ChaosProxy {
    /// Bind `opts.listen` and start proxying to `opts.upstream`.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(opts: ChaosOptions) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(&opts.listen)?;
        // A relay closes its connection without a last frame of its own,
        // so there is no last write to bound.
        let conns = Acceptor::spawn(listener, Duration::ZERO, move |client, conn_index| {
            let plan = ConnPlan::derive(opts.seed, conn_index, opts.destructive_budget);
            handle_conn(client, &opts.upstream, opts.seed, plan);
            None
        })?;
        Ok(ChaosProxy { conns })
    }

    /// The bound address workers should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.conns.addr()
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.conns.accepted()
    }

    /// Stop accepting and wind the proxy down: every relayed connection
    /// is cut and every thread joined before this returns.
    pub fn stop(mut self) {
        self.conns.stop();
    }
}

/// Kill both sides of a proxied connection. Idempotent; errors ignored
/// (the peer may already be gone).
fn kill(client: &TcpStream, up: &TcpStream) {
    let _ = client.shutdown(Shutdown::Both);
    let _ = up.shutdown(Shutdown::Both);
}

/// Relay one accepted connection until either side ends, a fault cuts
/// it, or the proxy stops (which shuts `client` down under the relays).
fn handle_conn(client: &TcpStream, upstream: &str, seed: u64, plan: ConnPlan) {
    let mut addrs = upstream.to_socket_addrs().into_iter().flatten();
    let connect = |addr| TcpStream::connect_timeout(&addr, UPSTREAM_CONNECT_TIMEOUT).ok();
    let Some(up) = addrs.find_map(connect) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = up.set_nodelay(true);
    let up = &up;
    // Client→upstream carries the plan's destructive fault; the return
    // direction gets benign splits/delays from an independent stream
    // (a golden-ratio offset keeps the two directions uncorrelated).
    // Whichever direction ends first kills both sockets, which ends the
    // other's blocking read.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let rng = chaos_rng(seed ^ 0x9e37_79b9_7f4a_7c15, plan.conn_index);
            relay(client, up, &plan, plan.fault, rng);
            kill(client, up);
        });
        let rng = chaos_rng(seed ^ 0x517c_c1b7_2722_0a95, plan.conn_index);
        relay(up, client, &plan, None, rng);
        kill(client, up);
    });
}

/// Forward `src` to `dst` under the plan until EOF, error, or fault
/// trigger.
fn relay(
    src: &TcpStream,
    dst: &TcpStream,
    plan: &ConnPlan,
    fault: Option<ConnFault>,
    mut rng: SmallRng,
) {
    let mut src_ref = src;
    let mut buf = vec![0u8; 16 * 1024];
    let mut counter = FrameCounter::default();
    let mut forwarded: u64 = 0;
    let mut garbage_due = matches!(fault, Some(ConnFault::GarbagePrefix { .. }));
    loop {
        let n = match src_ref.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let mut chunk: &[u8] = buf.get(..n).unwrap_or(&[]);
        if garbage_due {
            garbage_due = false;
            if let Some(ConnFault::GarbagePrefix { len }) = fault {
                let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
                if !forward_split(dst, &garbage, plan, &mut rng) {
                    return;
                }
            }
        }
        let mut cut_after = false;
        match fault {
            Some(ConnFault::TruncateAfter { bytes }) => {
                let remaining = bytes.saturating_sub(forwarded);
                if (chunk.len() as u64) >= remaining {
                    chunk = chunk.get(..remaining as usize).unwrap_or(&[]);
                    cut_after = true;
                }
            }
            Some(ConnFault::DropAtFrame { frames }) => {
                if let Some(boundary) = counter.feed_until(chunk, frames) {
                    chunk = chunk.get(..boundary).unwrap_or(&[]);
                    cut_after = true;
                }
            }
            _ => {}
        }
        if plan.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(rng.gen_range(0..=plan.delay_ms)));
        }
        forwarded += chunk.len() as u64;
        if !forward_split(dst, chunk, plan, &mut rng) || cut_after {
            return;
        }
    }
}

/// Write `bytes` to `dst` in seeded 1..=`split_max`-byte pieces. Returns
/// false when the destination is gone.
fn forward_split(dst: &TcpStream, bytes: &[u8], plan: &ConnPlan, rng: &mut SmallRng) -> bool {
    let mut dst_ref = dst;
    let mut rest = bytes;
    while !rest.is_empty() {
        let take = rng.gen_range(1..=plan.split_max.max(1)).min(rest.len());
        let (head, tail) = rest.split_at(take);
        if dst_ref.write_all(head).is_err() {
            return false;
        }
        let _ = dst_ref.flush();
        rest = tail;
    }
    true
}

/// Incremental frame-boundary tracker over the codec's 4-byte LE length
/// prefixes — lets `DropAtFrame` cut exactly after the Nth frame.
#[derive(Debug, Default)]
struct FrameCounter {
    header: [u8; 4],
    header_filled: usize,
    body_remaining: u64,
    complete: u64,
}

impl FrameCounter {
    /// Feed `bytes`; returns the exclusive byte offset at which the
    /// `target`-th frame completes, or `None` if it does not within
    /// these bytes.
    fn feed_until(&mut self, bytes: &[u8], target: u64) -> Option<usize> {
        let mut pos = 0usize;
        while pos < bytes.len() {
            if self.complete >= target {
                return Some(pos);
            }
            if self.body_remaining > 0 {
                let available = (bytes.len() - pos) as u64;
                let take = self.body_remaining.min(available);
                self.body_remaining -= take;
                pos += take as usize;
                if self.body_remaining == 0 {
                    self.complete += 1;
                }
            } else {
                let Some(&b) = bytes.get(pos) else { break };
                if let Some(h) = self.header.get_mut(self.header_filled) {
                    *h = b;
                }
                self.header_filled += 1;
                pos += 1;
                if self.header_filled == 4 {
                    self.body_remaining = u64::from(u32::from_le_bytes(self.header));
                    self.header_filled = 0;
                    if self.body_remaining == 0 {
                        self.complete += 1;
                    }
                }
            }
        }
        (self.complete >= target).then_some(bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame, Frame};

    #[test]
    fn plans_are_pure_functions_of_seed_and_index() {
        for index in 0..32 {
            let a = ConnPlan::derive(0xC4A05, index, 8);
            let b = ConnPlan::derive(0xC4A05, index, 8);
            assert_eq!(a, b);
        }
        // A different seed changes at least one plan.
        assert!((0..32).any(|i| ConnPlan::derive(1, i, 8) != ConnPlan::derive(2, i, 8)));
        // Past the destructive budget, no faults — liveness.
        for index in 8..64 {
            assert_eq!(ConnPlan::derive(0xC4A05, index, 8).fault, None);
        }
    }

    #[test]
    fn frame_counter_lands_on_exact_boundaries() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Heartbeat).unwrap();
        let first_len = wire.len();
        write_frame(
            &mut wire,
            &Frame::Progress {
                done: 1,
                total: 2,
                folded: 0,
            },
        )
        .unwrap();
        // Whole buffer at once: the first frame's boundary is found.
        let mut c = FrameCounter::default();
        assert_eq!(c.feed_until(&wire, 1), Some(first_len));
        // Byte-at-a-time: the boundary lands at the same offset.
        let mut c = FrameCounter::default();
        let mut boundary = None;
        for (i, b) in wire.iter().enumerate() {
            if c.feed_until(std::slice::from_ref(b), 2).is_some() {
                boundary = Some(i + 1);
                break;
            }
        }
        assert_eq!(boundary, Some(wire.len()));
    }

    #[test]
    fn benign_proxying_is_transparent_to_the_codec() {
        // Echo server upstream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { return };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        // Budget 0: splits and delays only — frames must cross intact.
        let proxy = ChaosProxy::start(ChaosOptions {
            upstream: upstream_addr.to_string(),
            seed: 7,
            destructive_budget: 0,
            ..ChaosOptions::default()
        })
        .unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        for round in 0..4u64 {
            let frame = Frame::Progress {
                done: round,
                total: 100,
                folded: round,
            };
            write_frame(&mut conn, &frame).unwrap();
            assert_eq!(read_frame(&mut conn).unwrap(), frame);
        }
        drop(conn);
        proxy.stop();
    }

    /// Stopping the proxy while a relay connects to an upstream that
    /// never answers returns within the connect bound, not after the
    /// OS's SYN retries. The upstream is a listener that never accepts,
    /// with its accept queue filled until connects to it time out:
    /// from then on the kernel drops its SYNs unanswered.
    #[test]
    fn stopping_during_an_unanswered_upstream_connect_returns_promptly() {
        let (done, stopped) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = upstream.local_addr().unwrap();
            let mut queued = Vec::new();
            let full = loop {
                match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                    Ok(stream) => queued.push(stream),
                    Err(e) => break e,
                }
            };
            assert_eq!(full.kind(), io::ErrorKind::TimedOut, "{full}");
            let proxy = ChaosProxy::start(ChaosOptions {
                upstream: addr.to_string(),
                destructive_budget: 0,
                ..ChaosOptions::default()
            })
            .unwrap();
            let _client = TcpStream::connect(proxy.addr()).unwrap();
            while proxy.connections() == 0 {
                std::thread::yield_now();
            }
            #[allow(clippy::disallowed_methods)] // test-local stopwatch
            let t0 = std::time::Instant::now();
            proxy.stop();
            let _ = done.send(t0.elapsed());
            drop((upstream, queued));
        });
        // A hang guard only: an unbounded connect holds `stop` for about
        // two minutes.
        let took = stopped
            .recv_timeout(Duration::from_secs(30))
            .expect("stop waited out the upstream connect");
        assert!(took < Duration::from_secs(10), "stop took {took:?}");
    }
}
