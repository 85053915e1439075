//! One way to serve a TCP listener, shared by the coordinator
//! ([`crate::coordinator::Server`]) and the chaos proxy
//! ([`crate::chaos::ChaosProxy`]): a thread blocked in `accept()` hands
//! each connection to a reusable set of handler threads, and stopping
//! joins all of them (DISTRIBUTED.md "Connections and threads").
//!
//! * **Blocking accept.** Nothing polls. [`Acceptor::stop`] sets the
//!   stop flag and wakes the accept thread with one connect to the bound
//!   port; a listener bound to an unspecified address (`0.0.0.0`, `::`)
//!   is reached over loopback.
//! * **Reuse.** A handler thread that finishes a connection parks. The
//!   accept thread hands the next connection to a parked thread when it
//!   can *reserve* one — an atomic decrement of the idle count at
//!   dispatch, so no thread is ever counted for two connections — and
//!   spawns a thread only when none is left. The set's size is the peak
//!   number of simultaneous connections.
//! * **Park before the last write.** A handler returns its connection's
//!   final frame instead of writing it; the thread parks first, then
//!   writes it. A client that opens its next connection the moment it
//!   reads that frame finds the thread reservable, and reuses it (and
//!   its malloc arena) instead of racing a fresh spawn. The next
//!   connection may be reserved against a thread that is still writing,
//!   so that write is bounded: a peer gets at most the last-write
//!   deadline, in total, to take its frame, or the connection is cut.
//! * **Join.** Stopping shuts down every live connection, so blocked
//!   reads and writes return at once, and joins every handler: no thread
//!   outlives the [`Acceptor`] — unless the stop cannot reach the
//!   listener to wake its accept thread (see [`Acceptor::stop`]).

use crate::proto::{write_frame, Frame};
use crate::DistError;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serves one connection, given with its 0-based accept index, and
/// returns the frame to close it with, if any.
type Handler = dyn Fn(&mut TcpStream, u64) -> Option<Frame> + Send + Sync;

/// A connection on its way to a handler: accept index and stream.
type Conn = (u64, TcpStream);

/// How long the accept thread backs off after a failed `accept()`
/// (descriptor exhaustion persists until something closes), and how
/// long a stop waits between attempts to connect and wake it. A stop
/// request cuts the first wait short.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Attempts a stop makes to wake the accept thread — 1 s of
/// [`ACCEPT_RETRY`]s, for descriptors to free up — before it leaves
/// that thread blocked.
const WAKE_ATTEMPTS: u32 = 100;

#[derive(Default)]
struct Pool {
    stopping: AtomicBool,
    /// Parked handler threads not yet reserved for a connection.
    idle: AtomicUsize,
    /// Connections dispatched so far — the next accept index.
    accepted: AtomicU64,
    /// Handler threads ever spawned.
    #[cfg(test)]
    spawned: AtomicUsize,
    /// Handler threads not yet returned.
    #[cfg(test)]
    running: AtomicUsize,
    /// How long a peer gets, in total, to take its connection's last
    /// frame.
    last_write_within: Duration,
    /// A clone of every accepted connection not yet closed, by accept
    /// index: what [`Acceptor::stop`] shuts down.
    live: Mutex<BTreeMap<u64, TcpStream>>,
    /// Wakes an accept thread backing off after an error.
    wake: Condvar,
}

impl Pool {
    fn live(&self) -> MutexGuard<'_, BTreeMap<u64, TcpStream>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Reserve a parked thread for one connection: a single atomic
    /// decrement, never a load followed by a decision.
    fn reserve(&self) -> bool {
        self.idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// A listener being served: the accept thread and, through it, the
/// handler set. Dropping it is [`Acceptor::stop`].
pub(crate) struct Acceptor {
    addr: SocketAddr,
    pool: Arc<Pool>,
    /// Returns the handler set's join handles when it exits.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Acceptor {
    /// Serve `listener`, running `handler` on a handler-set thread for
    /// every accepted connection. A peer gets `last_write_within`, in
    /// total, to take the frame its handler closes with.
    ///
    /// # Errors
    /// The listener's local address cannot be read, or the accept
    /// thread cannot be started.
    pub(crate) fn spawn(
        listener: TcpListener,
        last_write_within: Duration,
        handler: impl Fn(&mut TcpStream, u64) -> Option<Frame> + Send + Sync + 'static,
    ) -> io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let pool = Arc::new(Pool {
            last_write_within,
            ..Pool::default()
        });
        let accept_pool = Arc::clone(&pool);
        let handler: Arc<Handler> = Arc::new(handler);
        // Made here, not on the accept thread, so that thread allocates
        // nothing before its first connection. A thread's first
        // allocation picks its malloc arena — the one most recently
        // released — and at a restart that is usually the arena a
        // heavy thread of the previous server just left.
        let (tx, rx) = mpsc::channel::<Conn>();
        let rx = Arc::new(Mutex::new(rx));
        let accept = std::thread::Builder::new()
            .spawn(move || accept_loop(&listener, &accept_pool, &handler, tx, &rx))?;
        Ok(Acceptor {
            addr,
            pool,
            accept: Some(accept),
        })
    }

    /// The bound address (`:0` resolved to the ephemeral port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted and handed to a handler thread so far.
    pub(crate) fn accepted(&self) -> u64 {
        self.pool.accepted.load(Ordering::SeqCst)
    }

    /// Stop accepting, shut down every live connection and join every
    /// thread. Idempotent.
    ///
    /// The accept thread, blocked in `accept()`, is woken by a connect to
    /// the bound port. If that connect keeps failing for
    /// [`WAKE_ATTEMPTS`] tries (descriptors exhausted, or a listener this
    /// process cannot reach), the stop still shuts down every live
    /// connection, but leaves the accept thread blocked — and with it the
    /// listener bound and the handler threads unjoined — rather than
    /// hang. The next connection that arrives lets them exit.
    pub(crate) fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.pool.stopping.store(true, Ordering::SeqCst);
        {
            // Cuts an error back-off short; under the lock its wait
            // checks the flag with, so the wake-up cannot be missed.
            let _live = self.pool.live();
            self.pool.wake.notify_all();
        }
        // The accept thread is blocked in accept() (or, after an error,
        // already on its way out): one connect wakes it, it sees the
        // flag and returns the handler set.
        let wake = wake_addr(self.addr);
        let woken = (0..WAKE_ATTEMPTS).any(|_| {
            accept.is_finished() || TcpStream::connect(wake).is_ok() || {
                std::thread::sleep(ACCEPT_RETRY);
                false
            }
        });
        let handlers = if woken {
            accept.join().unwrap_or_default()
        } else {
            Vec::new()
        };
        // Nothing registers a connection any more.
        for stream in self.pool.live().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handler in handlers {
            let _ = handler.join();
        }
    }

    /// A probe reading `(handler threads ever spawned, handler threads
    /// still running)` — also after the acceptor is gone.
    #[cfg(test)]
    pub(crate) fn thread_probe(&self) -> impl Fn() -> (usize, usize) {
        let pool = Arc::clone(&self.pool);
        move || {
            (
                pool.spawned.load(Ordering::SeqCst),
                pool.running.load(Ordering::SeqCst),
            )
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where a connect reaches a listener bound to `addr`.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Accept until stopped; returns the handler set for the joining.
/// Parked threads take connections from `rx`; `tx` drops with this
/// frame, which is what releases them.
fn accept_loop(
    listener: &TcpListener,
    pool: &Arc<Pool>,
    handler: &Arc<Handler>,
    tx: Sender<Conn>,
    rx: &Arc<Mutex<Receiver<Conn>>>,
) -> Vec<JoinHandle<()>> {
    let mut handlers = Vec::new();
    loop {
        let accepted = listener.accept();
        if pool.stopping() {
            return handlers;
        }
        let Ok((stream, _)) = accepted else {
            let live = pool.live();
            if !pool.stopping() {
                let _ = pool.wake.wait_timeout(live, ACCEPT_RETRY);
            }
            continue;
        };
        let _ = stream.set_nodelay(true);
        // Only this thread advances the count, and only once the
        // connection is dispatched: whoever reads `n` knows where the
        // first `n` connections went.
        let index = pool.accepted.load(Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            pool.live().insert(index, clone);
        }
        handlers.extend(dispatch(pool, &tx, rx, handler, (index, stream)));
        pool.accepted.store(index + 1, Ordering::SeqCst);
    }
}

/// Hand `conn` to a parked thread if one can be reserved, else to a new
/// thread, whose handle is returned.
fn dispatch(
    pool: &Arc<Pool>,
    tx: &Sender<Conn>,
    rx: &Arc<Mutex<Receiver<Conn>>>,
    handler: &Arc<Handler>,
    conn: Conn,
) -> Option<JoinHandle<()>> {
    let conn = if pool.reserve() {
        // A receiver lives as long as the accept thread, so the send
        // only fails in theory; then the set grows instead.
        match tx.send(conn) {
            Ok(()) => return None,
            Err(mpsc::SendError(back)) => back,
        }
    } else {
        conn
    };
    let index = conn.0;
    let (thread_pool, thread_rx) = (Arc::clone(pool), Arc::clone(rx));
    let thread_handler = Arc::clone(handler);
    #[cfg(test)]
    pool.running.fetch_add(1, Ordering::SeqCst);
    let spawned = std::thread::Builder::new().spawn(move || {
        serve(&thread_pool, &thread_rx, &*thread_handler, conn);
        #[cfg(test)]
        thread_pool.running.fetch_sub(1, Ordering::SeqCst);
    });
    match spawned {
        Ok(thread) => {
            #[cfg(test)]
            pool.spawned.fetch_add(1, Ordering::SeqCst);
            Some(thread)
        }
        Err(_) => {
            // No thread for it: the closure (and the connection) is
            // already dropped; forget its registration.
            #[cfg(test)]
            pool.running.fetch_sub(1, Ordering::SeqCst);
            pool.live().remove(&index);
            None
        }
    }
}

/// Forgets a connection's registration however its handler ends, so a
/// panicking handler still closes its socket.
struct Registered<'a> {
    pool: &'a Pool,
    index: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.pool.live().remove(&self.index);
    }
}

/// A handler-set thread: serve `first`, then every connection a
/// reservation sends, until the accept thread is gone.
fn serve(pool: &Pool, rx: &Mutex<Receiver<Conn>>, handler: &Handler, first: Conn) {
    let mut next = Some(first);
    while let Some((index, mut stream)) = next {
        let registered = Registered { pool, index };
        let last = handler(&mut stream, index);
        // Park, then write the last frame: a peer that reconnects the
        // moment it reads it finds this thread reservable. A connection
        // reserved meanwhile waits for this write, so it is bounded.
        pool.idle.fetch_add(1, Ordering::SeqCst);
        if let Some(frame) = last {
            let _ = write_within(&mut stream, &frame, pool.last_write_within);
        }
        drop(registered);
        drop(stream);
        next = rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
            .ok();
    }
}

/// Send `frame`, giving the peer at most `within`, in total, to take
/// it. Past that the write fails and the caller drops the connection:
/// the peer reads a frame cut short.
fn write_within(stream: &mut TcpStream, frame: &Frame, within: Duration) -> Result<(), DistError> {
    let mut out = Deadline {
        stream,
        within,
        started: None,
    };
    write_frame(&mut out, frame)
}

/// A socket writer whose every write waits at most until `within` after
/// its first one — a total deadline, where a socket write timeout alone
/// only bounds each wait, and a peer reading a byte at a time never
/// trips it. The clock starts at the first write, so encoding the frame
/// does not count against the peer.
struct Deadline<'a> {
    stream: &'a mut TcpStream,
    within: Duration,
    started: Option<Instant>,
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Wall clock bounds a stalled peer (liveness) and never reaches
        // a frame's bytes.
        #[allow(clippy::disallowed_methods)]
        let started = *self.started.get_or_insert_with(Instant::now);
        let left = self.within.saturating_sub(started.elapsed());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, ErrorCode};

    /// Bytes in connection 0's last frame: far more than the loopback
    /// socket buffers hold, so its thread sits inside that write until
    /// the client reads it.
    const BIG: usize = 8 << 20;

    /// Serve connections that each close with one `Error` frame at once:
    /// `BIG` bytes of detail for connection 0, its index for the rest.
    fn serve_big_first(last_write_within: Duration) -> Acceptor {
        let big = "x".repeat(BIG);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        Acceptor::spawn(listener, last_write_within, move |_, index| {
            Some(Frame::Error {
                code: ErrorCode::Protocol,
                detail: match index {
                    0 => big.clone(),
                    _ => format!("connection {index}"),
                },
            })
        })
        .expect("serve")
    }

    /// A client whose reads give up after a minute — a hang guard only.
    fn connect(acceptor: &Acceptor) -> TcpStream {
        let stream = TcpStream::connect(acceptor.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("hang guard");
        stream
    }

    /// Wait until the server has begun writing to `stream`.
    fn await_first_byte(stream: &TcpStream) {
        let peeked = stream.peek(&mut [0u8; 1]).expect("peek");
        assert_eq!(peeked, 1, "the connection closed before its last write");
    }

    fn detail(stream: &mut TcpStream) -> String {
        match read_frame(stream) {
            Ok(Frame::Error { detail, .. }) => detail,
            other => panic!("expected the closing frame, got {other:?}"),
        }
    }

    /// The two orderings the handler set rests on, pinned without a
    /// clock. Connection 0's thread sits inside its last write. A thread
    /// that parked only after the write would be busy, and connection 1
    /// would get a thread of its own; a dispatch that loaded the idle
    /// count instead of reserving from it would queue connection 2
    /// behind connection 1 for that same blocked thread, and it would
    /// not be served before the read times out.
    #[test]
    fn a_thread_parks_before_its_last_write_and_is_reserved_once() {
        let acceptor = serve_big_first(Duration::from_secs(60));
        let threads = acceptor.thread_probe();

        let mut first = connect(&acceptor);
        await_first_byte(&first);
        let mut second = connect(&acceptor);
        while acceptor.accepted() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(
            threads().0,
            1,
            "the writing thread was parked: the next connection is reserved against it"
        );
        let mut third = connect(&acceptor);
        assert_eq!(detail(&mut third), "connection 2");
        assert_eq!(threads().0, 2, "a reserved thread is reserved once");

        assert_eq!(detail(&mut first).len(), BIG);
        assert_eq!(detail(&mut second), "connection 1");
        drop(acceptor);
        assert_eq!(threads(), (2, 0), "every handler thread is joined");
    }

    /// A peer that never reads its last frame holds the thread, and the
    /// connection reserved against it, only until the last-write
    /// deadline: then its connection is cut mid-frame and the reserved
    /// one is served by that same thread. Without the deadline the
    /// reserved connection would wait for as long as the stalled peer
    /// stays connected — here, past its read timeout.
    #[test]
    fn a_peer_that_stops_reading_its_last_frame_holds_the_thread_only_until_the_deadline() {
        let acceptor = serve_big_first(Duration::from_millis(200));
        let threads = acceptor.thread_probe();

        let mut stalled = connect(&acceptor);
        await_first_byte(&stalled);
        let mut next = connect(&acceptor);
        assert_eq!(detail(&mut next), "connection 1");
        assert_eq!(threads().0, 1, "served by the thread that gave up");
        match read_frame(&mut stalled) {
            Err(DistError::Disconnected {
                mid_frame: true, ..
            }) => {}
            other => panic!("the stalled peer's frame must be cut short, got {other:?}"),
        }
        drop(acceptor);
        assert_eq!(threads(), (1, 0), "every handler thread is joined");
    }
}
