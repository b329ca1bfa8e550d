//! The one front end: listener, acceptor and per-connection frame loop,
//! served through by both `revelio-serve` and `revelio-gateway`.
//!
//! A process supplies a bind address and its dispatch, a function from a
//! decoded request (and the instant it finished arriving) to the answer.
//! Everything between the socket and the dispatch lives here, once:
//!
//! - One acceptor thread blocks in `accept`; each accepted connection gets
//!   its own handler thread, and finished handlers are reaped on the next
//!   accept.
//! - A handler reads with a short socket timeout, polling the stop flag
//!   between frames. A frame that has begun arriving is given
//!   [`READ_TIMEOUT`] to finish, even during shutdown. A frame or request
//!   that does not parse is answered `Malformed`, counted as a protocol
//!   error, and closes the connection.
//! - Once stop is raised only read-only requests (`Stats`,
//!   `FetchExplanation`, `AssembledTrace`, `ListExplanations`) reach the
//!   dispatch; anything else is answered `ShuttingDown` and closes the
//!   connection. A `ShutdownAck` answer raises stop and closes too.
//! - Connections, bytes, requests, their latency and protocol errors are
//!   counted in the front end's [`WireCounters`], which the dispatch also
//!   receives (for its own counters and its `Stats` answer).
//!
//! Stopping joins the threads in the reverse order of their start: the
//! handlers, then the acceptor. A process that starts and stops front ends
//! one after another then hands each new thread the allocator arena its
//! predecessor in the same role freed, so its peak memory does not depend
//! on which thread happened to exit first.

use std::io::Read;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::wire::{
    check_payload, parse_header, write_frame, ErrorKind, Request, Response, WireCounters,
    WireError, HEADER_LEN, MAX_FRAME_LEN, WRITE_TIMEOUT,
};

/// Interval at which blocked reads and [`FrontEnd::wait`] wake up to poll
/// the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Once a frame has begun arriving, the rest of it must arrive within this
/// budget or the connection is dropped. Idle connections (no frame in
/// progress) are never timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// What a process answers each decoded request with, given the instant its
/// frame finished arriving and the front end's counters.
type Dispatch = dyn Fn(Request, Instant, &WireCounters) -> Response + Send + Sync;

struct Shared {
    dispatch: Box<Dispatch>,
    stop: AtomicBool,
    /// The listener's address, connected to once to wake the acceptor.
    addr: SocketAddr,
    counters: WireCounters,
    handlers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Shared {
    /// Raises the stop flag and, the first time, wakes the acceptor.
    fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            wake_acceptor(self.addr);
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn join_handlers(&self) {
        let drained: Vec<_> = match self.handlers.lock() {
            Ok(mut hs) => hs.drain(..).collect(),
            Err(poisoned) => poisoned.into_inner().drain(..).collect(),
        };
        for h in drained {
            let _ = h.join();
        }
    }
}

/// A running listener; dropping it stops and joins every thread it started.
pub struct FrontEnd {
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl FrontEnd {
    /// Binds `addr` and spawns the acceptor (threads are named after
    /// `role`); the front end is accepting once this returns.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or spawning the acceptor.
    pub fn start(
        addr: &str,
        role: &str,
        dispatch: impl Fn(Request, Instant, &WireCounters) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<FrontEnd> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            dispatch: Box::new(dispatch),
            stop: AtomicBool::new(false),
            addr: listener.local_addr()?,
            counters: WireCounters::default(),
            handlers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_name = format!("{role}-conn");
            thread::Builder::new()
                .name(format!("{role}-acceptor"))
                .spawn(move || accept_loop(&listener, &shared, &conn_name))?
        };
        Ok(FrontEnd {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a shutdown has been requested (by [`FrontEnd::stop`] or a
    /// `ShutdownAck` answer).
    pub fn stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Requests shutdown without blocking: stops accepting and tells
    /// handlers to exit at the next frame boundary.
    pub fn stop(&self) {
        self.shared.request_stop();
    }

    /// The wire counters this front end records into.
    pub fn counters(&self) -> &WireCounters {
        &self.shared.counters
    }

    /// Blocks until a shutdown is requested, then joins every thread.
    pub fn wait(&mut self) {
        while !self.stopping() {
            thread::sleep(POLL_INTERVAL);
        }
        self.shutdown();
    }

    /// Raises the stop flag and joins the handlers, then the acceptor.
    /// In-flight requests finish first: a handler exits only at a frame
    /// boundary.
    pub fn shutdown(&mut self) {
        // Already raised by `stop` or a `ShutdownAck`: the acceptor was
        // woken then. Otherwise it stays parked in `accept` (and drops
        // anything it accepts from now on) until the handlers are gone.
        let woken = self.shared.stop.swap(true, Ordering::AcqRel);
        self.shared.join_handlers();
        if !woken {
            wake_acceptor(self.shared.addr);
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // A connection accepted just before the flag rose may have
        // spawned a handler after the first drain.
        self.shared.join_handlers();
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until stop is raised, giving every connection a handler thread.
/// The flag is checked after each `accept` returns, so whoever raises it
/// wakes the pending `accept` with [`wake_acceptor`]; the connection that
/// wakes the loop is dropped unserved.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, conn_name: &str) {
    loop {
        let accepted = listener.accept();
        if shared.stopping() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => spawn_handler(stream, shared, conn_name),
            // Resource exhaustion (EMFILE, …): back off instead of spinning.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Unblocks the acceptor listening on `addr` by connecting to it once; an
/// unspecified bind address (`0.0.0.0` / `::`) is reached over loopback.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn spawn_handler(stream: TcpStream, shared: &Arc<Shared>, conn_name: &str) {
    let c = &shared.counters;
    c.connections_accepted.fetch_add(1, Ordering::Relaxed);
    c.connections_active.fetch_add(1, Ordering::Relaxed);
    let conn_shared = Arc::clone(shared);
    let spawn = thread::Builder::new()
        .name(conn_name.to_owned())
        .spawn(move || {
            handle_connection(stream, &conn_shared);
            conn_shared
                .counters
                .connections_active
                .fetch_sub(1, Ordering::Relaxed);
        });
    match spawn {
        Ok(h) => {
            if let Ok(mut hs) = shared.handlers.lock() {
                // Reap finished handlers so a long-lived process with many
                // short connections does not hoard JoinHandles; dropping a
                // finished handle just detaches an already-dead thread.
                hs.retain(|h| !h.is_finished());
                hs.push(h);
            }
        }
        // Thread spawn failed (resource exhaustion); the stream drops and
        // the peer sees a reset.
        Err(_) => {
            c.connections_active.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Short socket timeouts turn blocking reads into a stop-flag poll loop;
    // `read_frame_cancellable` enforces the real per-frame budget itself.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let c = &shared.counters;

    loop {
        let payload = match read_frame_cancellable(&mut stream, &shared.stop) {
            Ok(Some((payload, frame_len))) => {
                c.bytes_in.fetch_add(frame_len as u64, Ordering::Relaxed);
                payload
            }
            Ok(None) => return,
            Err(e) => return refuse(&mut stream, c, e.to_string()),
        };
        let t0 = Instant::now();
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => return refuse(&mut stream, c, e.to_string()),
        };
        let (response, close_after) = serve(request, shared, t0);
        c.requests.fetch_add(1, Ordering::Relaxed);
        c.request_latency.observe(t0.elapsed());
        if send_response(&mut stream, c, &response).is_err() || close_after {
            return;
        }
    }
}

/// Answers one decoded request; the second value closes the connection
/// after the answer is written.
fn serve(request: Request, shared: &Shared, t0: Instant) -> (Response, bool) {
    if shared.stopping()
        && !matches!(
            request,
            // Read-only requests stay answerable during shutdown.
            Request::Stats
                | Request::FetchExplanation(..)
                | Request::AssembledTrace(_)
                | Request::ListExplanations
        )
    {
        let resp = Response::Error {
            kind: ErrorKind::ShuttingDown,
            message: "shutting down".to_owned(),
        };
        return (resp, true);
    }
    let response = (shared.dispatch)(request, t0, &shared.counters);
    let shutdown = matches!(response, Response::ShutdownAck);
    if shutdown {
        shared.request_stop();
    }
    (response, shutdown)
}

/// Answers a frame that did not parse with `Malformed`, best effort, and
/// counts it. The caller then drops the connection: framing is lost, so
/// nothing later on this stream can be trusted.
fn refuse(stream: &mut TcpStream, counters: &WireCounters, message: String) {
    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let resp = Response::Error {
        kind: ErrorKind::Malformed,
        message,
    };
    let _ = send_response(stream, counters, &resp);
}

fn send_response(
    stream: &mut TcpStream,
    counters: &WireCounters,
    resp: &Response,
) -> Result<(), WireError> {
    let n = write_frame(stream, &resp.encode(), MAX_FRAME_LEN)?;
    counters.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
    Ok(())
}

/// Reads one frame from a stream whose read timeout is the short
/// [`POLL_INTERVAL`], waking between reads to check `stop`.
///
/// Returns `Ok(None)` on a clean end (peer EOF between frames, or `stop`
/// raised while no frame is in progress) and `Ok(Some((payload,
/// frame_len)))` on success, where `frame_len` counts header + payload
/// bytes. A frame that *started* is given [`READ_TIMEOUT`] to finish even
/// after `stop` is raised (the peer paid for the bytes; cutting mid-frame
/// would just produce a protocol error on their side). The header is
/// validated with [`parse_header`] before the payload is read straight
/// into its buffer.
fn read_frame_cancellable(
    stream: &mut TcpStream,
    stop: &AtomicBool,
) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    let mut started: Option<Instant> = None;
    let mut header = [0u8; HEADER_LEN];
    if !fill_polling(stream, &mut header, &mut started, stop)? {
        return Ok(None);
    }
    let (len, expected_crc) = parse_header(&header, MAX_FRAME_LEN)?;
    let mut payload = vec![0u8; len];
    fill_polling(stream, &mut payload, &mut started, stop)?;
    check_payload(&payload, expected_crc)?;
    Ok(Some((payload, HEADER_LEN + len)))
}

/// Fills `buf` from `stream`. `started` marks the frame's first byte: until
/// it arrives, EOF or a raised `stop` is a clean end (`Ok(false)`); after
/// it, the frame must complete within [`READ_TIMEOUT`].
fn fill_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    started: &mut Option<Instant>,
    stop: &AtomicBool,
) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match started {
            Some(t0) if t0.elapsed() > READ_TIMEOUT => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame did not complete within the read timeout",
                )));
            }
            None if stop.load(Ordering::Acquire) => return Ok(false),
            _ => {}
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) if started.is_none() => return Ok(false),
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )));
            }
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                filled += n;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}
