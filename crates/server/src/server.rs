//! The TCP front end: a `std::net::TcpListener` accept loop feeding a
//! bounded worker pool of persistent-connection handlers.
//!
//! Design points, in order of importance:
//!
//! * **Keep-alive** — a worker owns a connection for its whole life and
//!   serves a bounded sequence of requests off it (HTTP/1.1 persistent
//!   connections, `Connection: close` honored). An analyst's
//!   edit→iterate loop reuses one connection instead of paying a TCP
//!   handshake per request.
//! * **Timeouts** — every accepted stream gets read/write timeouts the
//!   moment a worker dequeues it. An idle keep-alive connection is
//!   closed silently when the read timeout expires; a peer that stalls
//!   *mid-request* (the slowloris pattern) is answered `408` and
//!   dropped. Either way a stalled client occupies a worker for at most
//!   one timeout, never forever.
//! * **Backpressure** — connections queue into a `sync_channel` bounded
//!   at [`ServerConfig::queue_depth`]. When every worker is busy and the
//!   queue is full, new connections are handed to a single long-lived
//!   shedder thread that answers `503` — deterministic shedding without
//!   spawning a thread per shed connection (a sustained burst would
//!   otherwise create unbounded threads). If even the shedder's small
//!   queue overflows, the connection is dropped outright; both outcomes
//!   are counted in [`ServerStats`].
//! * **Session eviction** — with [`ServerConfig::session_ttl`] set, a
//!   housekeeping thread evicts sessions idle past the TTL through
//!   [`SessionManager::evict_idle`](helix_core::SessionManager::evict_idle),
//!   so abandoned analysts cannot pin session state forever.
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] flips an atomic
//!   flag, wakes the accept loop with a loopback connection, drops the
//!   queue senders, and joins every thread; requests already dequeued
//!   finish and flush before their worker exits.
//! * **Isolation** — a worker that fails to write a response just logs
//!   and moves on; a broken client cannot take a worker down.

use crate::http::{ParseError, RequestReader, Response};
use crate::routes::Api;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The most request bytes a worker reads and discards after an early
/// reject, so the close that follows does not reset the connection.
const DRAIN_MAX_BYTES: u64 = 1 << 20;

/// The longest a worker spends on that drain, all reads together.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections. Under keep-alive a worker is
    /// pinned by its connection until the peer closes, the idle timeout
    /// expires, or the per-connection request bound is hit, so this also
    /// caps concurrently persistent analysts; the default is 8.
    pub workers: usize,
    /// Hard cap on request body size; larger bodies are answered `413`
    /// without being read. Default 1 MiB.
    pub max_body_bytes: usize,
    /// Read timeout on accepted streams: the longest a worker waits for
    /// (the rest of) a request before giving the connection up. Default
    /// 5 s.
    pub read_timeout: Duration,
    /// Write timeout on accepted streams, so a peer that stops reading
    /// cannot wedge a worker mid-response. Default 5 s.
    pub write_timeout: Duration,
    /// Requests served over one connection before the server closes it
    /// (announced with `Connection: close`), bounding how long a single
    /// analyst can monopolize a worker. Default 256.
    pub max_requests_per_connection: usize,
    /// Accepted connections queued ahead of the workers before shedding
    /// begins. Default 16.
    pub queue_depth: usize,
    /// Shed connections queued for the `503` shedder thread before
    /// overflow connections are dropped without a response. Default 32.
    pub shed_queue_depth: usize,
    /// When set, sessions idle longer than this are evicted from the
    /// `SessionManager` by a housekeeping thread (touch-on-access: any
    /// routed request against a session resets its clock). Default
    /// `None` — sessions live until explicitly closed.
    pub session_ttl: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_requests_per_connection: 256,
            queue_depth: 16,
            shed_queue_depth: 32,
            session_ttl: None,
        }
    }
}

/// Monotonic serving counters, shared by the accept loop, the workers,
/// the shedder, and the eviction thread; readable through
/// [`ServerHandle::stats`] and served at `GET /stats`.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections dequeued by a worker.
    pub connections: AtomicU64,
    /// Requests parsed and routed.
    pub requests: AtomicU64,
    /// Connections answered `503` by the shedder.
    pub shed: AtomicU64,
    /// Connections dropped because even the shed queue was full.
    pub shed_dropped: AtomicU64,
    /// Sessions evicted by the idle-session housekeeping thread.
    pub sessions_evicted: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections dequeued by a worker.
    pub connections: u64,
    /// Requests parsed and routed.
    pub requests: u64,
    /// Connections answered `503` by the shedder.
    pub shed: u64,
    /// Connections dropped because even the shed queue was full.
    pub shed_dropped: u64,
    /// Sessions evicted by the idle-session housekeeping thread.
    pub sessions_evicted: u64,
}

impl ServerStats {
    /// Copies every counter at once.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            shed_dropped: self.shed_dropped.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
        }
    }
}

/// A running server: accept thread + worker pool + shedder (+ optional
/// session evictor). Obtain one with [`Server::bind`]; stop it with
/// [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stop_signal: Arc<(Mutex<bool>, Condvar)>,
    stats: Arc<ServerStats>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shed_thread: Option<JoinHandle<()>>,
    evict_thread: Option<JoinHandle<()>>,
}

/// Namespace for [`Server::bind`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the
    /// accept loop, worker pool, shedder, and (if configured) session
    /// evictor, and returns immediately.
    pub fn bind(
        addr: impl ToSocketAddrs,
        api: Api,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_signal = Arc::new((Mutex::new(false), Condvar::new()));
        let stats = Arc::new(ServerStats::default());
        let mut api = api;
        api.attach_server_stats(Arc::clone(&stats));
        let api = Arc::new(api);

        let (tx, rx) = sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let conn_config = ConnConfig {
            max_body_bytes: config.max_body_bytes,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            max_requests_per_connection: config.max_requests_per_connection.max(1),
        };
        let worker_threads = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let api = Arc::clone(&api);
                let stats = Arc::clone(&stats);
                let conn_config = conn_config.clone();
                std::thread::Builder::new()
                    .name(format!("helix-serve-{i}"))
                    .spawn(move || worker_loop(&rx, &api, &conn_config, &stats))
                    .expect("spawn worker")
            })
            .collect();

        // One long-lived shedder drains overflow connections: bounded
        // threads under a sustained burst, unlike a thread per shed.
        let (shed_tx, shed_rx) = sync_channel::<TcpStream>(config.shed_queue_depth.max(1));
        let shed_thread = {
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("helix-shed".into())
                .spawn(move || shed_loop(&shed_rx, &stats))
                .expect("spawn shed loop")
        };

        let evict_thread = config.session_ttl.map(|ttl| {
            let api = Arc::clone(&api);
            let stats = Arc::clone(&stats);
            let signal = Arc::clone(&stop_signal);
            std::thread::Builder::new()
                .name("helix-evict".into())
                .spawn(move || evict_loop(&api, ttl, &signal, &stats))
                .expect("spawn evict loop")
        });

        let accept_stop = Arc::clone(&stop);
        let shed_stats = Arc::clone(&stats);
        let accept_thread = std::thread::Builder::new()
            .name("helix-accept".into())
            .spawn(move || accept_loop(&listener, &tx, &shed_tx, &accept_stop, &shed_stats))
            .expect("spawn accept loop");

        Ok(ServerHandle {
            addr,
            stop,
            stop_signal,
            stats,
            accept_thread: Some(accept_thread),
            workers: worker_threads,
            shed_thread: Some(shed_thread),
            evict_thread,
        })
    }
}

/// Per-connection handling parameters (the subset of [`ServerConfig`]
/// the workers need).
#[derive(Debug, Clone)]
struct ConnConfig {
    max_body_bytes: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    max_requests_per_connection: usize,
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shed_tx: &SyncSender<TcpStream>,
    stop: &AtomicBool,
    stats: &ServerStats,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Persistent accept errors (EMFILE under fd exhaustion)
                // would otherwise busy-spin this loop at 100% CPU;
                // backing off briefly lets in-flight work release fds.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            // The shutdown wake-up connection (or a late client); the
            // senders drop when this function returns, draining the
            // workers and the shedder.
            return;
        }
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => {
                // Every worker busy and the queue full: shed load now
                // rather than queueing unbounded latency. The 503 write
                // (and the drain that keeps the close from RST-destroying
                // it) must not block the accept loop, so it is handed to
                // the single shedder thread; if even that queue is full,
                // the connection is dropped unanswered — bounded threads
                // beat a polite 503 under a burst that deep.
                match shed_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        stats.shed_dropped.fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// The shedder thread: answers each overflow connection with `503` and
/// a bounded drain. Exits when the accept loop drops its sender.
fn shed_loop(rx: &Receiver<TcpStream>, stats: &ServerStats) {
    while let Ok(stream) = rx.recv() {
        stats.shed.fetch_add(1, Ordering::Relaxed);
        shed_connection(&stream);
    }
}

/// Answers one shed connection with `503` and drains what the peer was
/// still sending (bounded in bytes and time) so the close cannot RST
/// the response out of the peer's receive buffer.
fn shed_connection(stream: &TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let resp = Response::json(
        503,
        r#"{"error":"server at capacity, retry shortly","status":503}"#,
    );
    if resp.write_to(stream).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut remainder = std::io::Read::take(stream, 64 * 1024);
    let _ = io::copy(&mut remainder, &mut io::sink());
}

/// The idle-session housekeeping thread: wakes every quarter TTL
/// (bounded to [50 ms, 1 s]) and evicts sessions idle past the TTL.
/// A condvar-backed stop signal lets shutdown interrupt the wait
/// immediately instead of sleeping it out.
fn evict_loop(api: &Api, ttl: Duration, signal: &(Mutex<bool>, Condvar), stats: &ServerStats) {
    let step = (ttl / 4).clamp(Duration::from_millis(50), Duration::from_secs(1));
    let (lock, condvar) = signal;
    loop {
        let mut stopped = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*stopped {
            let (guard, timeout) = condvar
                .wait_timeout(stopped, step)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            stopped = guard;
            if timeout.timed_out() {
                break;
            }
        }
        if *stopped {
            return;
        }
        drop(stopped);
        let evicted = api.manager().evict_idle(ttl);
        if !evicted.is_empty() {
            stats
                .sessions_evicted
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        }
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    api: &Api,
    config: &ConnConfig,
    stats: &ServerStats,
) {
    loop {
        // Hold the lock only for the dequeue; handling happens unlocked.
        let stream = {
            let rx = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            rx.recv()
        };
        let Ok(stream) = stream else {
            return; // Sender dropped: shutdown.
        };
        handle_connection(stream, api, config, stats);
    }
}

/// Serves one connection to completion: a bounded keep-alive loop of
/// read → route → respond, with timeouts armed before the first read.
fn handle_connection(stream: TcpStream, api: &Api, config: &ConnConfig, stats: &ServerStats) {
    stats.connections.fetch_add(1, Ordering::Relaxed);
    // Arm the timeouts before touching the stream: without them an idle
    // or trickling client pins this worker for as long as it pleases.
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    // Disable Nagle: responses are single small writes, and on a reused
    // connection the kernel would otherwise hold them for the peer's
    // delayed ACK — a ~40ms stall per keep-alive request.
    let _ = stream.set_nodelay(true);
    let mut reader = RequestReader::new(&stream, config.max_body_bytes);
    let mut served = 0usize;
    loop {
        let request = match reader.read() {
            Ok(request) => request,
            Err(ParseError::Closed) => return,
            Err(ParseError::TimedOut { mid_request: false }) => {
                // An idle keep-alive connection ran out its grace period;
                // closing it frees the worker for the queue.
                return;
            }
            Err(err) => {
                // An early reject (400/408/413) may leave request bytes
                // in flight. Closing with unread bytes makes the kernel
                // reset the connection, which can destroy the response
                // before the peer reads it. So after answering, drain what
                // the peer is still sending — a 413's declared body less
                // what the reader already buffered, else up to the
                // peer's close — bounded in bytes and time, then close.
                let unread = match err {
                    ParseError::BodyTooLarge { declared, .. } => {
                        declared.saturating_sub(reader.buffered()) as u64
                    }
                    _ => DRAIN_MAX_BYTES,
                };
                if Api::parse_failure(&err).write_with(&stream, false).is_ok() {
                    drain(&stream, unread.min(DRAIN_MAX_BYTES));
                }
                return;
            }
        };
        served += 1;
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let close = request.close || served >= config.max_requests_per_connection;
        let response = api.handle(&request);
        if let Err(err) = response.write_with(&stream, !close) {
            // The client hung up mid-response; nothing to salvage.
            eprintln!("helix-server: failed to write response: {err}");
            return;
        }
        if close {
            return;
        }
    }
}

/// Reads and discards up to `bytes` from `stream`, until the peer closes
/// or [`DRAIN_DEADLINE`] passes.
fn drain(mut stream: &TcpStream, mut bytes: u64) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut buf = [0u8; 8192];
    while bytes > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        let want = bytes.min(buf.len() as u64) as usize;
        match stream.read(&mut buf[..want]) {
            Ok(0) | Err(_) => return,
            Ok(n) => bytes -= n as u64,
        }
    }
}

impl ServerHandle {
    /// The bound address (resolves the actual port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the serving counters (connections, requests, sheds,
    /// evictions) — what the load harness reads its shed rate from.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Stops accepting, drains the worker pool, and joins every thread.
    /// In-flight requests complete; queued-but-unhandled connections are
    /// still served before the workers exit. Idempotent.
    pub fn shutdown(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        {
            let (lock, condvar) = &*self.stop_signal;
            let mut stopped = lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *stopped = true;
            condvar.notify_all();
        }
        // Wake the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(shed) = self.shed_thread.take() {
            let _ = shed.join();
        }
        if let Some(evict) = self.evict_thread.take() {
            let _ = evict.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
