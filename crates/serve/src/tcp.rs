//! TCP front-end: a readiness-driven event loop speaking the framed
//! binary protocol of [`crate::proto`], forwarding each request to a
//! [`ServeHandle`].
//!
//! One blocking acceptor thread sets `TCP_NODELAY`, flips the socket
//! nonblocking, and round-robins it to one of N event-loop **shards**
//! (see [`crate::evloop`]); each shard multiplexes thousands of
//! connections over a [`crate::poller::Poller`] (epoll on Linux, poll(2)
//! fallback) and hands decoded rank requests to the worker pool via
//! [`ServeHandle::rank_async`] — connection count no longer costs a thread
//! apiece, and a single process holds 10k+ concurrent connections.
//!
//! ## Failure containment
//!
//! A torn or malformed frame poisons exactly one connection: the handler
//! replies with a typed error where it still can (garbage inside a
//! well-formed frame), or closes that connection (missing or bad hello,
//! corrupt length prefix, mid-frame EOF) — the accept loop and every other
//! connection are untouched. [`TcpRankClient`] is the other half of the
//! story: it reconnects on transport failures with capped, jittered
//! exponential backoff and resends the (idempotent) request under the same
//! id, within an optional overall deadline.

use crate::evloop::{self, Inbound, Mailbox};
use crate::poller::{wake_pair, Backend};
use crate::proto::{
    self, decode_hello, encode_hello, read_frame, AdminCommand, FrameError, BINARY_VERSION,
    HELLO_LEN,
};
use crate::server::{RankRequest, RankResponse, ServeError, ServeHandle};
use ls_fault::{Backoff, Injector, NoFaults};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the event-loop front-end. The defaults suit tests and
/// small machines; `LS_EVLOOP_SHARDS` overrides the shard count without a
/// code change.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Event-loop shard (thread) count, minimum 1.
    pub shards: usize,
    /// Poller backend; `None` picks the platform default (epoll on Linux,
    /// honoring the `LS_POLLER=poll` override).
    pub backend: Option<Backend>,
    /// Per-connection unsent-bytes bound above which reading pauses
    /// (write backpressure).
    pub high_water: usize,
    /// Resume reading once the unsent backlog drains below this.
    pub low_water: usize,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        let shards = std::env::var("LS_EVLOOP_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1)
                    .min(4)
            })
            .max(1);
        TcpOptions {
            shards,
            backend: None,
            high_water: 1 << 20,
            low_water: 64 << 10,
        }
    }
}

/// A running TCP front-end.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    mailboxes: Vec<Arc<Mailbox>>,
}

impl TcpServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and start accepting connections,
    /// forwarding requests to `handle`.
    pub fn start(handle: ServeHandle, bind: impl ToSocketAddrs) -> io::Result<TcpServer> {
        TcpServer::start_with(handle, bind, Arc::new(NoFaults))
    }

    /// [`TcpServer::start`] with a fault injector wrapped around every
    /// connection's reads (`serve.tcp.read`) and writes (`serve.tcp.write`).
    /// Production passes [`NoFaults`]; chaos tests inject torn frames and
    /// I/O errors on the server side of the wire.
    pub fn start_with(
        handle: ServeHandle,
        bind: impl ToSocketAddrs,
        injector: Arc<dyn Injector>,
    ) -> io::Result<TcpServer> {
        TcpServer::start_opts(handle, bind, injector, TcpOptions::default())
    }

    /// Full-control constructor: explicit shard count, poller backend, and
    /// backpressure watermarks.
    pub fn start_opts(
        handle: ServeHandle,
        bind: impl ToSocketAddrs,
        injector: Arc<dyn Injector>,
        opts: TcpOptions,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut shards = Vec::new();
        let mut mailboxes = Vec::new();
        for shard in 0..opts.shards.max(1) {
            let (waker, wake_rx) = wake_pair()?;
            let mailbox = Arc::new(Mailbox::new(shard, waker));
            mailboxes.push(mailbox.clone());
            let handle = handle.clone();
            let injector = injector.clone();
            let stop = stop.clone();
            let opts = opts.clone();
            shards.push(
                std::thread::Builder::new()
                    .name(format!("ls-serve-loop-{shard}"))
                    .spawn(move || {
                        evloop::shard_loop(shard, handle, injector, mailbox, wake_rx, stop, opts)
                    })?,
            );
        }
        let acceptor = {
            let stop = stop.clone();
            let mailboxes = mailboxes.clone();
            std::thread::Builder::new()
                .name("ls-serve-accept".into())
                .spawn(move || accept_loop(listener, &mailboxes, &stop))?
        };
        Ok(TcpServer {
            addr,
            stop,
            acceptor: Some(acceptor),
            shards,
            mailboxes,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every shard, and join all front-end threads.
    /// Responses already being computed by the worker pool are dropped at
    /// the wire (their connections close); pair with
    /// [`crate::Server::shutdown`] to drain the pipeline itself.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for mb in &self.mailboxes {
            mb.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

fn accept_loop(listener: TcpListener, mailboxes: &[Arc<Mailbox>], stop: &AtomicBool) {
    let mut rr = 0usize;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        ls_obs::counter("serve.tcp.connections").incr();
        // NODELAY before the socket ever carries a frame: request/response
        // frames are far smaller than an MTU, and Nagle would otherwise
        // serialize them behind delayed ACKs on a real network (on
        // loopback the effect is not measurable; see EXPERIMENTS.md).
        let _ = stream.set_nodelay(true);
        mailboxes[rr % mailboxes.len()].push(Inbound::Conn(stream));
        rr = rr.wrapping_add(1);
    }
}

/// Reconnect-and-resend policy for [`TcpRankClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call, connect included (minimum 1).
    pub attempts: u32,
    /// Delay schedule between attempts (capped exponential, jittered).
    pub backoff: Backoff,
    /// Overall per-call budget: once it would be exceeded (sleep included),
    /// remaining attempts are abandoned. `None` = attempts alone bound the
    /// call.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            backoff: Backoff::new(Duration::from_millis(10), Duration::from_millis(500), 0),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — the pre-resilience client behavior.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// A reply decoder from [`crate::proto`]: payload → (echoed id, answer).
type DecodeReply<T> = fn(&[u8]) -> Result<(u64, T), FrameError>;

/// A blocking client for the framed protocol, with transparent reconnect.
///
/// Every connection opens with the `LSBP` hello and requires the server's
/// ack at [`BINARY_VERSION`]. A missing or bad ack is a transport failure
/// like any other: it carries the [`FrameError`] text and goes through the
/// retry policy.
///
/// Ranking requests are idempotent (same input, same bit-identical answer),
/// so a transport failure — connection refused, torn frame, server restart
/// — is handled by reconnecting and resending the same request under the
/// same id, per the configured [`RetryPolicy`]. Typed server answers
/// (including server-side errors like `Overloaded`) are final and never
/// retried here: backpressure decisions belong to the caller.
pub struct TcpRankClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    next_id: u64,
}

impl TcpRankClient {
    /// Connect to a [`TcpServer`] with no retries (fail-fast).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpRankClient> {
        TcpRankClient::connect_with(addr, RetryPolicy::none())
    }

    /// Connect with an explicit retry policy. The initial connection and
    /// hello are attempted eagerly so misconfiguration fails at
    /// construction.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> io::Result<TcpRankClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let mut client = TcpRankClient {
            addr,
            policy,
            conn: None,
            next_id: 1,
        };
        client.ensure_conn()?;
        Ok(client)
    }

    fn ensure_conn(&mut self) -> io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        greet(&mut stream)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some((reader, stream));
        ls_obs::counter("serve.client.connects").incr();
        Ok(())
    }

    /// One wire round trip: send `frame` (an encoded request carrying
    /// `id`), read one reply, decode it and check it answers `id`. Any
    /// `Err` means the connection state is suspect; the caller drops it.
    fn round_trip<T>(&mut self, id: u64, frame: &[u8], decode: DecodeReply<T>) -> io::Result<T> {
        self.ensure_conn()?;
        let (reader, writer) = self.conn.as_mut().expect("connection just established");
        // Encoders emit prefix+payload in one buffer: a single write_all.
        writer.write_all(frame)?;
        let payload = read_frame(reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
        })?;
        let (resp_id, value) =
            decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if resp_id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {resp_id} does not match request id {id}"),
            ));
        }
        Ok(value)
    }

    /// A round trip that is never retried: a transport failure drops the
    /// connection and surfaces as [`ServeError::Transport`].
    fn round_trip_once<T>(
        &mut self,
        id: u64,
        frame: &[u8],
        decode: DecodeReply<T>,
    ) -> Result<T, ServeError> {
        self.round_trip(id, frame, decode).map_err(|e| {
            self.conn = None;
            ServeError::Transport(e.to_string())
        })
    }

    /// Send one request and block for its response, reconnecting and
    /// resending on transport failures per the [`RetryPolicy`].
    pub fn rank(&mut self, req: &RankRequest) -> Result<RankResponse, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        // Propagate the caller's ambient trace, or mint a fresh root when
        // telemetry is on and no trace is active — the id the server echoes
        // into its spans and exemplars either way. Untraced when obs is off,
        // keeping the wire bytes identical to the pre-tracing protocol.
        let trace = ls_obs::TraceContext::current()
            .or_else(|| ls_obs::enabled().then(ls_obs::TraceContext::root));
        let _guard = trace.as_ref().map(ls_obs::TraceContext::attach);
        let _span = trace
            .is_some()
            .then(|| ls_obs::span("serve.client.request"));
        // Resends carry the same bytes under the same id.
        let frame = proto::encode_binary_request(id, req, trace.as_ref());
        let started = Instant::now();
        let attempts = self.policy.attempts.max(1);
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let delay = self.policy.backoff.delay(attempt - 1);
                if let Some(budget) = self.policy.deadline {
                    // Deadline-aware: a sleep that lands past the budget is
                    // wasted latency — give up with the last error instead.
                    if started.elapsed() + delay >= budget {
                        break;
                    }
                }
                std::thread::sleep(delay);
                ls_obs::counter("serve.client.retries").incr();
            }
            match self.round_trip(id, &frame, proto::decode_binary_response) {
                Ok(result) => return result,
                Err(e) => {
                    // Connection state unknown: drop it so the next attempt
                    // starts on a fresh socket (no stale frames possible).
                    self.conn = None;
                    last_err = Some(e);
                }
            }
        }
        let detail = last_err.map_or_else(|| "no attempts made".to_string(), |e| e.to_string());
        Err(ServeError::Transport(format!(
            "gave up after {attempts} attempt(s): {detail}"
        )))
    }

    /// Submit one feedback record to the server's online-learning WAL and
    /// block for its crash-durable log sequence number. Feedback frames are
    /// answered inline by the connection handler and are not retried here:
    /// unlike rank traffic, a resend after a transport failure could append
    /// the record twice (the ack may have been lost, not the append).
    pub fn feedback(&mut self, rec: &ls_core::FeedbackRecord) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = proto::encode_binary_feedback_request(id, rec);
        self.round_trip_once(id, &frame, proto::decode_binary_feedback_response)?
    }

    /// Run one admin introspection query (metrics, state, traces, recorder)
    /// against the server and return the decoded `data` payload. Admin
    /// queries are served inline by the connection handler — they never
    /// enter the ranking pipeline — and are not retried.
    pub fn admin(&mut self, cmd: AdminCommand) -> Result<ls_obs::Json, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = proto::encode_binary_admin_request(id, cmd);
        self.round_trip_once(id, &frame, proto::decode_binary_admin_response)
    }
}

/// Client side of the hello: send ours, require a well-formed ack at
/// [`BINARY_VERSION`]. A bad ack fails with the typed [`FrameError`]
/// inside the `io::Error` (recover it with [`proto::frame_error`]).
fn greet(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(&encode_hello(BINARY_VERSION))?;
    let mut ack = [0u8; HELLO_LEN];
    stream.read_exact(&mut ack)?;
    let version = decode_hello(&ack).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if version != BINARY_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::UnsupportedVersion(version),
        ));
    }
    Ok(())
}
