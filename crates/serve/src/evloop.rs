//! The nonblocking event loop at the core of the server.
//!
//! One thread owns every socket: an edge-triggered [`Poller`]
//! (`bayonet_net::Poller`, a thin epoll wrapper) watches the listener, a
//! wakeup pipe, and every connection fd. Each connection is a small state
//! machine — accumulate bytes through [`RequestParser`], dispatch the
//! parsed request, flush the response — so ten thousand idle or slow
//! clients cost ten thousand fds and one parked thread, not ten thousand
//! threads.
//!
//! Inference never runs on the loop. A parsed request is pushed onto a
//! bounded job queue consumed by worker threads (a full queue answers
//! `503 Service Unavailable` in microseconds); workers write response
//! bytes into the connection's [`OutBuf`] and wake the loop to flush them.
//! Chunked batch streaming works the same way: the worker's
//! `ChunkedWriter` writes into an [`OutHandle`], each chunk waking the
//! loop, with a high-water mark providing backpressure against clients
//! that stop reading.
//!
//! Hostile-client defenses are enforced here, per connection: a fixed
//! read deadline from accept (a trickling slow-loris cannot reset it), a
//! write deadline that only advances while the client drains, and hard
//! head/body size limits in the parser. Every outcome is visible on
//! `/metrics` as the `bayonet_http_*` series.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bayonet_net::{Interest, PollEvent, Poller};

use crate::http::{ParseStatus, Request, RequestError, RequestParser, Response};
use crate::metrics::{Counter, Metrics};

/// Token of the accept listener.
const TOKEN_LISTENER: u64 = 0;
/// Token of the wakeup pipe's read end.
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection; tokens are never reused, so a
/// stale event for a closed connection simply misses the map.
const TOKEN_FIRST_CONN: u64 = 2;

/// Outbound buffer high-water mark: a producer (worker thread) pushing
/// response bytes blocks once this much is queued and unread, so a client
/// that stops draining cannot balloon server memory.
const OUT_HIGH_WATER: usize = 1 << 20;
/// Read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Grace period for in-flight requests when a shutdown is requested:
/// connections still waiting on a worker get this long before being torn
/// down mid-flight.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Shared handle through which producer threads reach into the loop: a
/// byte down the wakeup pipe plus a dirty-token list telling the loop
/// which connections have fresh outbound bytes.
pub(crate) struct LoopShared {
    waker: UnixStream,
    dirty: Mutex<Vec<u64>>,
}

impl LoopShared {
    /// Marks `token` as having new outbound bytes and wakes the loop.
    pub(crate) fn mark_dirty(&self, token: u64) {
        self.dirty.lock().expect("dirty mutex").push(token);
        self.wake();
    }

    /// Wakes the loop without marking anything dirty (shutdown, etc.).
    pub(crate) fn wake(&self) {
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.waker).write(&[1]);
    }
}

/// Creates the wakeup pipe shared between the loop and producers.
pub(crate) fn loop_shared() -> io::Result<(Arc<LoopShared>, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Arc::new(LoopShared {
            waker: tx,
            dirty: Mutex::new(Vec::new()),
        }),
        rx,
    ))
}

/// The shared half of one connection's outbound stream. The loop drains
/// it into the socket; a worker fills it.
pub(crate) struct OutBuf {
    state: Mutex<OutState>,
    drained: Condvar,
}

struct OutState {
    buf: VecDeque<u8>,
    /// Producer finished: once `buf` drains, the connection closes.
    complete: bool,
    /// Connection torn down: producer writes fail from now on.
    closed: bool,
}

impl OutBuf {
    fn new() -> Arc<OutBuf> {
        Arc::new(OutBuf {
            state: Mutex::new(OutState {
                buf: VecDeque::new(),
                complete: false,
                closed: false,
            }),
            drained: Condvar::new(),
        })
    }

    /// Queues a complete response from the loop thread itself (sheds,
    /// parse errors, timeouts). Never blocks: such responses are small.
    fn respond_from_loop(&self, bytes: &[u8]) {
        let mut state = self.state.lock().expect("out mutex");
        state.buf.extend(bytes);
        state.complete = true;
    }

    fn mark_complete(&self) {
        self.state.lock().expect("out mutex").complete = true;
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("out mutex");
        state.closed = true;
        self.drained.notify_all();
    }

    fn queued(&self) -> usize {
        self.state.lock().expect("out mutex").buf.len()
    }
}

/// The producer-side handle a worker writes response bytes through.
/// Implements [`Write`]; each write appends to the connection's [`OutBuf`]
/// and wakes the loop, blocking (backpressure) while the client is more
/// than a high-water mark behind. Writes fail with `BrokenPipe` once the
/// connection is gone — which is exactly what cancels a streaming batch
/// whose client disconnected.
pub(crate) struct OutHandle {
    token: u64,
    out: Arc<OutBuf>,
    shared: Arc<LoopShared>,
}

impl OutHandle {
    /// Signals that the response is complete; the loop closes the
    /// connection once the bytes are flushed.
    pub(crate) fn finish(&self) {
        self.out.mark_complete();
        self.shared.mark_dirty(self.token);
    }
}

impl Write for OutHandle {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut state = self.out.state.lock().expect("out mutex");
        loop {
            if state.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection closed",
                ));
            }
            if state.buf.len() < OUT_HIGH_WATER {
                break;
            }
            // Client far behind: wait for the loop to drain (or close) the
            // buffer. The timeout guards against a lost wakeup, not logic.
            let (next, _) = self
                .out
                .drained
                .wait_timeout(state, Duration::from_millis(100))
                .expect("out mutex");
            state = next;
        }
        state.buf.extend(bytes);
        drop(state);
        self.shared.mark_dirty(self.token);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.shared.mark_dirty(self.token);
        Ok(())
    }
}

/// One inference job handed to the worker pool.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) out: OutHandle,
}

/// What the per-connection timer means right now.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Full request must arrive by the deadline (fixed at accept: a
    /// trickle of header bytes must not reset it).
    Read,
    /// Pending outbound bytes must make progress by the deadline
    /// (refreshed whenever the socket accepts bytes).
    Write,
    /// No deadline: request dispatched, waiting on the producer. Inference
    /// time is governed by per-request `timeout_ms`, not socket deadlines.
    None,
}

/// One client connection: parse → dispatch → flush.
struct Conn {
    stream: TcpStream,
    parser: Option<RequestParser>,
    out: Arc<OutBuf>,
    /// A request was dispatched, or the loop answered the connection itself.
    dispatched: bool,
    timer: TimerKind,
    deadline: Instant,
}

/// Everything the loop needs, assembled by `server::start`.
pub(crate) struct LoopConfig {
    pub(crate) listener: TcpListener,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) io_timeout: Duration,
    pub(crate) max_connections: usize,
    /// The bounded job queue the worker pool consumes.
    pub(crate) jobs: SyncSender<Job>,
    /// Shutdown flag; flip and wake to begin a graceful drain.
    pub(crate) shutdown: Arc<AtomicBool>,
}

pub(crate) struct EventLoop {
    cfg: LoopConfig,
    shared: Arc<LoopShared>,
    waker_rx: UnixStream,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    /// Deadline index: `(deadline, token)` for every armed timer.
    timers: BTreeSet<(Instant, u64)>,
    next_token: u64,
    shutting_down: Option<Instant>,
}

impl EventLoop {
    pub(crate) fn new(
        cfg: LoopConfig,
        shared: Arc<LoopShared>,
        waker_rx: UnixStream,
    ) -> io::Result<EventLoop> {
        let poller = Poller::new()?;
        cfg.listener.set_nonblocking(true)?;
        poller.add(cfg.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(EventLoop {
            cfg,
            shared,
            waker_rx,
            poller,
            conns: HashMap::new(),
            timers: BTreeSet::new(),
            next_token: TOKEN_FIRST_CONN,
            shutting_down: None,
        })
    }

    /// Runs until shutdown is signalled and in-flight work has drained.
    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(1024);
        loop {
            let timeout = self.next_timeout();
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.cfg.metrics.add(Counter::LoopWakeups, 1);

            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.conn_ready(token, ev),
                }
            }

            // Connections whose producers queued new outbound bytes.
            let dirty: Vec<u64> =
                std::mem::take(&mut *self.shared.dirty.lock().expect("dirty mutex"));
            for token in dirty {
                self.flush_conn(token);
            }

            self.fire_timers();

            if self.cfg.shutdown.load(Ordering::SeqCst) {
                if self.shutting_down.is_none() {
                    self.begin_shutdown();
                }
                let grace_over = self
                    .shutting_down
                    .is_some_and(|since| since.elapsed() > SHUTDOWN_GRACE);
                if self.conns.is_empty() || grace_over {
                    break;
                }
            }
        }
        // Tear down whatever is left so gauges return to zero.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.teardown(token);
        }
    }

    /// Poll timeout: until the next armed deadline, or forever.
    fn next_timeout(&self) -> Option<Duration> {
        // During a shutdown drain, poll in short beats so the exit
        // condition is re-checked even with no socket activity.
        let drain_beat = self.shutting_down.map(|_| Duration::from_millis(50));
        let next = self
            .timers
            .iter()
            .next()
            .map(|(deadline, _)| deadline.saturating_duration_since(Instant::now()));
        match (next, drain_beat) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn begin_shutdown(&mut self) {
        self.shutting_down = Some(Instant::now());
        self.poller.remove(self.cfg.listener.as_raw_fd());
        // Idle connections (no request dispatched, nothing to flush) are
        // torn down at once; dispatched ones get the grace period.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.dispatched && c.out.queued() == 0)
            .map(|(token, _)| *token)
            .collect();
        for token in idle {
            self.teardown(token);
        }
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    fn accept_ready(&mut self) {
        loop {
            match self.cfg.listener.accept() {
                Ok((stream, _addr)) => self.accept_one(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (ECONNABORTED, EMFILE under
                // pressure): stop for this readiness edge and retry on the
                // next one.
                Err(_) => break,
            }
        }
    }

    fn accept_one(&mut self, stream: TcpStream) {
        if self.shutting_down.is_some() {
            return; // listener already deregistered; drop stragglers
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        self.cfg.metrics.add(Counter::Accepted, 1);
        self.cfg.metrics.add(Counter::OpenConnections, 1);

        let mut conn = Conn {
            stream,
            parser: Some(RequestParser::new()),
            out: OutBuf::new(),
            dispatched: false,
            timer: TimerKind::Read,
            deadline: Instant::now() + self.cfg.io_timeout,
        };

        // Over the connection cap: answer 503 immediately, same framing as
        // queue shed, and close once flushed.
        if self.conns.len() >= self.cfg.max_connections {
            self.cfg.metrics.add(Counter::ConnShed, 1);
            self.cfg
                .metrics
                .record_request("_conn_cap", 503, Duration::ZERO);
            conn.out.respond_from_loop(&overloaded_response());
            conn.parser = None;
            conn.dispatched = true;
            conn.timer = TimerKind::Write;
        }

        if self
            .poller
            .add(conn.stream.as_raw_fd(), token, Interest::BOTH)
            .is_err()
        {
            self.cfg.metrics.add(Counter::OpenConnections, -1);
            return;
        }
        self.timers.insert((conn.deadline, token));
        self.conns.insert(token, conn);
        // The socket may already hold the whole request; edge triggering
        // means we must not wait for another readable event.
        self.read_conn(token);
        self.flush_conn(token);
    }

    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        if !self.conns.contains_key(&token) {
            return; // stale event for an already-closed connection
        }
        if ev.readable || ev.hangup {
            self.read_conn(token);
        }
        if ev.writable || ev.hangup {
            self.flush_conn(token);
        }
    }

    /// Reads until `WouldBlock`, feeding the connection's state machine.
    fn read_conn(&mut self, token: u64) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_eof(token);
                    return;
                }
                // A connection torn down meanwhile ends the loop above.
                Ok(n) => self.read_bytes(token, &chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
    }

    /// Handles fresh bytes on `token`.
    fn read_bytes(&mut self, token: u64, bytes: &[u8]) {
        enum Parsed {
            More,
            Done(Request),
            Failed(RequestError),
        }
        let parsed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.parser.as_mut() {
                // Already dispatched: pipelined extra bytes are read and
                // discarded (the connection closes after one exchange).
                None => Parsed::More,
                Some(parser) => match parser.feed(bytes) {
                    Ok(ParseStatus::NeedMore) => Parsed::More,
                    Ok(ParseStatus::Complete(request)) => {
                        conn.parser = None;
                        Parsed::Done(request)
                    }
                    Err(e) => {
                        conn.parser = None;
                        Parsed::Failed(e)
                    }
                },
            }
        };
        match parsed {
            Parsed::More => {}
            Parsed::Done(request) => self.dispatch(token, request),
            Parsed::Failed(e) => self.answer_parse_error(token, &e),
        }
    }

    fn read_eof(&mut self, token: u64) {
        enum Eof {
            /// Clean pre-request EOF: a probe, not worth answering.
            Probe,
            /// Head or body cut off mid-transfer: a torn request.
            Torn,
            /// Request already dispatched; the client half-closed. Keep
            /// the connection: the response may still be deliverable, and
            /// a full disconnect surfaces as a write error.
            Ignore,
        }
        let eof = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            match &conn.parser {
                Some(p) if p.is_empty() => Eof::Probe,
                Some(_) => Eof::Torn,
                None => Eof::Ignore,
            }
        };
        match eof {
            Eof::Probe => self.teardown(token),
            Eof::Torn => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.parser = None;
                }
                self.answer_parse_error(token, &RequestError::Malformed("truncated request head"));
            }
            Eof::Ignore => {}
        }
    }

    fn answer_parse_error(&mut self, token: u64, err: &RequestError) {
        let response = match err {
            RequestError::TooLarge => Response::json(
                413,
                r#"{"ok":false,"error":{"kind":"too_large","message":"request exceeds size limits"}}"#,
            ),
            RequestError::Malformed(_) => Response::json(
                400,
                format!(r#"{{"ok":false,"error":{{"kind":"bad_request","message":"{err}"}}}}"#),
            ),
        };
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.dispatched = true;
            conn.out.respond_from_loop(&response_bytes(&response));
        }
        self.retime(token, TimerKind::Write);
        self.flush_conn(token);
    }

    fn dispatch(&mut self, token: u64, request: Request) {
        // Request fully received: the read deadline has served its
        // purpose. A write deadline arms once response bytes are pending.
        self.retime(token, TimerKind::None);
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.dispatched = true;
        }

        let out = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            OutHandle {
                token,
                out: Arc::clone(&conn.out),
                shared: Arc::clone(&self.shared),
            }
        };
        match self.cfg.jobs.try_send(Job { request, out }) {
            Ok(()) => {
                self.cfg.metrics.add(Counter::QueueDepth, 1);
            }
            Err(TrySendError::Full(job)) => {
                // Same shed contract as before: an immediate, fully framed
                // 503 with Retry-After, never queued latency.
                self.cfg.metrics.add(Counter::ConnShed, 1);
                self.cfg
                    .metrics
                    .record_request("_queue", 503, Duration::ZERO);
                job.out.out.respond_from_loop(&overloaded_response());
                self.retime(token, TimerKind::Write);
                self.flush_conn(token);
            }
            Err(TrySendError::Disconnected(_)) => self.teardown(token),
        }
    }

    /// Drains the outbound buffer into the socket until `WouldBlock`,
    /// closing the connection when its response is complete and flushed.
    fn flush_conn(&mut self, token: u64) {
        let (progress, empty, complete, failed) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut state = conn.out.state.lock().expect("out mutex");
            let mut progress = false;
            let mut failed = false;
            while !state.buf.is_empty() {
                let (front, _) = state.buf.as_slices();
                match conn.stream.write(front) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => {
                        state.buf.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if progress {
                conn.out.drained.notify_all();
            }
            (progress, state.buf.is_empty(), state.complete, failed)
        };

        // The peer is gone, or the response is complete and flushed.
        if failed || (empty && complete) {
            self.teardown(token);
            return;
        }

        // Timer upkeep: pending bytes arm (or refresh, on progress) the
        // write deadline; an empty buffer on a dispatched connection waits
        // on its producer with no socket deadline.
        let timer = self.conns.get(&token).map(|c| (c.timer, c.dispatched));
        if let Some((timer, dispatched)) = timer {
            if !empty {
                if progress || timer != TimerKind::Write {
                    self.retime(token, TimerKind::Write);
                }
            } else if dispatched && timer == TimerKind::Write {
                self.retime(token, TimerKind::None);
            }
        }
    }

    /// Rearms (or disarms) the connection's deadline.
    fn retime(&mut self, token: u64, kind: TimerKind) {
        let io_timeout = self.cfg.io_timeout;
        let stale = self
            .conns
            .get(&token)
            .and_then(|conn| (conn.timer != TimerKind::None).then_some((conn.deadline, token)));
        if let Some(stale) = stale {
            self.timers.remove(&stale);
        }
        let armed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.timer = kind;
            if kind != TimerKind::None {
                conn.deadline = Instant::now() + io_timeout;
                Some((conn.deadline, token))
            } else {
                None
            }
        };
        if let Some(armed) = armed {
            self.timers.insert(armed);
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        loop {
            let Some(&(deadline, token)) = self.timers.iter().next() else {
                return;
            };
            if deadline > now {
                return;
            }
            self.timers.remove(&(deadline, token));
            let kind = match self.conns.get(&token) {
                Some(conn) if conn.deadline == deadline => conn.timer,
                _ => continue, // re-armed or gone; stale index entry
            };
            match kind {
                TimerKind::None => {}
                TimerKind::Read => {
                    // Slow loris: the request never completed. Answer 408
                    // and close; the response write gets one io_timeout of
                    // its own.
                    self.cfg.metrics.add(Counter::ReadTimeouts, 1);
                    self.cfg.metrics.record_request("_io", 408, Duration::ZERO);
                    {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            continue;
                        };
                        conn.parser = None;
                        conn.dispatched = true;
                        conn.out.respond_from_loop(&response_bytes(&Response::json(
                            408,
                            r#"{"ok":false,"error":{"kind":"timeout","message":"request did not arrive within the read deadline"}}"#,
                        )));
                    }
                    self.retime(token, TimerKind::Write);
                    self.flush_conn(token);
                }
                TimerKind::Write => {
                    self.cfg.metrics.add(Counter::WriteTimeouts, 1);
                    self.teardown(token);
                }
            }
        }
    }

    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.timer != TimerKind::None {
            self.timers.remove(&(conn.deadline, token));
        }
        self.poller.remove(conn.stream.as_raw_fd());
        // Unblock and fail any producer still writing to this connection;
        // for a streaming batch this is what propagates cancellation.
        conn.out.close();
        self.cfg.metrics.add(Counter::OpenConnections, -1);
        // Half-close first: closing a socket with unread input sends a
        // reset, and a client that gets it before a FIN reports
        // `ECONNRESET` instead of reading to the end of the response.
        let _ = conn.stream.shutdown(Shutdown::Write);
        // `conn.stream` drops here, closing the fd.
    }
}

/// The serialized bytes of a buffered [`Response`].
fn response_bytes(response: &Response) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(response.body.len() + 256);
    response
        .write_to(&mut bytes)
        .expect("serializing to a Vec cannot fail");
    bytes
}

/// The canonical overload response (same framing the old accept loop
/// wrote): a complete buffered `503` with `Retry-After`.
fn overloaded_response() -> Vec<u8> {
    response_bytes(
        &Response::json(
            503,
            r#"{"ok":false,"error":{"kind":"overloaded","message":"job queue is full"}}"#,
        )
        .with_header("Retry-After", "1"),
    )
}
