//! The TCP server: an event-loop IO core over a fixed worker pool.
//!
//! All socket IO — accept, request parsing, response writing, chunked
//! batch streaming — happens on one nonblocking event-loop thread (see
//! the [`crate::evloop`] module docs); parsed requests are pushed onto a
//! bounded job queue consumed by `threads` workers running the shared
//! [`Service`]. When the queue is full the loop answers `503 Service
//! Unavailable` with a `Retry-After` header itself, so overload sheds
//! load in microseconds instead of stacking latency. Per-connection read
//! and write deadlines bound hostile or broken clients without a thread
//! held hostage per connection.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bayonet_exact::ComputePool;

use crate::evloop::{loop_shared, EventLoop, Job, LoopConfig, LoopShared};
use crate::http::{Request, Response};
use crate::metrics::{Counter, Metrics};
use crate::persist::{PersistConfig, DEFAULT_CACHE_MAX_BYTES};
use crate::service::{Service, ServiceOptions, DEFAULT_CACHE_ENTRIES};

/// Default cap on concurrently open client connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 16 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8645`. Port 0 picks an ephemeral port
    /// (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing inference jobs.
    pub threads: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Bounded queue capacity; requests beyond this get `503`.
    pub queue_capacity: usize,
    /// Per-connection IO deadline: a request must fully arrive within this
    /// long of accept, and a pending response must keep making progress at
    /// this granularity. Not an inference timeout — that is the
    /// per-request `timeout_ms`.
    pub io_timeout: Duration,
    /// Directory for the persistent result cache; `None` (the default)
    /// keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Segment-file size that triggers compaction when persistence is
    /// enabled.
    pub cache_max_bytes: u64,
    /// Cap on concurrently open client connections; connections beyond it
    /// are answered `503` immediately.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8645".to_string(),
            threads: 4,
            cache_entries: DEFAULT_CACHE_ENTRIES,
            queue_capacity: 64,
            io_timeout: Duration::from_secs(30),
            cache_dir: None,
            cache_max_bytes: DEFAULT_CACHE_MAX_BYTES,
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

impl ServerConfig {
    /// Applies command-line flags on top of `self`, the caller's defaults.
    /// `bayonet serve` and `bayonet-served` both parse through here, so
    /// they accept the same flags, one per field: `--addr`, `--threads`,
    /// `--cache-entries`, `--queue`, `--io-timeout-ms`, `--cache-dir`,
    /// `--cache-max-bytes` and `--max-connections`. A repeated flag keeps
    /// its last value.
    ///
    /// # Errors
    ///
    /// A one-line message for an unknown flag, a stray argument, a flag
    /// with no value, a value that does not parse, or a `--queue` or
    /// `--max-connections` of 0 (either would start a server that refuses
    /// every request).
    pub fn parse_flags(mut self, args: &[String]) -> Result<ServerConfig, String> {
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            let mut value = || match args.next() {
                Some(value) if !value.starts_with("--") => Ok(value.as_str()),
                _ => Err(format!("{flag} needs a value")),
            };
            match flag {
                "--addr" => self.addr = value()?.to_string(),
                "--threads" => self.threads = flag_number(flag, value()?)?,
                "--cache-entries" => self.cache_entries = flag_number(flag, value()?)?,
                "--queue" => self.queue_capacity = flag_count(flag, value()?)?,
                "--io-timeout-ms" => {
                    self.io_timeout = Duration::from_millis(flag_number(flag, value()?)?);
                }
                "--cache-dir" => self.cache_dir = Some(PathBuf::from(value()?)),
                "--cache-max-bytes" => self.cache_max_bytes = flag_number(flag, value()?)?,
                "--max-connections" => self.max_connections = flag_count(flag, value()?)?,
                _ if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                _ => return Err(format!("unexpected argument `{flag}`")),
            }
        }
        Ok(self)
    }
}

fn flag_number<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag} value: {e}"))
}

/// A flag value that must be at least 1.
fn flag_count(flag: &str, value: &str) -> Result<usize, String> {
    match flag_number(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// A handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    shared: Arc<LoopShared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Signals shutdown and joins all threads. In-flight requests get a
    /// grace period to finish; idle connections are dropped.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Blocks until the event loop exits (i.e. forever, absent
    /// [`ServerHandle::shutdown`] from another thread).
    pub fn join(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Starts the server: binds, spawns the worker pool and the event loop.
///
/// # Errors
///
/// Fails if the address cannot be bound, or if `cache_dir` is set and the
/// persistent cache segment cannot be created or opened (corrupt segment
/// *contents* are skipped and counted, never fatal).
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    // Best effort: a 10k-connection server wants headroom over the
    // default soft fd limit. Failure is fine — the connection cap sheds.
    let _ = bayonet_net::raise_nofile_limit();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // One shared compute pool with as many slots as HTTP workers. Workers
    // hold no slot themselves: a slot is one extra lane that a parallel
    // request or a batch leases on top of its own worker thread. So a
    // `--threads 1` server still runs a batch on two threads, and up to
    // 2 × `--threads` threads can be busy at once. Once every slot is
    // leased, later requests run on their worker thread alone.
    let threads = config.threads.max(1);
    let service = Arc::new(Service::with_options(ServiceOptions {
        cache_entries: config.cache_entries,
        pool: Some(ComputePool::new(threads)),
        persist: config.cache_dir.as_ref().map(|dir| PersistConfig {
            dir: dir.clone(),
            max_bytes: config.cache_max_bytes,
        }),
    })?);
    let metrics = service.metrics();
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<Job>(config.queue_capacity);
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let rx = Arc::clone(&rx);
        let service = Arc::clone(&service);
        workers.push(std::thread::spawn(move || loop {
            // The queue guard drops at the end of this statement, so the
            // other workers can take jobs while this one serves.
            let Ok(mut job) = rx.lock().expect("job queue mutex").recv() else {
                break;
            };
            service.metrics().add(Counter::QueueDepth, -1);
            serve_guarded(&service, &job.request, &mut job.out);
            job.out.finish();
        }));
    }

    let (shared, waker_rx) = loop_shared()?;
    let event_loop = EventLoop::new(
        LoopConfig {
            listener,
            metrics: Arc::clone(&metrics),
            io_timeout: config.io_timeout,
            max_connections: config.max_connections,
            jobs: tx,
            shutdown: Arc::clone(&shutdown),
        },
        Arc::clone(&shared),
        waker_rx,
    )?;
    let loop_thread = std::thread::spawn(move || event_loop.run());
    // The loop owns the job sender; when it exits the channel disconnects
    // and the workers drain out.

    Ok(ServerHandle {
        addr,
        metrics,
        shutdown,
        shared,
        event_loop: Some(loop_thread),
        workers,
    })
}

/// Runs [`Service::serve`] for one job and contains any panic — a batch
/// lane's included, which resurfaces here when its scope joins — so the
/// worker survives. A panic before any byte went out is answered with a
/// structured `500`; one mid-stream leaves the body torn, and finishing the
/// job closes the connection. Either way `bayonet_worker_panics_total`
/// counts it.
fn serve_guarded(service: &Service, request: &Request, out: &mut (impl Write + Send)) {
    let mut out = Tracked {
        out,
        written: false,
    };
    let served = panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        if request
            .headers
            .iter()
            .any(|(name, _)| name == tests::PANIC_HEADER)
        {
            panic!("injected worker panic");
        }
        service.serve(request, &mut out)
    }));
    if served.is_err() {
        service.metrics().add(Counter::WorkerPanics, 1);
        if !out.written {
            let body = r#"{"ok":false,"error":{"kind":"internal","message":"internal error while serving the request"}}"#;
            let _ = Response::json(500, body).write_to(&mut out);
        }
    }
}

/// A writer that remembers whether anything went through it.
struct Tracked<'a, W: Write> {
    out: &'a mut W,
    written: bool,
}

impl<W: Write> Write for Tracked<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written |= !buf.is_empty();
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::net::TcpStream;

    use super::*;

    /// A request carrying this header panics its worker (test builds only).
    pub(super) const PANIC_HEADER: &str = "x-test-panic";

    fn exchange(addr: SocketAddr, request: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        // A worker lost to a panic would leave the reply hanging forever.
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(request.as_bytes()).expect("write request");
        let mut reply = String::new();
        conn.read_to_string(&mut reply).expect("read reply");
        reply
    }

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn every_flag_parses_into_its_field() {
        let config = ServerConfig::default()
            .parse_flags(&args(&[
                "--addr",
                "0.0.0.0:9000",
                "--threads",
                "3",
                "--cache-entries",
                "17",
                "--queue",
                "9",
                "--io-timeout-ms",
                "2500",
                "--cache-dir",
                "/var/cache/bayonet",
                "--cache-max-bytes",
                "4096",
                "--max-connections",
                "123",
            ]))
            .expect("valid flags");
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.threads, 3);
        assert_eq!(config.cache_entries, 17);
        assert_eq!(config.queue_capacity, 9);
        assert_eq!(config.io_timeout, Duration::from_millis(2500));
        assert_eq!(config.cache_dir, Some(PathBuf::from("/var/cache/bayonet")));
        assert_eq!(config.cache_max_bytes, 4096);
        assert_eq!(config.max_connections, 123);
    }

    #[test]
    fn flags_start_from_the_callers_defaults() {
        let defaults = ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        };
        let config = defaults
            .parse_flags(&args(&["--threads", "1", "--threads", "2"]))
            .expect("valid flags");
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.threads, 2, "a repeated flag keeps its last value");
        assert_eq!(
            config.queue_capacity,
            ServerConfig::default().queue_capacity
        );
    }

    #[test]
    fn bad_flags_give_the_pinned_messages() {
        #[rustfmt::skip]
        let cases: &[(&[&str], &str)] = &[
            (&["--threads", "banana"], "bad --threads value: "),
            (&["--io-timeout-ms", "-1"], "bad --io-timeout-ms value: "),
            (&["--threads"], "--threads needs a value"),
            (&["--cache-dir", "--threads", "2"], "--cache-dir needs a value"),
            (&["--port", "80"], "unknown flag `--port`"),
            (&["--replicas", "2"], "unknown flag `--replicas`"),
            (&["extra"], "unexpected argument `extra`"),
            (&["--queue", "0"], "--queue must be at least 1"),
            (&["--max-connections", "0"], "--max-connections must be at least 1"),
        ];
        for (flags, message) in cases {
            let err = ServerConfig::default()
                .parse_flags(&args(flags))
                .expect_err("invalid flags");
            assert!(err.starts_with(message), "{flags:?}: {err}");
        }
    }

    #[test]
    fn a_panicking_request_gets_a_500_and_the_worker_survives() {
        let handle = start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            ..ServerConfig::default()
        })
        .expect("start server");
        let addr = handle.addr();
        let run = |extra_header: &str| {
            let body = r#"{"source":"packet_fields { dst } topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } } programs { A -> send, B -> recv } init { packet -> (A, pt1); } query probability(got@B == 1); def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } } def recv(pkt, pt) state got(0) { got = 1; drop; }"}"#;
            format!(
                "POST /v1/run HTTP/1.1\r\nHost: t\r\n{extra_header}Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
        };

        let reply = exchange(addr, &run("X-Test-Panic: 1\r\n"));
        assert!(reply.starts_with("HTTP/1.1 500"), "{reply}");
        assert!(reply.contains(r#""kind":"internal""#), "{reply}");
        // The only worker survived the panic and keeps serving.
        let reply = exchange(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        let reply = exchange(addr, &run(""));
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("1/3"), "{reply}");
        let metrics = handle.metrics().render();
        assert!(
            metrics.contains("bayonet_worker_panics_total 1"),
            "{metrics}"
        );
        handle.shutdown();
    }
}
