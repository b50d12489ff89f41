//! Shared helpers for the serve integration suites (and, via `#[path]`
//! inclusion, the core crate's serve-facing suites): one HTTP exchange
//! helper, Prometheus metric scraping, chunked-response decoding, and
//! batch-frame parsing, so every suite asserts against the same parsing
//! logic instead of five private copies.
#![allow(dead_code)] // each test binary uses a different subset

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bayonet_serve::{parse_json, Json, ServerConfig};

/// A tiny two-node program: one probabilistic forward, one query, answer
/// 1/3. Shared by validation, persistence, and service suites.
pub const TINY: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> recv }
    init { packet -> (A, pt1); }
    query probability(got@B == 1);
    def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
    def recv(pkt, pt) state got(0) { got = 1; drop; }
"#;

/// [`TINY`] with the receive probability lifted into a parameter `P` read
/// by the *receiver*: the sender's exploration steps never consult `P`, so
/// a parameter sweep over `P` shares them as a prefix and forks only at
/// the receiver. Answer: P/3 for any bound P.
pub const TINY_PARAM: &str = r#"
    packet_fields { dst }
    parameters { P }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> recv }
    init { packet -> (A, pt1); }
    query probability(got@B == 1);
    def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
    def recv(pkt, pt) state got(0) { if flip(P) { got = 1; } drop; }
"#;

/// A program whose observation keeps one trace in a million: rejection
/// sampling it runs far past any test deadline even at the `particles`
/// cap, polling the deadline once per attempt. Tests use it to pin a
/// worker until its request's deadline.
pub const RARE_EVIDENCE: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> draw, B -> sink }
    init { packet -> (A, pt1); }
    query probability(x@A == 1);
    def draw(pkt, pt) state x(0) { x = uniformInt(1, 1000000); observe(x == 1); drop; }
    def sink(pkt, pt) { drop; }
"#;

/// Gossip on K4 (examples/bay/gossip_k4.bay): heavy enough that a 1 ms
/// deadline reliably expires mid-exploration and the parallel
/// expander engages.
pub const GOSSIP_K4: &str = r#"
    packet_fields { dst }
    topology {
        nodes { S0, S1, S2, S3 }
        links {
            (S0, pt1) <-> (S1, pt1), (S0, pt2) <-> (S2, pt1),
            (S0, pt3) <-> (S3, pt1), (S1, pt2) <-> (S2, pt2),
            (S1, pt3) <-> (S3, pt2), (S2, pt3) <-> (S3, pt3)
        }
    }
    programs { S0 -> seed, S1 -> gossip, S2 -> gossip, S3 -> gossip }
    init { packet -> (S0, pt1); }
    query expectation(infected@S0 + infected@S1 + infected@S2 + infected@S3);
    def seed(pkt, pt) state infected(0) {
        if infected == 0 { infected = 1; fwd(uniformInt(1, 3)); }
        else { drop; }
    }
    def gossip(pkt, pt) state infected(0) {
        if infected == 0 {
            infected = 1;
            dup;
            fwd(uniformInt(1, 3));
            fwd(uniformInt(1, 3));
        } else { drop; }
    }
"#;

/// A `ServerConfig` on an ephemeral port, with the persistent cache
/// enabled when `BAYONET_TEST_CACHE_DIR` is set (non-empty): every suite
/// then exercises the exact same assertions with and without a disk-backed
/// cache — persistence must never change observable behavior. Each call
/// gets a fresh unique directory so suites and tests stay isolated.
pub fn test_config() -> ServerConfig {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    match std::env::var("BAYONET_TEST_CACHE_DIR") {
        Ok(root) if !root.is_empty() => {
            config.cache_dir = Some(PathBuf::from(root).join(format!(
                "serve-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            )));
        }
        _ => {}
    }
    config
}

/// Worker-thread count for stress legs: `BAYONET_TEST_THREADS` when set
/// (the CI matrix runs 1 and 8), else 4.
pub fn test_threads() -> usize {
    std::env::var("BAYONET_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// A fresh, unique directory under the system temp dir.
pub fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bayonet-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A real out-of-process server: the `bayonet-served` binary, spawned so
/// a suite's client fds and the server's fds come out of separate process
/// budgets (a 10k-connection stress run needs both sides near the soft
/// `RLIMIT_NOFILE`). The spawner holds the child's stdin as a lifeline:
/// EOF there is the shutdown order, so a panicking test never leaks a
/// server process past its own exit.
pub struct Served {
    child: Child,
    pub addr: SocketAddr,
}

impl Served {
    /// Spawns `exe` (pass `env!("CARGO_BIN_EXE_bayonet-served")`) with
    /// `args` and scrapes the `BAYONET_SERVE_ADDR` announcement.
    pub fn spawn(exe: &str, args: &[&str]) -> Served {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn bayonet-served");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        lines
            .read_line(&mut line)
            .expect("read address announcement");
        let addr = line
            .trim()
            .strip_prefix("BAYONET_SERVE_ADDR ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("bad server announcement: {line:?}"));
        // Keep draining stdout so the child can never block on a full pipe.
        std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            while matches!(lines.read(&mut sink), Ok(n) if n > 0) {}
        });
        Served { child, addr }
    }

    /// Orders a graceful shutdown (EOF on stdin) and reaps the child,
    /// killing it if it ignores the order for ten seconds.
    pub fn stop(mut self) {
        drop(self.child.stdin.take());
        for _ in 0..100 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls `/metrics` until the `bayonet_http_open_connections` gauge drains
/// to exactly `want` — the fd-leak check. `want` is normally `1.0`: the
/// scraping connection itself is open while the gauge is rendered.
pub fn await_open_connections(addr: SocketAddr, want: f64, within: Duration) {
    let deadline = Instant::now() + within;
    loop {
        let text = metrics(addr);
        let open = metric_value(&text, "bayonet_http_open_connections");
        if open == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "open-connections gauge stuck at {open}, want {want} — leaked fds:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One-shot HTTP exchange: returns `(status, head, payload)`. The payload
/// is returned raw — chunked responses keep their framing (see
/// [`decode_chunked`]).
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), payload.to_string())
}

/// The canonical `/v1/run` body for a bare source.
pub fn run_body(source: &str) -> String {
    Json::obj(vec![("source", Json::Str(source.into()))]).to_string()
}

/// POSTs a bare-source `/v1/run` and returns `(status, payload)`.
pub fn post_run(addr: SocketAddr, source: &str) -> (u16, String) {
    let (status, _, payload) = http(addr, "POST", "/v1/run", &run_body(source));
    (status, payload)
}

/// Scrapes `/metrics`.
pub fn metrics(addr: SocketAddr) -> String {
    let (status, _, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    body
}

/// Value of a plain `name value` Prometheus line as an integer; panics
/// when absent.
pub fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("metric {name} not an integer: {e}"))
}

/// Value of a plain `name value` Prometheus line as a float; panics when
/// absent.
pub fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
}

/// Decodes a chunked transfer-encoded payload into the logical body,
/// asserting the framing is well-formed throughout: hex chunk sizes, CRLF
/// terminators, and the final zero-length chunk. A truncated stream — the
/// failure mode the batch endpoint must never produce on the success path —
/// panics here.
pub fn decode_chunked(payload: &str) -> String {
    let mut rest = payload;
    let mut out = String::new();
    loop {
        let (size_line, tail) = rest
            .split_once("\r\n")
            .unwrap_or_else(|| panic!("missing chunk-size line in {rest:?}"));
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|e| panic!("bad chunk size {size_line:?}: {e}"));
        if size == 0 {
            assert!(
                tail.is_empty() || tail == "\r\n",
                "bytes after the terminal chunk: {tail:?}"
            );
            return out;
        }
        assert!(
            tail.len() >= size + 2,
            "truncated chunk: want {size} bytes, have {}",
            tail.len()
        );
        out.push_str(&tail[..size]);
        assert_eq!(&tail[size..size + 2], "\r\n", "chunk not CRLF-terminated");
        rest = &tail[size + 2..];
    }
}

/// One parsed `/v1/batch` NDJSON frame. `body` keeps the item's raw
/// response bytes verbatim, so byte-identity with `/v1/run` can be
/// asserted directly.
pub struct BatchFrame {
    pub index: u64,
    pub status: u16,
    pub body: String,
}

/// Splits an NDJSON batch body into frames.
pub fn parse_frames(ndjson: &str) -> Vec<BatchFrame> {
    ndjson
        .lines()
        .map(|line| {
            let doc = parse_json(line).unwrap_or_else(|e| panic!("bad frame {line:?}: {e}"));
            let index = doc
                .get("index")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("frame without index: {line}"));
            let status = doc
                .get("status")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("frame without status: {line}"))
                as u16;
            let start = line.find(",\"body\":").expect("frame body") + ",\"body\":".len();
            let body = line[start..line.len() - 1].to_string();
            BatchFrame {
                index,
                status,
                body,
            }
        })
        .collect()
}

/// POSTs a `/v1/batch` request. On 200 the chunked framing is verified and
/// decoded; the returned payload is the logical NDJSON body. Validation
/// errors come back buffered (`Content-Length`), so they are returned
/// as-is.
pub fn post_batch(addr: SocketAddr, body: &str) -> (u16, String) {
    let (status, head, payload) = http(addr, "POST", "/v1/batch", body);
    if status == 200 {
        assert!(
            head.contains("Transfer-Encoding: chunked"),
            "batch success must stream chunked: {head}"
        );
        (status, decode_chunked(&payload))
    } else {
        assert!(
            !head.contains("Transfer-Encoding: chunked"),
            "batch errors must be buffered: {head}"
        );
        (status, payload)
    }
}
