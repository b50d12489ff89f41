//! Serve-core benchmark: sustained RPS and tail latency of the event-loop
//! server.
//!
//! One server, measured at parked connections ∈ {0, 10 000}. The parked
//! set models a fleet of long-lived idle clients hanging off the
//! loop — real fd pressure, a real 10k-entry epoll interest table —
//! while one measuring client drives request after request. The measured
//! workload is a cached `/v1/run`: the engines' wall-clock is someone
//! else's benchmark; this one times the serve path end to end — accept,
//! parse, dispatch, LRU hit, respond, teardown.
//!
//! The server runs out of process (the `bayonet-served` binary, found
//! next to this one), so client and server fd budgets never share a
//! process. Build everything first:
//!
//! ```text
//! cargo build --release
//! cargo run --release -p bayonet-bench --bin servebench -- --out BENCH_7.json
//! ```
//!
//! Flags:
//!   --quick          parked set 100 and a 1 s window per cell (CI smoke)
//!   --duration-ms N  measure window per cell (default 4000)
//!   --server-exe P   path to bayonet-served (default: sibling of this binary)
//!   --out PATH       write the report to PATH (always printed to stdout)
//!   --check PATH     CI regression gate: exit 1 when any matched cell's
//!                    p99 latency regresses more than 25% (plus a 50 µs
//!                    absolute slack) vs. the committed baseline at PATH.
//!                    Cells are matched on (replicas, parked_connections).
//!                    Every cell here reports `"replicas":1`, so an older
//!                    baseline's `replicas=4` cells go unmatched. Tune
//!                    with BAYONET_BENCH_TOLERANCE /
//!                    BAYONET_BENCH_STRICT (see `bayonet_bench::gate`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bayonet_bench::gate;
use bayonet_serve::{parse_json, Json};

/// The measured program: small enough that its exact answer is an LRU
/// hit after the warm-up request, so every timed exchange is pure serve
/// path.
const TINY: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> recv }
    init { packet -> (A, pt1); }
    query probability(got@B == 1);
    def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
    def recv(pkt, pt) state got(0) { got = 1; drop; }
"#;

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn(exe: &str) -> Server {
        let mut child = Command::new(exe)
            .args([
                "--threads",
                "2",
                "--queue",
                "1024",
                // Parked connections are idle by design; don't let the
                // read deadline reap them mid-measurement.
                "--io-timeout-ms",
                "600000",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| {
                panic!("cannot spawn {exe}: {e}\n(run `cargo build --release` first)")
            });
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        lines.read_line(&mut line).expect("read announcement");
        let addr = line
            .trim()
            .strip_prefix("BAYONET_SERVE_ADDR ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("bad announcement: {line:?}"));
        std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            while matches!(lines.read(&mut sink), Ok(n) if n > 0) {}
        });
        Server { child, addr }
    }

    fn stop(mut self) {
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

/// One full `/v1/run` exchange; returns the wall-clock latency.
fn exchange(addr: SocketAddr, body: &str) -> Duration {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = format!(
        "POST /v1/run HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    assert!(
        raw.starts_with("HTTP/1.1 200"),
        "bench request failed: {raw}"
    );
    started.elapsed()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct Cell {
    parked: usize,
    requests: u64,
    rps: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn measure(addr: SocketAddr, body: &str, window: Duration) -> (u64, f64, Vec<u64>) {
    // Warm: populate the result cache.
    for _ in 0..3 {
        exchange(addr, body);
    }
    let mut latencies_us = Vec::new();
    let started = Instant::now();
    while started.elapsed() < window {
        latencies_us.push(exchange(addr, body).as_micros() as u64);
    }
    let elapsed = started.elapsed();
    let requests = latencies_us.len() as u64;
    let rps = requests as f64 / elapsed.as_secs_f64();
    latencies_us.sort_unstable();
    (requests, rps, latencies_us)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let window = Duration::from_millis(
        flag("--duration-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 1000 } else { 4000 }),
    );
    let exe = flag("--server-exe").unwrap_or_else(|| {
        let mut path = std::env::current_exe().expect("current exe");
        path.set_file_name("bayonet-served");
        path.to_string_lossy().into_owned()
    });
    let parked_high = if quick { 100 } else { 10_000 };

    // The parked set lives in this process: lift the client fd ceiling.
    let _ = bayonet_net::raise_nofile_limit();

    let body = bayonet_serve::Json::obj(vec![("source", bayonet_serve::Json::Str(TINY.into()))])
        .to_string();

    let mut cells: Vec<Cell> = Vec::new();
    let server = Server::spawn(&exe);
    for parked in [0usize, parked_high] {
        // Park the idle fleet, then give the loop a beat to accept it.
        let held: Vec<TcpStream> = (0..parked)
            .map(|i| {
                TcpStream::connect(server.addr)
                    .unwrap_or_else(|e| panic!("parked connect {i}: {e}"))
            })
            .collect();
        if parked > 0 {
            std::thread::sleep(Duration::from_millis(500));
        }
        let (requests, rps, lat) = measure(server.addr, &body, window);
        eprintln!(
            "parked={parked}: {requests} requests, {rps:.0} rps, p99 {} us",
            percentile(&lat, 0.99)
        );
        cells.push(Cell {
            parked,
            requests,
            rps,
            p50_us: percentile(&lat, 0.50),
            p90_us: percentile(&lat, 0.90),
            p99_us: percentile(&lat, 0.99),
            max_us: lat.last().copied().unwrap_or(0),
        });
        drop(held);
    }
    server.stop();

    let cells_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                r#"{{"replicas":1,"parked_connections":{},"requests":{},"rps":{:.1},"latency_us":{{"p50":{},"p90":{},"p99":{},"max":{}}}}}"#,
                c.parked, c.requests, c.rps, c.p50_us, c.p90_us, c.p99_us, c.max_us
            )
        })
        .collect();
    let report = format!(
        r#"{{"schema":"bayonet-servebench-v1","quick":{quick},"window_ms":{},"machine":{{"os":"{}","arch":"{}","cpus":{},"profile":"{}"}},"cells":[{}]}}"#,
        window.as_millis(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        cells_json.join(",")
    );
    // Self-validation: the report must round-trip through the same JSON
    // parser the service uses.
    let parsed = parse_json(&report).expect("report is well-formed JSON");
    println!("{report}");
    if let Some(path) = flag("--out") {
        std::fs::write(&path, format!("{report}\n")).expect("write report");
        eprintln!("wrote {path}");
    }

    if let Some(path) = flag("--check") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read check baseline {path}: {e}"));
        let baseline = parse_json(&text).expect("check baseline is not valid JSON");
        if !check_against(&parsed, &baseline) {
            std::process::exit(1);
        }
    }
}

/// The CI gate: p99 latency per cell, matched on `(replicas,
/// parked_connections)`, against a committed baseline. A `--quick` run
/// parks 100 connections instead of 10 000, so only the parked=0 cells
/// match a full baseline — the intersection is what gets gated. Besides
/// the relative tolerance, a cell only fails when the regression exceeds
/// an absolute 50 µs slack: micro-scale tails jitter on shared runners.
fn check_against(current: &Json, baseline: &Json) -> bool {
    if let Some(pass) = gate::host_class_gate(current, baseline) {
        return pass;
    }
    let p99_of = |report: &Json, replicas: f64, parked: f64| -> Option<f64> {
        report.get("cells")?.as_arr()?.iter().find_map(|c| {
            if c.get("replicas")?.as_f64()? == replicas
                && c.get("parked_connections")?.as_f64()? == parked
            {
                c.get("latency_us")?.get("p99")?.as_f64()
            } else {
                None
            }
        })
    };
    let tol = gate::tolerance();
    let mut rows = Vec::new();
    if let Some(cells) = current.get("cells").and_then(Json::as_arr) {
        for c in cells {
            let replicas = c.get("replicas").and_then(Json::as_f64).unwrap_or(0.0);
            let parked = c
                .get("parked_connections")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let (Some(now), Some(before)) = (
                p99_of(current, replicas, parked),
                p99_of(baseline, replicas, parked),
            ) else {
                continue;
            };
            rows.push(gate::Check {
                label: format!("replicas={replicas}/parked={parked}/p99"),
                baseline: before,
                current: now,
                // Relative tolerance alone would gate on single-digit
                // microseconds; require the absolute slack too.
                gated: now - before > gate::MIN_GATED_SLACK_US,
            });
        }
    }
    assert!(
        !rows.is_empty(),
        "check: no comparable cells between current run and baseline"
    );
    gate::verdict(&rows, tol, "us")
}
