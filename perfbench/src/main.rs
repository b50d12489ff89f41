//! perfbench: the end-to-end serving benchmark of `bayonet-served`.
//!
//! One run starts `bayonet-served --threads 1` out of process, sets it up
//! (spawn → ready → the workload's warm-up, five times, keeping the
//! last server), then drives it for `--seconds` from a closed-loop,
//! single-threaded client that opens one connection per request, checks
//! every answer against hand-written references, and prints one JSON
//! result line. `--trace 1` instead measures an untraced and a traced
//! window back to back and reports the per-layer metrics of the traced
//! replay (see `trace.rs`) plus the baseline counts of README.md.
//!
//! ```text
//! perfbench --server PATH --workload run_miss|sweep_batch|batch_hit
//!           --seed N --seconds S --trace 0|1
//! ```

mod client;
mod oracle;
mod trace;
mod workload;

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{Reply, Scrape, Server};
use oracle::Q;
use trace::{Metrics, Replay};
use workload::{Item, Kind, Prog, Req, Stream, Work};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    server: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut server, mut kind, mut seed, mut seconds, mut trace) =
            (None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--server" => server = Some(PathBuf::from(&value)),
                "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            server: server.ok_or("--server is required")?,
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Answers attempted and failed, and why the first few failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Checks a reply against the oracle; returns the answers that passed.
    fn check(&mut self, req: &Req, reply: io::Result<Reply>) -> u64 {
        let (passed, err) = match reply {
            Ok(reply) => oracle::check_reply(req, &reply),
            Err(e) => (0, Some(oracle::Mismatch(format!("{}: {e}", req.path())))),
        };
        self.attempted += req.answers() as u64;
        self.failed += (req.answers() - passed) as u64;
        if let Some(e) = err {
            self.note(e.0);
        }
        passed as u64
    }

    fn note(&mut self, error: String) {
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

fn post(addr: SocketAddr, req: &Req) -> io::Result<Reply> {
    client::exchange(addr, "POST", req.path(), &req.body)
}

/// One measured window.
struct Window {
    latencies_ms: Vec<f64>,
    classes: Vec<&'static str>,
    /// Verified answers of each request.
    answers: Vec<u64>,
    /// When each request's reply had been checked, in seconds from the
    /// window's start.
    done_s: Vec<f64>,
    elapsed_s: f64,
}

/// Consecutive request groups `answers_per_s` takes its median over.
const RATE_GROUPS: usize = 5;

impl Window {
    /// Verified answers over elapsed time for each of five consecutive,
    /// equally sized groups of requests.
    fn group_rates(&self) -> Vec<f64> {
        let n = self.done_s.len();
        if n < RATE_GROUPS {
            return vec![self.answers.iter().sum::<u64>() as f64 / self.elapsed_s];
        }
        (0..RATE_GROUPS)
            .map(|g| {
                let (lo, hi) = (g * n / RATE_GROUPS, (g + 1) * n / RATE_GROUPS);
                let start = if lo == 0 { 0.0 } else { self.done_s[lo - 1] };
                self.answers[lo..hi].iter().sum::<u64>() as f64 / (self.done_s[hi - 1] - start)
            })
            .collect()
    }

    /// Verified answers per second: the median of the group rates, so one
    /// burst of host noise moves one group rather than the whole figure.
    fn answers_per_s(&self) -> f64 {
        percentile(&self.group_rates(), 0.5)
    }
}

/// Drives the closed loop for `length`, calling `after` with each request
/// and its latency once it has been checked.
fn measure(
    addr: SocketAddr,
    stream: &mut Stream,
    length: Duration,
    tally: &mut Tally,
    mut after: impl FnMut(&Req, f64),
) -> Window {
    let mut w = Window {
        latencies_ms: Vec::new(),
        classes: Vec::new(),
        answers: Vec::new(),
        done_s: Vec::new(),
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    while start.elapsed() < length {
        let req = stream.next_req();
        let sent = Instant::now();
        let reply = post(addr, &req);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        // A transport error means the server is gone; the run has failed.
        let broken = reply.is_err();
        w.answers.push(tally.check(&req, reply));
        w.latencies_ms.push(ms);
        w.classes.push(req.class);
        after(&req, ms);
        w.done_s.push(start.elapsed().as_secs_f64());
        if broken {
            break;
        }
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

/// Linear-interpolated percentile of `values` (`p` in 0..=1).
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Spawn → ready → warm-up; returns the server and the seconds it took.
fn setup(args: &Args, warmup: &[Req], tally: &mut Tally) -> io::Result<(Server, f64)> {
    let started = Instant::now();
    let server = Server::spawn(&args.server)?;
    let health = client::exchange(server.addr, "GET", "/healthz", "")?;
    if health.status != 200 {
        return Err(io::Error::other(format!(
            "/healthz answered {}",
            health.status
        )));
    }
    for req in warmup {
        tally.check(req, post(server.addr, req));
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// The cache counter that must stay still during a window: misses for a
/// workload served from cache, hits for the others.
fn check_cache(kind: Kind, before: &Scrape, after: &Scrape, tally: &mut Tally) -> bool {
    let series = if kind.hits_cache() {
        "bayonet_cache_misses_total"
    } else {
        "bayonet_cache_hits_total"
    };
    let moved = after.delta(before, series);
    if moved != 0.0 {
        tally.note(format!("{series} moved by {moved} during the window"));
    }
    moved == 0.0
}

/// Host readings that let a noisy run be attributed.
struct Host {
    time_wait_at_start: u64,
    steal_ms: f64,
    conns_per_s: f64,
}

fn report_classes(w: &Window) {
    let mut classes: Vec<&str> = w.classes.clone();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let lat: Vec<f64> = w
            .latencies_ms
            .iter()
            .zip(&w.classes)
            .filter(|(_, c)| **c == class)
            .map(|(l, _)| *l)
            .collect();
        eprintln!(
            "perfbench:   {class:<14} n={:<5} p50={:.3} ms",
            lat.len(),
            percentile(&lat, 0.5)
        );
    }
}

fn run(args: &Args) -> io::Result<(Tally, bool, Metrics)> {
    let mut tally = Tally::default();
    let mut stream = Stream::new(args.kind, args.seed);
    let warmup = stream.warmup();
    let time_wait_at_start = client::time_wait_count();

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..repeats {
        let (s, secs) = setup(args, &warmup, &mut tally)?;
        setups.push(secs);
        if let Some(old) = server.replace(s) {
            Server::stop(old);
        }
    }
    let server = server.expect("at least one set-up");
    let (addr, pid) = (server.addr, server.pid());

    let mut metrics = Metrics::default();
    let mut cache_ok = true;
    let window = |tally: &mut Tally,
                  stream: &mut Stream,
                  length: Duration,
                  after: &mut dyn FnMut(&Req, f64)| {
        let before = Scrape::take(addr)?;
        let steal = client::steal_ms();
        let w = measure(addr, stream, length, tally, after);
        let steal_ms = client::steal_ms() - steal;
        let after = Scrape::take(addr)?;
        let ok = check_cache(args.kind, &before, &after, tally);
        let host = Host {
            time_wait_at_start,
            steal_ms,
            conns_per_s: w.latencies_ms.len() as f64 / w.elapsed_s,
        };
        io::Result::Ok((w, before, after, ok, host))
    };

    if !args.trace {
        let full = Duration::from_secs(args.seconds);
        let (w, _, _, ok, host) = window(&mut tally, &mut stream, full, &mut |_, _| {})?;
        cache_ok &= ok;
        metrics.put("answers_per_s", w.answers_per_s(), "1/s");
        metrics.put("latency_p50_ms", percentile(&w.latencies_ms, 0.5), "ms");
        metrics.put("latency_p90_ms", percentile(&w.latencies_ms, 0.9), "ms");
        metrics.put("setup_s", percentile(&setups, 0.5), "s");
        let rss = client::peak_rss_mb(pid).unwrap_or(f64::NAN);
        metrics.put("peak_rss_mb", rss, "MB");
        eprintln!(
            "perfbench: {} requests, {} answers in {:.2} s, group answers/s {:.1?}; \
             setups {setups:.3?} s; host: steal {:.0} ms, {} TIME_WAIT at start, {:.1} conn/s",
            w.latencies_ms.len(),
            w.answers.iter().sum::<u64>(),
            w.elapsed_s,
            w.group_rates(),
            host.steal_ms,
            host.time_wait_at_start,
            host.conns_per_s
        );
        report_classes(&w);
        server.stop();
        return Ok((tally, cache_ok, metrics));
    }

    // Traced run: an untraced window, then the same stream traced, each
    // half of `--seconds`, so a traced run takes as long as an untraced one.
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let (plain, _, _, ok, _) = window(&mut tally, &mut stream, half, &mut |_, _| {})?;
    cache_ok &= ok;
    let mut replay = Replay::new(&warmup);
    let cached = args.kind.hits_cache();
    let (traced, before, after, ok, host) =
        window(&mut tally, &mut stream, half, &mut |req, ms| {
            replay.request(req, ms, cached)
        })?;
    cache_ok &= ok;
    replay.metrics(&mut metrics);
    for (metric, series) in [
        ("serve.cache_hits", "bayonet_cache_hits_total"),
        ("serve.cache_misses", "bayonet_cache_misses_total"),
        ("serve.batch.compiles", "bayonet_batch_compiles_total"),
    ] {
        metrics.put(metric, after.delta(&before, series), "count");
    }
    metrics.put("host.steal_ms", host.steal_ms, "ms");
    metrics.put(
        "host.time_wait_at_start",
        host.time_wait_at_start as f64,
        "count",
    );
    metrics.put("host.conns_per_s", host.conns_per_s, "1/s");
    metrics.put("trace.answers_per_s", traced.answers_per_s(), "1/s");
    metrics.put("trace.untraced_answers_per_s", plain.answers_per_s(), "1/s");
    metrics.put(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.answers_per_s() / plain.answers_per_s()),
        "%",
    );
    baseline_counts(addr, args.seed, &mut tally, &mut metrics)?;
    server.stop();
    Ok((tally, cache_ok, metrics))
}

/// The defects found while sizing the benchmark, as named counts.
fn baseline_counts(
    addr: SocketAddr,
    seed: u64,
    tally: &mut Tally,
    m: &mut Metrics,
) -> io::Result<()> {
    // Duplicate misses inside one batch: misses beyond the distinct keys.
    // Bindings lie outside every stream's range, so each key is new here.
    let salt = (seed % 1000) as i128;
    let gossip = Item {
        prog: Prog::GossipK,
        bindings: vec![("K", Q::new(60_000 + salt, 10_007))],
        smc: None,
    };
    let gossip_dups = duplicate_misses(addr, vec![gossip; 10], 1, tally)?;
    let ecmp: Vec<Item> = (0..10)
        .map(|i| Item {
            prog: Prog::Ecmp,
            bindings: vec![
                ("COST_01", Q::int(1)),
                ("COST_02", Q::int(5_000 + 10 * salt + i / 2)),
                ("COST_21", Q::int(1)),
            ],
            smc: None,
        })
        .collect();
    let ecmp_dups = duplicate_misses(addr, ecmp, 5, tally)?;
    m.put("serve.batch.duplicate_misses.gossip", gossip_dups, "count");
    m.put("serve.batch.duplicate_misses.ecmp", ecmp_dups, "count");
    m.put(
        "serve.batch.duplicate_misses",
        gossip_dups + ecmp_dups,
        "count",
    );

    // A cached item inside a batch against one cached run of the same item.
    let item = Item {
        prog: Prog::Fattree,
        bindings: vec![("P_LOSS", Q::new(2, 5))],
        smc: None,
    };
    let single = Req::new("probe", Work::Run(item.clone()));
    let batch = Req::new(
        "probe",
        Work::Batch {
            shared: None,
            items: vec![item; 16],
        },
    );
    tally.check(&single, post(addr, &single));
    let timed = |req: &Req, tally: &mut Tally| {
        let mut ms: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let reply = post(addr, req);
                let elapsed = t.elapsed().as_secs_f64() * 1e3;
                tally.check(req, reply);
                elapsed
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[2]
    };
    let run_ms = timed(&single, tally);
    let item_ms = timed(&batch, tally) / 16.0;
    m.put("serve.cached_run_ms", run_ms, "ms");
    m.put("serve.batch.cached_item_ms", item_ms, "ms");
    m.put("serve.batch.cached_item_vs_run", item_ms / run_ms, "ratio");

    // Planner: chosen engine's time over the fastest's, per run_miss class.
    let class = |prog, bindings| Item {
        prog,
        bindings,
        smc: None,
    };
    let mut worst: f64 = 0.0;
    for (name, item) in [
        ("gossip", class(Prog::GossipK, vec![("K", Q::int(3))])),
        (
            "ecmp",
            class(
                Prog::Ecmp,
                vec![
                    ("COST_01", Q::int(1)),
                    ("COST_02", Q::int(1)),
                    ("COST_21", Q::int(1)),
                ],
            ),
        ),
        (
            "fattree",
            class(Prog::Fattree, vec![("P_LOSS", Q::new(1, 3))]),
        ),
        ("lossy", class(Prog::Lossy, vec![("P_LOSS", Q::new(1, 3))])),
    ] {
        let ratio = trace::auto_vs_best(&item);
        worst = worst.max(ratio);
        m.put(&format!("exact.plan.auto_vs_best.{name}"), ratio, "ratio");
    }
    m.put("exact.plan.auto_vs_best", worst, "ratio");
    Ok(())
}

/// Sends one batch of `items` (with `distinct` distinct keys) and returns
/// the cache misses it caused beyond one per distinct key.
fn duplicate_misses(
    addr: SocketAddr,
    items: Vec<Item>,
    distinct: usize,
    tally: &mut Tally,
) -> io::Result<f64> {
    let req = Req::new(
        "probe",
        Work::Batch {
            shared: None,
            items,
        },
    );
    let before = Scrape::take(addr)?;
    tally.check(&req, post(addr, &req));
    let after = Scrape::take(addr)?;
    Ok(after.delta(&before, "bayonet_cache_misses_total") - distinct as f64)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, cache_ok, metrics)) => {
            for e in &tally.errors {
                eprintln!("perfbench: FAILED {e}");
            }
            let correct = tally.failed == 0 && cache_ok && tally.attempted > 0;
            println!(
                r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{}}}"#,
                tally.attempted,
                tally.failed,
                metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
