//! Shared helpers for the Bayonet benchmark harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation (§5): `table1`, `fig3`, `sec55`, `codesize`, and
//! `ablations`. `regress` times the same workloads phase by phase and
//! gates them against a committed baseline; `servebench` gates the serve
//! path's latency the same way.

pub mod workloads;

use std::time::{Duration, Instant};

use bayonet::{Error, Network};
use bayonet_num::Rat;

/// A measured exact-inference result for one query.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Exact value.
    pub value: Rat,
    /// Wall-clock time of the full run (analysis + query).
    pub elapsed: Duration,
}

/// Runs exact inference and returns the value of query `idx` with timing.
///
/// # Errors
///
/// Propagates inference errors.
pub fn time_exact(network: &Network, idx: usize) -> Result<Measured, Error> {
    let t0 = Instant::now();
    let report = network.exact()?;
    let elapsed = t0.elapsed();
    Ok(Measured {
        value: report.results[idx].rat().clone(),
        elapsed,
    })
}

/// Runs SMC and returns `(estimate, timing)`.
///
/// # Errors
///
/// Propagates inference errors.
pub fn time_smc(
    network: &Network,
    idx: usize,
    particles: usize,
    seed: u64,
) -> Result<(bayonet::Estimate, Duration), Error> {
    let t0 = Instant::now();
    let est = network.smc(
        idx,
        &bayonet::ApproxOptions {
            particles,
            seed,
            ..Default::default()
        },
    )?;
    Ok((est, t0.elapsed()))
}

/// Formats a duration compactly (e.g. "1.24s", "87ms").
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{}ms", d.as_millis())
    }
}

/// Counts non-empty, non-comment lines (the paper's code-size metric).
pub fn loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// The CI bench-regression gate shared by the `regress` and `servebench`
/// binaries' `--check <baseline.json>` flag: compare the fresh report
/// against a committed baseline and fail (exit 1) on a regression beyond
/// the tolerance.
///
/// Knobs (all environment variables, so CI jobs and noisy hosts can tune
/// the gate without touching the baselines):
///
/// * `BAYONET_BENCH_TOLERANCE` — allowed relative slowdown before the
///   gate fails, as a fraction (default `0.25`, i.e. 25%). Raise it on
///   noisy shared runners.
/// * `BAYONET_BENCH_STRICT` — set to `1` to gate even when the baseline
///   was recorded on a different host class (os/arch/profile). By default
///   a mismatch prints a warning and skips the gate, because wall-clock
///   numbers from a different machine class are not comparable.
///
/// Phases whose baseline time is under [`gate::MIN_GATED_NS`] are reported
/// but never gated: a 40 µs parse phase regressing by "30%" is scheduler
/// jitter, not a regression.
pub mod gate {
    use bayonet_serve::Json;

    /// Baseline floor below which a timing is too small to gate on.
    pub const MIN_GATED_NS: f64 = 10_000_000.0; // 10 ms

    /// Servebench latencies are micro-scale; gate a cell only when the
    /// regression also exceeds this absolute slack, so a 48 µs → 65 µs
    /// p50 on a noisy runner does not fail the build.
    pub const MIN_GATED_SLACK_US: f64 = 50.0;

    /// Allowed relative slowdown (`BAYONET_BENCH_TOLERANCE`, default 25%).
    pub fn tolerance() -> f64 {
        std::env::var("BAYONET_BENCH_TOLERANCE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.25)
    }

    /// `os/arch/profile` of a report's `machine` object: the comparability
    /// class. Cpu count is deliberately excluded — the gated phases are
    /// single-threaded.
    pub fn host_class(report: &Json) -> String {
        let field = |name: &str| {
            report
                .get("machine")
                .and_then(|m| m.get(name))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        format!("{}/{}/{}", field("os"), field("arch"), field("profile"))
    }

    /// One gated comparison row.
    pub struct Check {
        /// `workload/phase` or `cell/stat` label.
        pub label: String,
        pub baseline: f64,
        pub current: f64,
        /// Whether this row is large enough to gate on.
        pub gated: bool,
    }

    impl Check {
        /// Relative slowdown vs. baseline (`0.0` = identical, `1.0` = 2x).
        pub fn slowdown(&self) -> f64 {
            if self.baseline <= 0.0 {
                0.0
            } else {
                self.current / self.baseline - 1.0
            }
        }
    }

    /// Evaluates the rows and prints the verdict table to stderr. Returns
    /// `true` when the gate passes. `unit` labels the printed numbers.
    pub fn verdict(rows: &[Check], tol: f64, unit: &str) -> bool {
        let mut failures = 0usize;
        for row in rows {
            let slowdown = row.slowdown();
            let status = if !row.gated {
                "ungated (below noise floor)"
            } else if slowdown > tol {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            eprintln!(
                "check: {:40} baseline {:>14.0}{unit} current {:>14.0}{unit} ({:+.1}%) {status}",
                row.label,
                row.baseline,
                row.current,
                slowdown * 100.0
            );
        }
        if failures > 0 {
            eprintln!(
                "check: FAILED — {failures} regression(s) beyond {:.0}% \
                 (override with BAYONET_BENCH_TOLERANCE)",
                tol * 100.0
            );
            false
        } else {
            eprintln!(
                "check: passed — {} row(s) within {:.0}%",
                rows.len(),
                tol * 100.0
            );
            true
        }
    }

    /// Applies the host-class policy: `Some(true/false)` short-circuits the
    /// gate (skip, with the given pass verdict), `None` means proceed.
    pub fn host_class_gate(current: &Json, baseline: &Json) -> Option<bool> {
        let (now, before) = (host_class(current), host_class(baseline));
        if now == before || std::env::var("BAYONET_BENCH_STRICT").as_deref() == Ok("1") {
            if now != before {
                eprintln!(
                    "check: host class mismatch ({before} baseline vs {now} current) \
                     but BAYONET_BENCH_STRICT=1: gating anyway"
                );
            }
            None
        } else {
            eprintln!(
                "check: baseline host class {before} != current {now}; skipping the \
                 gate (set BAYONET_BENCH_STRICT=1 to force)"
            );
            Some(true)
        }
    }
}
