//! Service metrics with Prometheus text exposition.
//!
//! One ordered table, [`FAMILIES`], declares every series `/metrics`
//! exposes: its name, HELP text, TYPE and where its value comes from.
//! Every unlabelled counter and gauge the registry owns is one slot of a
//! lock-free atomic array indexed by [`Counter`]; only the labelled
//! families (per endpoint, route or engine) and the cost-ratio histogram
//! sit behind one mutex. [`Metrics::render`] walks the table once.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::iter::once;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bayonet_exact::{ComputePool, EngineStats, PoolStats};

use crate::persist::PersistCounters;

/// Latency histogram bucket upper bounds, in seconds.
const BUCKETS: [f64; 8] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// Bucket upper bounds for the planner's actual/predicted cost ratio.
/// Centered on 1.0: buckets below it are overestimates (the run beat the
/// prediction), above it underestimates.
const RATIO_BUCKETS: [f64; 9] = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0];

/// One unlabelled counter or gauge owned by the registry: an index into
/// [`Metrics`]'s atomic array. Its series is the [`FAMILIES`] row whose
/// source is `Source::Scalar` of this variant.
#[rustfmt::skip]
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    // Event loop and workers.
    QueueDepth, OpenConnections, Accepted, ReadTimeouts, WriteTimeouts, LoopWakeups, ConnShed,
    WorkerPanics,
    // Result cache.
    CacheHits, CacheMisses, CacheEvictions,
    // `/v1/batch` and `/v1/sweep` totals.
    Batches, BatchItems, BatchItemErrors, BatchCompiles, BatchSourceReuse,
    SweepPoints, SweepPointErrors, SweepPrefixReuse, SweepPrefixSteps,
    // Explorations kept with optimized models.
    MemoHits, MemoReweighs, MemoShapeFallbacks, MemoMisses, MemoBytes,
    // Exact-engine work, summed over every run.
    EngineSteps, EngineExpansions, EngineMergeHits, EnginePeakConfigs,
    OptPassRuns, OptOrbitStatesMerged,
    BddNodes, BddUniqueHits, BddApplyCacheHits, FeasibilityHits, FeasibilityMisses,
    // Planner.
    PlannerRejections,
}

const COUNTERS: usize = Counter::PlannerRejections as usize + 1;

/// Where a family's samples come from.
#[derive(Clone, Copy)]
enum Source {
    /// One slot of the atomic array.
    Scalar(Counter),
    /// A persistent-cache counter; the family is omitted until bound.
    Persist(fn(&PersistCounters) -> u64),
    /// A compute-pool statistic; the family is omitted until bound.
    Pool(fn(&PoolStats) -> u64),
    /// Requests per (endpoint, status).
    Requests,
    /// The latency histogram of each endpoint.
    Latency,
    /// A count per value of one label.
    Labelled(&'static str, fn(&Inner) -> &BTreeMap<&'static str, u64>),
    /// The planner's cost-ratio histogram.
    CostRatio,
}

/// One row of the registry table.
struct Family {
    name: &'static str,
    kind: &'static str,
    source: Source,
    help: &'static str,
}

const fn counter(name: &'static str, source: Source, help: &'static str) -> Family {
    Family {
        name,
        kind: "counter",
        source,
        help,
    }
}

const fn gauge(name: &'static str, source: Source, help: &'static str) -> Family {
    Family {
        name,
        kind: "gauge",
        source,
        help,
    }
}

const fn histogram(name: &'static str, source: Source, help: &'static str) -> Family {
    Family {
        name,
        kind: "histogram",
        source,
        help,
    }
}

use Counter as C;
use Source::{CostRatio, Labelled, Latency, Persist, Pool, Requests, Scalar};

/// Every family `/metrics` exposes, in exposition order.
#[rustfmt::skip]
const FAMILIES: [Family; 50] = [
    counter("bayonet_requests_total", Requests, "Completed HTTP requests."),
    histogram("bayonet_request_seconds", Latency, "Request latency."),
    gauge("bayonet_queue_depth", Scalar(C::QueueDepth), "Jobs waiting in the worker queue."),
    gauge("bayonet_http_open_connections", Scalar(C::OpenConnections),
        "Connections currently open on the event loop."),
    counter("bayonet_http_accepted_total", Scalar(C::Accepted), "Connections accepted."),
    counter("bayonet_http_read_timeouts_total", Scalar(C::ReadTimeouts),
        "Connections killed by the per-connection read deadline (slow-loris defense)."),
    counter("bayonet_http_write_timeouts_total", Scalar(C::WriteTimeouts),
        "Connections killed by the per-connection write deadline."),
    counter("bayonet_http_loop_wakeups_total", Scalar(C::LoopWakeups), "Event-loop wakeups."),
    counter("bayonet_http_conn_shed_total", Scalar(C::ConnShed),
        "Connections answered 503 by the loop (queue full or connection cap)."),
    counter("bayonet_worker_panics_total", Scalar(C::WorkerPanics),
        "Requests whose worker panicked; the worker survives."),
    counter("bayonet_cache_hits_total", Scalar(C::CacheHits), "Result cache hits."),
    counter("bayonet_cache_misses_total", Scalar(C::CacheMisses), "Result cache misses."),
    counter("bayonet_cache_evictions_total", Scalar(C::CacheEvictions),
        "Entries evicted by LRU pressure."),
    counter("bayonet_cache_persist_writes_total", Persist(|p| p.writes.load(Ordering::Relaxed)),
        "Records durably appended to the segment (post-fsync)."),
    counter("bayonet_cache_persist_load_ok_total", Persist(|p| p.load_ok.load(Ordering::Relaxed)),
        "Records warm-loaded at startup."),
    counter("bayonet_cache_persist_load_corrupt_total",
        Persist(|p| p.load_corrupt.load(Ordering::Relaxed)),
        "Records skipped at startup (CRC mismatch, torn tail, bad header)."),
    counter("bayonet_cache_persist_compactions_total",
        Persist(|p| p.compactions.load(Ordering::Relaxed)),
        "Segment rewrites triggered by the size bound."),
    gauge("bayonet_cache_persist_size_bytes", Persist(|p| p.size_bytes.load(Ordering::Relaxed)),
        "Segment file size."),
    counter("bayonet_batch_requests_total", Scalar(C::Batches), "Batches handled by /v1/batch."),
    counter("bayonet_batch_items_total", Scalar(C::BatchItems), "Batch items executed."),
    counter("bayonet_batch_item_errors_total", Scalar(C::BatchItemErrors),
        "Batch items that produced an error frame."),
    counter("bayonet_batch_compiles_total", Scalar(C::BatchCompiles),
        "Distinct canonical sources parsed+checked+compiled for batches."),
    counter("bayonet_batch_source_reuse_total", Scalar(C::BatchSourceReuse),
        "Batch items that reused a batch-local compiled source."),
    counter("bayonet_sweep_requests_total", Labelled("route", |i| &i.sweeps),
        "Sweeps handled by /v1/sweep, per sharing route."),
    counter("bayonet_sweep_points_total", Scalar(C::SweepPoints), "Sweep grid points answered."),
    counter("bayonet_sweep_point_errors_total", Scalar(C::SweepPointErrors),
        "Sweep points that produced an error frame."),
    counter("bayonet_sweep_prefix_reuse_total", Scalar(C::SweepPrefixReuse),
        "Sweep points answered by reusing shared exploration instead of a full independent run."),
    counter("bayonet_sweep_prefix_steps_total", Scalar(C::SweepPrefixSteps),
        "Global steps of shared (run-once) sweep exploration."),
    counter("bayonet_exploration_memo_hits_total", Scalar(C::MemoHits),
        "Exact runs answered from a kept exploration, without exploring."),
    counter("bayonet_exploration_memo_reweighs_total", Scalar(C::MemoReweighs),
        "Memo hits answered by re-weighing a kept transition DAG under a new binding."),
    counter("bayonet_exploration_memo_shape_fallbacks_total", Scalar(C::MemoShapeFallbacks),
        "Re-weighs abandoned because the new binding changed the DAG's shape; each explores afresh."),
    counter("bayonet_exploration_memo_misses_total", Scalar(C::MemoMisses),
        "Explorations run for a kept program with every parameter bound."),
    gauge("bayonet_exploration_memo_bytes", Scalar(C::MemoBytes),
        "Estimated size of the kept explorations."),
    counter("bayonet_engine_steps_total", Scalar(C::EngineSteps), "Exact-engine global steps."),
    counter("bayonet_engine_expansions_total", Scalar(C::EngineExpansions),
        "Exact-engine expansions."),
    counter("bayonet_engine_merge_hits_total", Scalar(C::EngineMergeHits),
        "Configuration merges."),
    gauge("bayonet_engine_peak_configs", Scalar(C::EnginePeakConfigs), "Largest frontier seen."),
    counter("bayonet_opt_pass_runs_total", Scalar(C::OptPassRuns),
        "Symmetry searches: one per optimized model."),
    counter("bayonet_opt_orbit_states_merged_total", Scalar(C::OptOrbitStatesMerged),
        "Frontier configurations replaced by their symmetry-orbit representative."),
    counter("bayonet_bdd_nodes_total", Scalar(C::BddNodes),
        "ADD store decision nodes allocated."),
    counter("bayonet_bdd_unique_hits_total", Scalar(C::BddUniqueHits),
        "ADD unique-table hits (structural merges)."),
    counter("bayonet_bdd_apply_cache_hits_total", Scalar(C::BddApplyCacheHits),
        "ADD apply/weight memo cache hits."),
    counter("bayonet_engine_feasibility_hits_total", Scalar(C::FeasibilityHits),
        "Fourier–Motzkin feasibility checks answered from the per-run guard cache."),
    counter("bayonet_engine_feasibility_misses_total", Scalar(C::FeasibilityMisses),
        "Feasibility checks that ran the full elimination."),
    counter("bayonet_planner_decisions_total", Labelled("engine", |i| &i.planner_decisions),
        "Auto-routing decisions per chosen engine."),
    counter("bayonet_planner_rejections_total", Scalar(C::PlannerRejections),
        "Requests rejected up front because the cost estimate exceeded the deadline budget."),
    histogram("bayonet_planner_cost_ratio", CostRatio,
        "Actual/predicted wall-clock ratio of planner-routed runs (1.0 = perfect prediction)."),
    gauge("bayonet_pool_workers_total", Pool(|s| s.capacity as u64), "Compute-pool slots."),
    gauge("bayonet_pool_workers_busy", Pool(|s| s.busy as u64),
        "Compute-pool slots currently leased."),
    counter("bayonet_pool_leases_total", Pool(|s| s.leases),
        "Leases that granted at least one slot."),
];

/// Writes one sample line: `name value` or `name{k="v",...} value`.
fn sample(out: &mut String, name: &str, labels: &[(&str, &dyn Display)], value: impl Display) {
    out.push_str(name);
    for (i, (key, val)) in labels.iter().enumerate() {
        let _ = write!(out, "{}{key}=\"{val}\"", if i == 0 { '{' } else { ',' });
    }
    if !labels.is_empty() {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// A cumulative histogram over fixed bucket upper bounds.
struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Histogram {
        Histogram {
            bounds,
            counts: vec![0; bounds.len()],
            total: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        for (count, bound) in self.counts.iter_mut().zip(self.bounds) {
            if value <= *bound {
                *count += 1;
            }
        }
        self.total += 1;
        self.sum += value;
    }

    /// Writes the `_bucket`, `_sum` and `_count` samples of `name`, each
    /// carrying `label` when one is given.
    fn render(&self, out: &mut String, name: &str, label: Option<(&str, &dyn Display)>) {
        let bucket = format!("{name}_bucket");
        let bounds = self.bounds.iter().map(|b| b as &dyn Display);
        let counts = self.counts.iter().chain(once(&self.total));
        for (le, count) in bounds.chain(once(&"+Inf" as &dyn Display)).zip(counts) {
            let labels: Vec<_> = label.into_iter().chain(once(("le", le))).collect();
            sample(out, &bucket, &labels, count);
        }
        let labels: Vec<_> = label.into_iter().collect();
        sample(out, &format!("{name}_sum"), &labels, self.sum);
        sample(out, &format!("{name}_count"), &labels, self.total);
    }
}

/// The labelled families: the only state behind the mutex.
struct Inner {
    /// (endpoint, status) → count.
    requests: BTreeMap<(&'static str, u16), u64>,
    /// endpoint → latency histogram.
    latency: BTreeMap<&'static str, Histogram>,
    /// Sweeps handled per sharing route (`symbolic`, `prefix`,
    /// `per_point`, or `cached` when every point came from the cache).
    sweeps: BTreeMap<&'static str, u64>,
    /// Planner routing decisions per chosen engine (`"engine": "auto"`).
    planner_decisions: BTreeMap<&'static str, u64>,
    /// Actual/predicted cost ratios of planner-routed runs.
    planner_ratio: Histogram,
}

/// The service metrics registry.
pub struct Metrics {
    counters: [AtomicI64; COUNTERS],
    inner: Mutex<Inner>,
    /// Shared compute pool whose occupancy and lease counts are exported; bound
    /// once at service construction when parallel expansion is enabled.
    pool: Mutex<Option<ComputePool>>,
    /// Persistent-cache counters; bound once at service construction when
    /// `--cache-dir` is set.
    persist: Mutex<Option<Arc<PersistCounters>>>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            counters: [const { AtomicI64::new(0) }; COUNTERS],
            inner: Mutex::new(Inner {
                requests: BTreeMap::new(),
                latency: BTreeMap::new(),
                sweeps: BTreeMap::new(),
                planner_decisions: BTreeMap::new(),
                planner_ratio: Histogram::new(&RATIO_BUCKETS),
            }),
            pool: Mutex::new(None),
            persist: Mutex::new(None),
        }
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to `counter`; gauges go down with a negative delta.
    pub(crate) fn add(&self, counter: Counter, delta: i64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge `counter` to `value` (the LRU's lifetime eviction
    /// count is mirrored, not incremented, so warm-load evictions count).
    pub(crate) fn set(&self, counter: Counter, value: u64) {
        self.counters[counter as usize].store(value as i64, Ordering::Relaxed);
    }

    /// Current value of `counter`, clamped at zero.
    fn get(&self, counter: Counter) -> i64 {
        self.counters[counter as usize]
            .load(Ordering::Relaxed)
            .max(0)
    }

    /// Records one completed request.
    pub fn record_request(&self, endpoint: &'static str, status: u16, elapsed: Duration) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        *inner.requests.entry((endpoint, status)).or_insert(0) += 1;
        inner
            .latency
            .entry(endpoint)
            .or_insert_with(|| Histogram::new(&BUCKETS))
            .observe(elapsed.as_secs_f64());
    }

    /// Folds one completed parameter sweep into the `bayonet_sweep_*`
    /// totals: `points` answered via sharing route `route`, of which
    /// `point_errors` produced error frames and `reused` were answered from
    /// shared work (a fully-shared 16-point sweep reuses 15 — the first
    /// point is charged with the shared exploration of `prefix_steps`
    /// global steps).
    pub fn record_sweep(
        &self,
        route: &'static str,
        points: u64,
        point_errors: u64,
        reused: u64,
        prefix_steps: u64,
    ) {
        self.add(C::SweepPoints, points as i64);
        self.add(C::SweepPointErrors, point_errors as i64);
        self.add(C::SweepPrefixReuse, reused as i64);
        self.add(C::SweepPrefixSteps, prefix_steps as i64);
        let mut inner = self.inner.lock().expect("metrics mutex");
        *inner.sweeps.entry(route).or_insert(0) += 1;
    }

    /// Folds one exact-engine run into the cumulative totals.
    pub fn record_engine(&self, stats: &EngineStats) {
        self.add(C::EngineSteps, stats.steps as i64);
        self.add(C::EngineExpansions, stats.expansions as i64);
        self.add(C::EngineMergeHits, stats.merge_hits as i64);
        self.counters[C::EnginePeakConfigs as usize]
            .fetch_max(stats.peak_configs as i64, Ordering::Relaxed);
        self.add(C::OptOrbitStatesMerged, stats.orbit_merges as i64);
        self.add(C::BddNodes, stats.bdd_nodes as i64);
        self.add(C::BddUniqueHits, stats.bdd_unique_hits as i64);
        self.add(C::BddApplyCacheHits, stats.bdd_apply_cache_hits as i64);
    }

    /// Records one planner routing decision (`"engine": "auto"` resolved to
    /// `engine`).
    pub fn record_planner_decision(&self, engine: &'static str) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        *inner.planner_decisions.entry(engine).or_insert(0) += 1;
    }

    /// Records the actual/predicted cost ratio of one planner-routed run.
    pub fn record_planner_ratio(&self, ratio: f64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        inner.planner_ratio.observe(ratio);
    }

    /// Binds the shared compute pool whose occupancy and lease counts are
    /// exported as `bayonet_pool_*` metrics.
    pub fn bind_pool(&self, pool: ComputePool) {
        *self.pool.lock().expect("pool mutex") = Some(pool);
    }

    /// Binds the persistent-cache counters, exported as
    /// `bayonet_cache_persist_*`.
    pub fn bind_persist(&self, counters: Arc<PersistCounters>) {
        *self.persist.lock().expect("persist mutex") = Some(counters);
    }

    /// Current cache hit/miss counters `(hits, misses)`.
    pub fn cache_counts(&self) -> (u64, u64) {
        (
            self.get(C::CacheHits) as u64,
            self.get(C::CacheMisses) as u64,
        )
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("metrics mutex");
        let persist = self.persist.lock().expect("persist mutex").clone();
        let pool = self
            .pool
            .lock()
            .expect("pool mutex")
            .as_ref()
            .map(ComputePool::stats);
        let mut out = String::new();
        for family in &FAMILIES {
            let (name, source) = (family.name, family.source);
            // The persistence and pool families appear only once bound.
            match source {
                Persist(_) if persist.is_none() => continue,
                Pool(_) if pool.is_none() => continue,
                _ => {}
            }
            let (help, kind) = (family.help, family.kind);
            let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
            match source {
                Scalar(counter) => sample(&mut out, name, &[], self.get(counter)),
                Persist(read) => sample(&mut out, name, &[], persist.as_deref().map_or(0, read)),
                Pool(read) => sample(&mut out, name, &[], pool.as_ref().map_or(0, read)),
                Requests => {
                    for ((endpoint, status), count) in &inner.requests {
                        sample(
                            &mut out,
                            name,
                            &[("endpoint", endpoint), ("status", status)],
                            count,
                        );
                    }
                }
                Latency => {
                    for (endpoint, hist) in &inner.latency {
                        hist.render(&mut out, name, Some(("endpoint", endpoint)));
                    }
                }
                Labelled(label, read) => {
                    for (value, count) in read(&inner) {
                        sample(&mut out, name, &[(label, value)], count);
                    }
                }
                CostRatio => inner.planner_ratio.render(&mut out, name, None),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a fixed event sequence — both histograms, two endpoints,
    /// both sweep routes, two planner engines, every event-loop counter,
    /// and bound persistence and pool — and compares the exposition with
    /// `tests/golden/metrics.txt` byte for byte.
    #[test]
    fn renders_prometheus_text() {
        let m = Metrics::new();
        m.record_request("/v1/run", 200, Duration::from_millis(3));
        m.record_request("/v1/run", 200, Duration::from_millis(700));
        m.record_request("/v1/run", 422, Duration::from_millis(20));
        m.record_request("/healthz", 200, Duration::from_micros(50));
        m.record_request("_io", 408, Duration::ZERO);
        let events = [
            (C::CacheHits, 2),
            (C::CacheMisses, 1),
            (C::QueueDepth, 3),
            (C::QueueDepth, -1),
            (C::Accepted, 3),
            (C::OpenConnections, 3),
            (C::OpenConnections, -1),
            (C::ReadTimeouts, 1),
            (C::WriteTimeouts, 2),
            (C::LoopWakeups, 7),
            (C::ConnShed, 1),
            (C::WorkerPanics, 1),
            (C::Batches, 2),
            (C::BatchItems, 13),
            (C::BatchItemErrors, 2),
            (C::BatchCompiles, 3),
            (C::BatchSourceReuse, 10),
            (C::OptPassRuns, 4),
            (C::FeasibilityHits, 12),
            (C::FeasibilityMisses, 7),
            (C::PlannerRejections, 1),
        ];
        for (counter, delta) in events {
            m.add(counter, delta);
        }
        m.set(C::CacheEvictions, 9);
        m.set(C::CacheEvictions, 6);
        let persist = Arc::new(PersistCounters::default());
        persist.writes.store(4, Ordering::Relaxed);
        persist.load_ok.store(3, Ordering::Relaxed);
        persist.load_corrupt.store(2, Ordering::Relaxed);
        persist.compactions.store(1, Ordering::Relaxed);
        persist.size_bytes.store(512, Ordering::Relaxed);
        m.bind_persist(persist);
        m.record_sweep("prefix", 16, 1, 15, 7);
        m.record_sweep("symbolic", 4, 0, 3, 2);
        m.record_sweep("prefix", 2, 0, 1, 4);
        let stats = EngineStats {
            steps: 10,
            expansions: 100,
            peak_configs: 7,
            merge_hits: 3,
            terminal_configs: 2,
            orbit_merges: 12,
            feasibility_hits: 0,
            feasibility_misses: 0,
            bdd_nodes: 21,
            bdd_unique_hits: 13,
            bdd_apply_cache_hits: 8,
        };
        m.record_engine(&stats);
        m.record_engine(&EngineStats {
            peak_configs: 4,
            ..stats
        });
        m.record_planner_decision("bdd");
        m.record_planner_decision("bdd");
        m.record_planner_decision("smc");
        for ratio in [0.4, 3.0, 40.0] {
            m.record_planner_ratio(ratio);
        }
        let pool = ComputePool::new(8);
        let lease = pool.lease(3);
        drop(pool.lease(1));
        m.bind_pool(pool);
        let text = m.render();
        assert_eq!(text, include_str!("../tests/golden/metrics.txt"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line");
            assert!(value.parse::<f64>().is_ok(), "bad metric line: {line}");
        }
        drop(lease);
    }

    #[test]
    fn every_family_is_documented() {
        let doc = include_str!("../../../docs/SERVER.md");
        for family in &FAMILIES {
            assert!(
                doc.contains(&format!("`{}`", family.name)),
                "{} is missing from docs/SERVER.md",
                family.name
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::new(&BUCKETS);
        h.observe(0.0005);
        h.observe(0.02);
        h.observe(100.0);
        assert_eq!(h.counts[0], 1); // <= 1ms
        assert_eq!(h.counts[3], 2); // <= 50ms
        assert_eq!(h.counts[7], 2); // <= 5s
        assert_eq!(h.total, 3);
    }
}
