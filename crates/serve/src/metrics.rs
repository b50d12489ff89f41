//! Service metrics with Prometheus text exposition.
//!
//! A single [`Metrics`] registry is shared by all workers; counters are
//! grouped behind one mutex (contention is negligible next to inference
//! work), except the queue depth gauge which the accept loop updates
//! lock-free.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bayonet_exact::{ComputePool, EngineStats};

use crate::persist::PersistCounters;

/// Latency histogram bucket upper bounds, in seconds.
const BUCKETS: [f64; 8] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// Bucket upper bounds for the planner's actual/predicted cost ratio.
/// Centered on 1.0: buckets below it are overestimates (the run beat the
/// prediction), above it underestimates.
const RATIO_BUCKETS: [f64; 9] = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0];

#[derive(Default, Clone)]
struct Histogram {
    counts: [u64; BUCKETS.len()],
    total: u64,
    sum: f64,
}

impl Histogram {
    fn observe(&mut self, seconds: f64) {
        for (i, bound) in BUCKETS.iter().enumerate() {
            if seconds <= *bound {
                self.counts[i] += 1;
            }
        }
        self.total += 1;
        self.sum += seconds;
    }
}

#[derive(Default)]
struct Inner {
    /// (endpoint, status) → count.
    requests: BTreeMap<(String, u16), u64>,
    /// endpoint → latency histogram.
    latency: BTreeMap<String, Histogram>,
    cache_hits: u64,
    cache_misses: u64,
    /// Mirror of the LRU's lifetime eviction count (set, not incremented,
    /// so warm-load evictions are included).
    cache_evictions: u64,
    /// Batch endpoint totals: batches handled, items executed, items that
    /// ended in a per-item error frame, distinct canonical sources
    /// compiled, and items that reused a batch-local compiled source.
    batches: u64,
    batch_items: u64,
    batch_item_errors: u64,
    batch_compiles: u64,
    batch_source_reuse: u64,
    /// Sweep endpoint totals: sweeps handled per sharing route (`symbolic`,
    /// `prefix`, `per_point`, or `cached` when every point came from the
    /// result cache), grid points answered, points that produced an error
    /// frame, points answered by reusing shared work instead of a full
    /// exploration, and global steps of shared (run-once) exploration.
    sweeps: BTreeMap<String, u64>,
    sweep_points: u64,
    sweep_point_errors: u64,
    sweep_prefix_reuse: u64,
    sweep_prefix_steps: u64,
    /// Cumulative exact-engine work across all requests.
    engine_steps: u64,
    engine_expansions: u64,
    engine_merge_hits: u64,
    engine_peak_configs: u64,
    /// Pass-pipeline totals: pass executions, random sites eliminated,
    /// constant guards folded (from [`bayonet_net::opt::OptReport`]), and
    /// frontier configurations replaced by their orbit representative
    /// (from [`EngineStats::orbit_merges`]).
    opt_pass_runs: u64,
    opt_flips_eliminated: u64,
    opt_guards_folded: u64,
    opt_orbit_states_merged: u64,
    bdd_nodes: u64,
    bdd_unique_hits: u64,
    bdd_apply_cache_hits: u64,
    /// Per-request feasibility-cache totals (recorded from the request's
    /// cache after analyze+answer, not folded from [`EngineStats`], so the
    /// answer-phase checks are included exactly once).
    engine_feasibility_hits: u64,
    engine_feasibility_misses: u64,
    /// Planner routing decisions per chosen engine (`"engine": "auto"`).
    planner_decisions: BTreeMap<&'static str, u64>,
    /// Requests the planner rejected up front (estimate exceeded budget).
    planner_rejections: u64,
    /// Actual/predicted cost ratios of planner-routed runs.
    planner_ratio: [u64; RATIO_BUCKETS.len()],
    planner_ratio_total: u64,
    planner_ratio_sum: f64,
}

/// The service metrics registry.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
    queue_depth: AtomicI64,
    /// Connections currently open on the event loop (accept to close).
    http_open_connections: AtomicI64,
    /// Connections accepted since startup.
    http_accepted: AtomicU64,
    /// Connections torn down because the head or body did not arrive
    /// within the read deadline (slow-loris defense).
    http_read_timeouts: AtomicU64,
    /// Connections torn down because the client stopped draining its
    /// response within the write deadline.
    http_write_timeouts: AtomicU64,
    /// Event-loop wakeups (`epoll_wait` returns, including timeouts).
    http_loop_wakeups: AtomicU64,
    /// Connections answered `503` by the loop itself (job queue full or
    /// connection cap reached) before any worker was involved.
    http_conn_shed: AtomicU64,
    /// Worker panics caught by the server's per-request guard.
    worker_panics: AtomicU64,
    /// Shared compute pool whose occupancy and lease counts are exported; bound
    /// once at service construction when parallel expansion is enabled.
    pool: Mutex<Option<ComputePool>>,
    /// Persistent-cache counters; bound once at service construction when
    /// `--cache-dir` is set.
    persist: Mutex<Option<Arc<PersistCounters>>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one completed request.
    pub fn record_request(&self, endpoint: &str, status: u16, elapsed: Duration) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        *inner
            .requests
            .entry((endpoint.to_string(), status))
            .or_insert(0) += 1;
        inner
            .latency
            .entry(endpoint.to_string())
            .or_default()
            .observe(elapsed.as_secs_f64());
    }

    /// Records a cache hit or miss.
    pub fn record_cache(&self, hit: bool) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        if hit {
            inner.cache_hits += 1;
        } else {
            inner.cache_misses += 1;
        }
    }

    /// Folds one completed batch into the `bayonet_batch_*` totals:
    /// `items` executed of which `item_errors` produced error frames,
    /// `compiles` distinct canonical sources compiled for the batch, and
    /// `source_reuse` items that ran off an already-compiled source.
    pub fn record_batch(&self, items: u64, item_errors: u64, compiles: u64, source_reuse: u64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        inner.batches += 1;
        inner.batch_items += items;
        inner.batch_item_errors += item_errors;
        inner.batch_compiles += compiles;
        inner.batch_source_reuse += source_reuse;
    }

    /// Folds one completed parameter sweep into the `bayonet_sweep_*`
    /// totals: `points` answered via sharing route `route`, of which
    /// `point_errors` produced error frames and `reused` were answered from
    /// shared work (a fully-shared 16-point sweep reuses 15 — the first
    /// point is charged with the shared exploration of `prefix_steps`
    /// global steps).
    pub fn record_sweep(
        &self,
        route: &str,
        points: u64,
        point_errors: u64,
        reused: u64,
        prefix_steps: u64,
    ) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        *inner.sweeps.entry(route.to_string()).or_insert(0) += 1;
        inner.sweep_points += points;
        inner.sweep_point_errors += point_errors;
        inner.sweep_prefix_reuse += reused;
        inner.sweep_prefix_steps += prefix_steps;
    }

    /// Folds one exact-engine run into the cumulative totals.
    pub fn record_engine(&self, stats: &EngineStats) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        inner.engine_steps += stats.steps;
        inner.engine_expansions += stats.expansions;
        inner.engine_merge_hits += stats.merge_hits;
        inner.engine_peak_configs = inner.engine_peak_configs.max(stats.peak_configs as u64);
        inner.opt_orbit_states_merged += stats.orbit_merges;
        inner.bdd_nodes += stats.bdd_nodes;
        inner.bdd_unique_hits += stats.bdd_unique_hits;
        inner.bdd_apply_cache_hits += stats.bdd_apply_cache_hits;
    }

    /// Folds one model optimization into the `bayonet_opt_*` totals:
    /// `pass_runs` pass executions that eliminated `flips_eliminated`
    /// random sites and folded `guards_folded` constant guards.
    pub fn record_opt(&self, pass_runs: u64, flips_eliminated: u64, guards_folded: u64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        inner.opt_pass_runs += pass_runs;
        inner.opt_flips_eliminated += flips_eliminated;
        inner.opt_guards_folded += guards_folded;
    }

    /// Folds one request's feasibility-cache totals (hits, misses) into the
    /// cumulative counters. Called with the final counts of the per-request
    /// cache so analyze- and answer-phase checks are each counted once.
    pub fn record_feasibility(&self, hits: u64, misses: u64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        inner.engine_feasibility_hits += hits;
        inner.engine_feasibility_misses += misses;
    }

    /// Records one planner routing decision (`"engine": "auto"` resolved to
    /// `engine`).
    pub fn record_planner_decision(&self, engine: &'static str) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        *inner.planner_decisions.entry(engine).or_insert(0) += 1;
    }

    /// Records one up-front planner rejection (estimate exceeded the
    /// deadline budget; no engine work was started).
    pub fn record_planner_rejection(&self) {
        self.inner.lock().expect("metrics mutex").planner_rejections += 1;
    }

    /// Records the actual/predicted cost ratio of one planner-routed run.
    pub fn record_planner_ratio(&self, ratio: f64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        for (i, bound) in RATIO_BUCKETS.iter().enumerate() {
            if ratio <= *bound {
                inner.planner_ratio[i] += 1;
            }
        }
        inner.planner_ratio_total += 1;
        inner.planner_ratio_sum += ratio;
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

    /// Updates the exported eviction count to the LRU's lifetime total.
    pub fn set_cache_evictions(&self, total: u64) {
        self.inner.lock().expect("metrics mutex").cache_evictions = total;
    }

    /// Adjusts the queue depth gauge (±1 from the accept loop / workers).
    pub fn queue_depth_add(&self, delta: i64) {
        self.queue_depth.fetch_add(delta, Ordering::Relaxed);
    }

    /// Records a connection accepted by the event loop.
    pub fn conn_opened(&self) {
        self.http_accepted.fetch_add(1, Ordering::Relaxed);
        self.http_open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection fully torn down (fd closed).
    pub fn conn_closed(&self) {
        self.http_open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current open-connection gauge value.
    pub fn open_connections(&self) -> i64 {
        self.http_open_connections.load(Ordering::Relaxed).max(0)
    }

    /// Records a connection killed by the per-connection read deadline.
    pub fn record_read_timeout(&self) {
        self.http_read_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection killed by the per-connection write deadline.
    pub fn record_write_timeout(&self) {
        self.http_write_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds `n` event-loop wakeups into the counter.
    pub fn record_wakeups(&self, n: u64) {
        self.http_loop_wakeups.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a connection the loop shed with `503` before dispatch.
    pub fn record_conn_shed(&self) {
        self.http_conn_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a panic caught while a worker served one request.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.load(Ordering::Relaxed).max(0)
    }

    /// Current cache hit/miss counters `(hits, misses)`.
    pub fn cache_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("metrics mutex");
        (inner.cache_hits, inner.cache_misses)
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("metrics mutex");
        let mut out = String::new();

        out.push_str("# HELP bayonet_requests_total Completed HTTP requests.\n");
        out.push_str("# TYPE bayonet_requests_total counter\n");
        for ((endpoint, status), count) in &inner.requests {
            let _ = writeln!(
                out,
                "bayonet_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}"
            );
        }

        out.push_str("# HELP bayonet_request_seconds Request latency.\n");
        out.push_str("# TYPE bayonet_request_seconds histogram\n");
        for (endpoint, hist) in &inner.latency {
            for (i, bound) in BUCKETS.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "bayonet_request_seconds_bucket{{endpoint=\"{endpoint}\",le=\"{bound}\"}} {}",
                    hist.counts[i]
                );
            }
            let _ = writeln!(
                out,
                "bayonet_request_seconds_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {}",
                hist.total
            );
            let _ = writeln!(
                out,
                "bayonet_request_seconds_sum{{endpoint=\"{endpoint}\"}} {}",
                hist.sum
            );
            let _ = writeln!(
                out,
                "bayonet_request_seconds_count{{endpoint=\"{endpoint}\"}} {}",
                hist.total
            );
        }

        out.push_str("# HELP bayonet_queue_depth Jobs waiting in the worker queue.\n");
        out.push_str("# TYPE bayonet_queue_depth gauge\n");
        let _ = writeln!(out, "bayonet_queue_depth {}", self.queue_depth());

        out.push_str(
            "# HELP bayonet_http_open_connections Connections currently open on the \
             event loop.\n",
        );
        out.push_str("# TYPE bayonet_http_open_connections gauge\n");
        let _ = writeln!(
            out,
            "bayonet_http_open_connections {}",
            self.open_connections()
        );
        out.push_str("# HELP bayonet_http_accepted_total Connections accepted.\n");
        out.push_str("# TYPE bayonet_http_accepted_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_http_accepted_total {}",
            self.http_accepted.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP bayonet_http_read_timeouts_total Connections killed by the \
             per-connection read deadline (slow-loris defense).\n",
        );
        out.push_str("# TYPE bayonet_http_read_timeouts_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_http_read_timeouts_total {}",
            self.http_read_timeouts.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP bayonet_http_write_timeouts_total Connections killed by the \
             per-connection write deadline.\n",
        );
        out.push_str("# TYPE bayonet_http_write_timeouts_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_http_write_timeouts_total {}",
            self.http_write_timeouts.load(Ordering::Relaxed)
        );
        out.push_str("# HELP bayonet_http_loop_wakeups_total Event-loop wakeups.\n");
        out.push_str("# TYPE bayonet_http_loop_wakeups_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_http_loop_wakeups_total {}",
            self.http_loop_wakeups.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP bayonet_http_conn_shed_total Connections answered 503 by the \
             loop (queue full or connection cap).\n",
        );
        out.push_str("# TYPE bayonet_http_conn_shed_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_http_conn_shed_total {}",
            self.http_conn_shed.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP bayonet_worker_panics_total Requests whose worker panicked; \
             the worker survives.\n",
        );
        out.push_str("# TYPE bayonet_worker_panics_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_worker_panics_total {}",
            self.worker_panics.load(Ordering::Relaxed)
        );

        out.push_str("# HELP bayonet_cache_hits_total Result cache hits.\n");
        out.push_str("# TYPE bayonet_cache_hits_total counter\n");
        let _ = writeln!(out, "bayonet_cache_hits_total {}", inner.cache_hits);
        out.push_str("# HELP bayonet_cache_misses_total Result cache misses.\n");
        out.push_str("# TYPE bayonet_cache_misses_total counter\n");
        let _ = writeln!(out, "bayonet_cache_misses_total {}", inner.cache_misses);
        out.push_str("# HELP bayonet_cache_evictions_total Entries evicted by LRU pressure.\n");
        out.push_str("# TYPE bayonet_cache_evictions_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_cache_evictions_total {}",
            inner.cache_evictions
        );

        if let Some(p) = self.persist.lock().expect("persist mutex").as_ref() {
            out.push_str(
                "# HELP bayonet_cache_persist_writes_total Records durably appended \
                 to the segment (post-fsync).\n",
            );
            out.push_str("# TYPE bayonet_cache_persist_writes_total counter\n");
            let _ = writeln!(
                out,
                "bayonet_cache_persist_writes_total {}",
                p.writes.load(Ordering::Relaxed)
            );
            out.push_str(
                "# HELP bayonet_cache_persist_load_ok_total Records warm-loaded at startup.\n",
            );
            out.push_str("# TYPE bayonet_cache_persist_load_ok_total counter\n");
            let _ = writeln!(
                out,
                "bayonet_cache_persist_load_ok_total {}",
                p.load_ok.load(Ordering::Relaxed)
            );
            out.push_str(
                "# HELP bayonet_cache_persist_load_corrupt_total Records skipped at \
                 startup (CRC mismatch, torn tail, bad header).\n",
            );
            out.push_str("# TYPE bayonet_cache_persist_load_corrupt_total counter\n");
            let _ = writeln!(
                out,
                "bayonet_cache_persist_load_corrupt_total {}",
                p.load_corrupt.load(Ordering::Relaxed)
            );
            out.push_str(
                "# HELP bayonet_cache_persist_compactions_total Segment rewrites \
                 triggered by the size bound.\n",
            );
            out.push_str("# TYPE bayonet_cache_persist_compactions_total counter\n");
            let _ = writeln!(
                out,
                "bayonet_cache_persist_compactions_total {}",
                p.compactions.load(Ordering::Relaxed)
            );
            out.push_str("# HELP bayonet_cache_persist_size_bytes Segment file size.\n");
            out.push_str("# TYPE bayonet_cache_persist_size_bytes gauge\n");
            let _ = writeln!(
                out,
                "bayonet_cache_persist_size_bytes {}",
                p.size_bytes.load(Ordering::Relaxed)
            );
        }

        out.push_str("# HELP bayonet_batch_requests_total Batches handled by /v1/batch.\n");
        out.push_str("# TYPE bayonet_batch_requests_total counter\n");
        let _ = writeln!(out, "bayonet_batch_requests_total {}", inner.batches);
        out.push_str("# HELP bayonet_batch_items_total Batch items executed.\n");
        out.push_str("# TYPE bayonet_batch_items_total counter\n");
        let _ = writeln!(out, "bayonet_batch_items_total {}", inner.batch_items);
        out.push_str(
            "# HELP bayonet_batch_item_errors_total Batch items that produced an error frame.\n",
        );
        out.push_str("# TYPE bayonet_batch_item_errors_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_batch_item_errors_total {}",
            inner.batch_item_errors
        );
        out.push_str(
            "# HELP bayonet_batch_compiles_total Distinct canonical sources \
             parsed+checked+compiled for batches.\n",
        );
        out.push_str("# TYPE bayonet_batch_compiles_total counter\n");
        let _ = writeln!(out, "bayonet_batch_compiles_total {}", inner.batch_compiles);
        out.push_str(
            "# HELP bayonet_batch_source_reuse_total Batch items that reused a \
             batch-local compiled source.\n",
        );
        out.push_str("# TYPE bayonet_batch_source_reuse_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_batch_source_reuse_total {}",
            inner.batch_source_reuse
        );

        out.push_str(
            "# HELP bayonet_sweep_requests_total Sweeps handled by /v1/sweep, per \
             sharing route.\n",
        );
        out.push_str("# TYPE bayonet_sweep_requests_total counter\n");
        for (route, count) in &inner.sweeps {
            let _ = writeln!(
                out,
                "bayonet_sweep_requests_total{{route=\"{route}\"}} {count}"
            );
        }
        out.push_str("# HELP bayonet_sweep_points_total Sweep grid points answered.\n");
        out.push_str("# TYPE bayonet_sweep_points_total counter\n");
        let _ = writeln!(out, "bayonet_sweep_points_total {}", inner.sweep_points);
        out.push_str(
            "# HELP bayonet_sweep_point_errors_total Sweep points that produced an \
             error frame.\n",
        );
        out.push_str("# TYPE bayonet_sweep_point_errors_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_sweep_point_errors_total {}",
            inner.sweep_point_errors
        );
        out.push_str(
            "# HELP bayonet_sweep_prefix_reuse_total Sweep points answered by reusing \
             shared exploration instead of a full independent run.\n",
        );
        out.push_str("# TYPE bayonet_sweep_prefix_reuse_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_sweep_prefix_reuse_total {}",
            inner.sweep_prefix_reuse
        );
        out.push_str(
            "# HELP bayonet_sweep_prefix_steps_total Global steps of shared (run-once) \
             sweep exploration.\n",
        );
        out.push_str("# TYPE bayonet_sweep_prefix_steps_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_sweep_prefix_steps_total {}",
            inner.sweep_prefix_steps
        );

        out.push_str("# HELP bayonet_engine_steps_total Exact-engine global steps.\n");
        out.push_str("# TYPE bayonet_engine_steps_total counter\n");
        let _ = writeln!(out, "bayonet_engine_steps_total {}", inner.engine_steps);
        out.push_str("# HELP bayonet_engine_expansions_total Exact-engine expansions.\n");
        out.push_str("# TYPE bayonet_engine_expansions_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_engine_expansions_total {}",
            inner.engine_expansions
        );
        out.push_str("# HELP bayonet_engine_merge_hits_total Configuration merges.\n");
        out.push_str("# TYPE bayonet_engine_merge_hits_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_engine_merge_hits_total {}",
            inner.engine_merge_hits
        );
        out.push_str("# HELP bayonet_engine_peak_configs Largest frontier seen.\n");
        out.push_str("# TYPE bayonet_engine_peak_configs gauge\n");
        let _ = writeln!(
            out,
            "bayonet_engine_peak_configs {}",
            inner.engine_peak_configs
        );
        out.push_str("# HELP bayonet_opt_pass_runs_total Model-optimization pass executions.\n");
        out.push_str("# TYPE bayonet_opt_pass_runs_total counter\n");
        let _ = writeln!(out, "bayonet_opt_pass_runs_total {}", inner.opt_pass_runs);
        out.push_str(
            "# HELP bayonet_opt_flips_eliminated_total Random sites removed by \
             dead-flip elimination.\n",
        );
        out.push_str("# TYPE bayonet_opt_flips_eliminated_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_opt_flips_eliminated_total {}",
            inner.opt_flips_eliminated
        );
        out.push_str(
            "# HELP bayonet_opt_guards_folded_total Constant guards folded by the \
             pass pipeline.\n",
        );
        out.push_str("# TYPE bayonet_opt_guards_folded_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_opt_guards_folded_total {}",
            inner.opt_guards_folded
        );
        out.push_str(
            "# HELP bayonet_opt_orbit_states_merged_total Frontier configurations \
             replaced by their symmetry-orbit representative.\n",
        );
        out.push_str("# TYPE bayonet_opt_orbit_states_merged_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_opt_orbit_states_merged_total {}",
            inner.opt_orbit_states_merged
        );
        out.push_str("# HELP bayonet_bdd_nodes_total ADD store decision nodes allocated.\n");
        out.push_str("# TYPE bayonet_bdd_nodes_total counter\n");
        let _ = writeln!(out, "bayonet_bdd_nodes_total {}", inner.bdd_nodes);
        out.push_str(
            "# HELP bayonet_bdd_unique_hits_total ADD unique-table hits \
             (structural merges).\n",
        );
        out.push_str("# TYPE bayonet_bdd_unique_hits_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_bdd_unique_hits_total {}",
            inner.bdd_unique_hits
        );
        out.push_str(
            "# HELP bayonet_bdd_apply_cache_hits_total ADD apply/weight memo \
             cache hits.\n",
        );
        out.push_str("# TYPE bayonet_bdd_apply_cache_hits_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_bdd_apply_cache_hits_total {}",
            inner.bdd_apply_cache_hits
        );
        out.push_str(
            "# HELP bayonet_engine_feasibility_hits_total Fourier–Motzkin feasibility \
             checks answered from the per-run guard cache.\n",
        );
        out.push_str("# TYPE bayonet_engine_feasibility_hits_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_engine_feasibility_hits_total {}",
            inner.engine_feasibility_hits
        );
        out.push_str(
            "# HELP bayonet_engine_feasibility_misses_total Feasibility checks that ran \
             the full elimination.\n",
        );
        out.push_str("# TYPE bayonet_engine_feasibility_misses_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_engine_feasibility_misses_total {}",
            inner.engine_feasibility_misses
        );

        out.push_str(
            "# HELP bayonet_planner_decisions_total Auto-routing decisions per \
             chosen engine.\n",
        );
        out.push_str("# TYPE bayonet_planner_decisions_total counter\n");
        for (engine, count) in &inner.planner_decisions {
            let _ = writeln!(
                out,
                "bayonet_planner_decisions_total{{engine=\"{engine}\"}} {count}"
            );
        }
        out.push_str(
            "# HELP bayonet_planner_rejections_total Requests rejected up front \
             because the cost estimate exceeded the deadline budget.\n",
        );
        out.push_str("# TYPE bayonet_planner_rejections_total counter\n");
        let _ = writeln!(
            out,
            "bayonet_planner_rejections_total {}",
            inner.planner_rejections
        );
        out.push_str(
            "# HELP bayonet_planner_cost_ratio Actual/predicted wall-clock ratio of \
             planner-routed runs (1.0 = perfect prediction).\n",
        );
        out.push_str("# TYPE bayonet_planner_cost_ratio histogram\n");
        for (i, bound) in RATIO_BUCKETS.iter().enumerate() {
            let _ = writeln!(
                out,
                "bayonet_planner_cost_ratio_bucket{{le=\"{bound}\"}} {}",
                inner.planner_ratio[i]
            );
        }
        let _ = writeln!(
            out,
            "bayonet_planner_cost_ratio_bucket{{le=\"+Inf\"}} {}",
            inner.planner_ratio_total
        );
        let _ = writeln!(
            out,
            "bayonet_planner_cost_ratio_sum {}",
            inner.planner_ratio_sum
        );
        let _ = writeln!(
            out,
            "bayonet_planner_cost_ratio_count {}",
            inner.planner_ratio_total
        );

        if let Some(pool) = self.pool.lock().expect("pool mutex").as_ref() {
            let stats = pool.stats();
            out.push_str("# HELP bayonet_pool_workers_total Compute-pool slots.\n");
            out.push_str("# TYPE bayonet_pool_workers_total gauge\n");
            let _ = writeln!(out, "bayonet_pool_workers_total {}", stats.capacity);
            out.push_str("# HELP bayonet_pool_workers_busy Compute-pool slots currently leased.\n");
            out.push_str("# TYPE bayonet_pool_workers_busy gauge\n");
            let _ = writeln!(out, "bayonet_pool_workers_busy {}", stats.busy);
            out.push_str(
                "# HELP bayonet_pool_leases_total Leases that granted at least one slot.\n",
            );
            out.push_str("# TYPE bayonet_pool_leases_total counter\n");
            let _ = writeln!(out, "bayonet_pool_leases_total {}", stats.leases);
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_prometheus_text() {
        let m = Metrics::new();
        m.record_request("/v1/run", 200, Duration::from_millis(3));
        m.record_request("/v1/run", 200, Duration::from_millis(700));
        m.record_request("/healthz", 200, Duration::from_micros(50));
        m.record_cache(true);
        m.record_cache(false);
        m.set_cache_evictions(6);
        let persist = Arc::new(PersistCounters::default());
        persist.writes.store(4, Ordering::Relaxed);
        persist.load_ok.store(3, Ordering::Relaxed);
        persist.load_corrupt.store(2, Ordering::Relaxed);
        persist.compactions.store(1, Ordering::Relaxed);
        persist.size_bytes.store(512, Ordering::Relaxed);
        m.bind_persist(persist);
        m.queue_depth_add(2);
        m.record_batch(10, 2, 1, 9);
        m.record_sweep("prefix", 16, 1, 15, 7);
        m.record_sweep("symbolic", 4, 0, 3, 2);
        m.record_engine(&EngineStats {
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
        });
        m.record_opt(3, 2, 1);
        m.record_feasibility(11, 5);
        m.record_planner_decision("bdd");
        m.record_planner_decision("bdd");
        m.record_planner_decision("smc");
        m.record_planner_rejection();
        m.record_planner_ratio(0.4);
        m.record_planner_ratio(3.0);
        let pool = ComputePool::new(8);
        let lease = pool.lease(3);
        m.bind_pool(pool);

        let text = m.render();
        assert!(text.contains("bayonet_requests_total{endpoint=\"/v1/run\",status=\"200\"} 2"));
        assert!(text.contains("bayonet_request_seconds_bucket{endpoint=\"/v1/run\",le=\"+Inf\"} 2"));
        assert!(text.contains("bayonet_request_seconds_count{endpoint=\"/healthz\"} 1"));
        assert!(text.contains("bayonet_queue_depth 2"));
        assert!(text.contains("bayonet_cache_hits_total 1"));
        assert!(text.contains("bayonet_cache_misses_total 1"));
        assert!(text.contains("bayonet_cache_evictions_total 6"));
        assert!(text.contains("bayonet_cache_persist_writes_total 4"));
        assert!(text.contains("bayonet_cache_persist_load_ok_total 3"));
        assert!(text.contains("bayonet_cache_persist_load_corrupt_total 2"));
        assert!(text.contains("bayonet_cache_persist_compactions_total 1"));
        assert!(text.contains("bayonet_cache_persist_size_bytes 512"));
        assert!(text.contains("bayonet_batch_requests_total 1"));
        assert!(text.contains("bayonet_batch_items_total 10"));
        assert!(text.contains("bayonet_batch_item_errors_total 2"));
        assert!(text.contains("bayonet_batch_compiles_total 1"));
        assert!(text.contains("bayonet_batch_source_reuse_total 9"));
        assert!(text.contains("bayonet_sweep_requests_total{route=\"prefix\"} 1"));
        assert!(text.contains("bayonet_sweep_requests_total{route=\"symbolic\"} 1"));
        assert!(text.contains("bayonet_sweep_points_total 20"));
        assert!(text.contains("bayonet_sweep_point_errors_total 1"));
        assert!(text.contains("bayonet_sweep_prefix_reuse_total 18"));
        assert!(text.contains("bayonet_sweep_prefix_steps_total 9"));
        assert!(text.contains("bayonet_engine_steps_total 10"));
        assert!(text.contains("bayonet_engine_peak_configs 7"));
        assert!(text.contains("bayonet_engine_feasibility_hits_total 11"));
        assert!(text.contains("bayonet_engine_feasibility_misses_total 5"));
        assert!(text.contains("bayonet_opt_pass_runs_total 3"));
        assert!(text.contains("bayonet_opt_flips_eliminated_total 2"));
        assert!(text.contains("bayonet_opt_guards_folded_total 1"));
        assert!(text.contains("bayonet_opt_orbit_states_merged_total 12"));
        assert!(text.contains("bayonet_bdd_nodes_total 21"));
        assert!(text.contains("bayonet_bdd_unique_hits_total 13"));
        assert!(text.contains("bayonet_bdd_apply_cache_hits_total 8"));
        assert!(text.contains("bayonet_planner_decisions_total{engine=\"bdd\"} 2"));
        assert!(text.contains("bayonet_planner_decisions_total{engine=\"smc\"} 1"));
        assert!(text.contains("bayonet_planner_rejections_total 1"));
        assert!(text.contains("bayonet_planner_cost_ratio_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("bayonet_planner_cost_ratio_bucket{le=\"4\"} 2"));
        assert!(text.contains("bayonet_planner_cost_ratio_count 2"));
        assert!(text.contains("bayonet_pool_workers_total 8"));
        assert!(text.contains("bayonet_pool_workers_busy 3"));
        assert!(text.contains("bayonet_pool_leases_total 1"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line");
            assert!(value.parse::<f64>().is_ok(), "bad metric line: {line}");
        }
        drop(lease);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        h.observe(0.0005);
        h.observe(0.02);
        h.observe(100.0);
        assert_eq!(h.counts[0], 1); // <= 1ms
        assert_eq!(h.counts[3], 2); // <= 50ms
        assert_eq!(h.counts[7], 2); // <= 5s
        assert_eq!(h.total, 3);
    }
}
