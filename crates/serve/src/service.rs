//! Request routing and inference execution.
//!
//! The [`Service`] is the transport-independent core of the server: it maps
//! one parsed HTTP [`Request`] to a [`Response`], running the same
//! parse → check → compile → infer pipeline as the `bayonet` CLI. Exact
//! results carry a `text` field rendered **byte-for-byte identically** to
//! `bayonet run` stdout, so clients (and tests) can diff the two directly.
//!
//! Successful inference responses are cached in an LRU keyed by a hash of
//! the canonically pretty-printed program, the engine, the query selection,
//! the engine options, and the sorted parameter bindings — so textually
//! different but structurally identical requests share cache entries. The
//! deadline and the `threads` hint are deliberately left out of the key: a
//! successful result is valid regardless of the budget that produced it,
//! parallel runs are bit-identical to single-threaded ones, and error
//! responses (including timeouts) are never cached.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bayonet_approx::{rejection, smc, ApproxError, ApproxOptions, Estimate};
use bayonet_exact::{
    analyze, answer_cached, plan_model, synthesize_result, ComputePool, EngineKind, ExactError,
    ExactOptions, FeasibilityCache, Objective, Plan, PlanDecision, PlanEngine, PlannerConfig,
    QueryResult, SweepResult, SynthesisOptions,
};
use bayonet_lang::{check, parse, pretty_program, Program};
use bayonet_net::opt::optimize;
use bayonet_net::{compile, scheduler_for, Deadline, Model, Scheduler};
use bayonet_num::Rat;

use crate::cache::LruCache;
use crate::http::{ChunkedWriter, Request, Response};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::persist::{PersistConfig, PersistentStore};

/// Default result-cache capacity (entries).
pub const DEFAULT_CACHE_ENTRIES: usize = 128;

/// Largest accepted `items` array in a `/v1/batch` request. The cap keeps
/// one hostile or confused client from parking an unbounded amount of work
/// behind a single connection; bigger workloads split into several batches.
pub const MAX_BATCH_ITEMS: usize = 256;

/// Largest accepted parameter-sweep grid (cartesian-product points) in a
/// `/v1/sweep` request — the same resource argument as [`MAX_BATCH_ITEMS`],
/// scaled up because grid points share one compile and most engine work.
pub const MAX_SWEEP_POINTS: usize = 1024;

/// Largest per-request `threads` value accepted before server-side
/// clamping; anything above this is a client error rather than a hint.
pub const MAX_REQUEST_THREADS: u64 = 64;

/// Largest accepted `timeout_ms`; uncapped deadlines are expressed by
/// omitting the field.
pub const MAX_TIMEOUT_MS: u64 = 600_000;

/// Everything [`Service::with_options`] needs to build a service.
#[derive(Default)]
pub struct ServiceOptions {
    /// Result-cache capacity in entries (0 disables caching *and*
    /// persistence).
    pub cache_entries: usize,
    /// Shared compute pool for parallel exact expansion; `None` keeps
    /// every request single-threaded regardless of its `threads` hint.
    pub pool: Option<ComputePool>,
    /// On-disk persistence for the result cache; `None` keeps it
    /// memory-only.
    pub persist: Option<PersistConfig>,
}

/// The transport-independent request handler shared by all workers.
pub struct Service {
    metrics: Arc<Metrics>,
    cache: Arc<Mutex<LruCache<u64, Response>>>,
    /// Shared compute pool for parallel exact expansion; `None` keeps every
    /// request single-threaded regardless of its `threads` hint.
    pool: Option<ComputePool>,
    /// Write-behind persistence for cached responses; dropped last-ish so
    /// a graceful shutdown flushes queued appends.
    persist: Option<PersistentStore>,
}

impl Service {
    /// Creates a service with a result cache of `cache_entries` entries
    /// (0 disables caching) and no compute pool: every request runs
    /// single-threaded.
    pub fn new(cache_entries: usize) -> Service {
        Service::with_options(ServiceOptions {
            cache_entries,
            ..ServiceOptions::default()
        })
        .expect("no persistence requested, so construction cannot fail")
    }

    /// Creates a service that leases workers for parallel exact expansion
    /// from `pool`. The pool's occupancy and steal counters are exported
    /// through `/metrics`.
    pub fn with_pool(cache_entries: usize, pool: ComputePool) -> Service {
        Service::with_options(ServiceOptions {
            cache_entries,
            pool: Some(pool),
            ..ServiceOptions::default()
        })
        .expect("no persistence requested, so construction cannot fail")
    }

    /// Creates a fully configured service. With [`ServiceOptions::persist`]
    /// set, surviving records are warm-loaded into the LRU before the
    /// first request and every subsequent cached response is appended
    /// (write-behind) to the segment file.
    ///
    /// # Errors
    ///
    /// Fails only if the persistence directory or segment file cannot be
    /// created/opened. Corrupt segment *contents* never fail construction;
    /// they are skipped and counted (`bayonet_cache_persist_load_corrupt_total`).
    pub fn with_options(opts: ServiceOptions) -> io::Result<Service> {
        let metrics = Arc::new(Metrics::new());
        let cache: Arc<Mutex<LruCache<u64, Response>>> =
            Arc::new(Mutex::new(LruCache::new(opts.cache_entries)));
        let persist = match &opts.persist {
            Some(cfg) if opts.cache_entries > 0 => {
                let snapshot_cache = Arc::clone(&cache);
                let (store, loaded) = PersistentStore::open(
                    cfg,
                    Box::new(move || {
                        snapshot_cache
                            .lock()
                            .expect("cache mutex")
                            .iter_lru_to_mru()
                            .map(|(key, resp)| (*key, resp.body.clone()))
                            .collect()
                    }),
                )?;
                {
                    let mut c = cache.lock().expect("cache mutex");
                    // File order is oldest-first, so sequential insertion
                    // reproduces the pre-restart recency order.
                    for (key, body) in loaded {
                        c.insert(key, Response::json(200, body));
                    }
                    metrics.set_cache_evictions(c.evictions());
                }
                metrics.bind_persist(store.counters());
                Some(store)
            }
            _ => None,
        };
        if let Some(pool) = &opts.pool {
            metrics.bind_pool(pool.clone());
        }
        Ok(Service {
            metrics,
            cache,
            pool: opts.pool,
            persist,
        })
    }

    /// Exact-engine options for one request: the per-request `threads` hint
    /// (clamped to the pool capacity) plus the shared pool handle. The
    /// deadline is passed in rather than read off the request so batch
    /// items can substitute their batch-clamped deadline.
    fn exact_options(&self, req: &InferenceRequest, deadline: Deadline) -> ExactOptions {
        let requested = req.threads.unwrap_or(1);
        let threads = match &self.pool {
            Some(pool) => requested.min(pool.capacity()),
            None => 1,
        };
        ExactOptions {
            deadline,
            threads,
            pool: self.pool.clone(),
            passes: req.passes,
            ..ExactOptions::default()
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Handles one request, recording request metrics.
    pub fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        let endpoint = normalize_endpoint(&req.path);
        let response = self.route(req);
        self.metrics
            .record_request(endpoint, response.status, started.elapsed());
        response
    }

    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::json(200, r#"{"status":"ok"}"#),
            ("GET", "/metrics") => Response::text(200, self.metrics.render())
                .with_content_type("text/plain; version=0.0.4; charset=utf-8"),
            ("POST", "/v1/check") | ("POST", "/v1/run") | ("POST", "/v1/synthesize") => {
                match self.inference(req) {
                    Ok(resp) => resp,
                    Err(e) => e.into_response(),
                }
            }
            ("POST", "/v1/batch") => self.batch_endpoint(req),
            ("POST", "/v1/sweep") => self.sweep_endpoint(req),
            ("GET", "/v1/check" | "/v1/run" | "/v1/synthesize" | "/v1/batch" | "/v1/sweep")
            | ("POST", "/healthz" | "/metrics") => ApiError {
                status: 405,
                kind: "method_not_allowed",
                message: format!("{} does not support {}", req.path, req.method),
                field: None,
            }
            .into_response(),
            _ => ApiError {
                status: 404,
                kind: "not_found",
                message: format!("no such endpoint: {}", req.path),
                field: None,
            }
            .into_response(),
        }
    }

    fn inference(&self, req: &Request) -> Result<Response, ApiError> {
        let mut parsed = InferenceRequest::from_http(req)?;

        // Canonical cache key: pretty-printed program, not raw source, so
        // formatting differences still hit.
        let program = parse(&parsed.source).map_err(|e| ApiError {
            status: 422,
            kind: "parse_error",
            message: e.to_string(),
            field: None,
        })?;
        let canonical = pretty_program(&program);

        // `"engine": "auto"` resolves to a concrete engine *before* the
        // cache key is computed, so a planner-routed result and the same
        // request with the chosen engine spelled out share one cache entry
        // — and an infeasible deadline is rejected before any engine work.
        let mut prebuilt: Option<(Model, Box<dyn Scheduler>)> = None;
        let mut plan: Option<Plan> = None;
        if parsed.engine == Engine::Auto {
            if req.path == "/v1/run" {
                let (model, scheduler) = parsed.build_model(&program)?;
                // Plan against the optimized model: the cost model reads
                // the cached pass facts and symmetry signals. The optimized
                // model is kept only for exact routes — sampling engines
                // run the original (see `run_engine`).
                let optimized = parsed.passes.then(|| optimize(&model));
                let budget = parsed.timeout_ms.map(Duration::from_millis);
                match self.plan_auto(&mut parsed, optimized.as_ref().unwrap_or(&model), budget) {
                    Ok(p) => plan = Some(p),
                    Err(rejection) => return Ok(rejection),
                }
                let exact_route = matches!(parsed.engine, Engine::Exact | Engine::Bdd);
                let chosen = match (optimized, exact_route) {
                    (Some(opt), true) => opt,
                    _ => model,
                };
                prebuilt = Some((chosen, scheduler));
            } else {
                // `/v1/check` never runs an engine and `/v1/synthesize`
                // always runs the exact enumeration core, so auto resolves
                // to the same key the default request would use.
                parsed.engine = Engine::Exact;
            }
        }
        let key = parsed.cache_key(&req.path, &canonical);

        if let Some(hit) = self.cache.lock().expect("cache mutex").get(&key).cloned() {
            self.metrics.record_cache(true);
            return Ok(hit);
        }
        self.metrics.record_cache(false);

        let response = match req.path.as_str() {
            "/v1/check" => self.check_endpoint(&program)?,
            "/v1/run" => self.run_endpoint(&parsed, &program, prebuilt, plan.as_ref())?,
            "/v1/synthesize" => self.synthesize_endpoint(&parsed, &program)?,
            _ => unreachable!("routed"),
        };
        if response.status == 200 {
            let evictions = {
                let mut cache = self.cache.lock().expect("cache mutex");
                cache.insert(key, response.clone());
                cache.evictions()
            };
            self.metrics.set_cache_evictions(evictions);
            if let Some(store) = &self.persist {
                store.append(key, response.body.clone());
            }
        }
        Ok(response)
    }

    fn check_endpoint(&self, program: &Program) -> Result<Response, ApiError> {
        match check(program) {
            Ok(report) => {
                let mut text = String::new();
                for w in &report.warnings {
                    let _ = writeln!(text, "warning: {}", w.message);
                }
                let _ = writeln!(text, "ok: {} warning(s)", report.warnings.len());
                let warnings = report
                    .warnings
                    .iter()
                    .map(|w| Json::Str(w.message.clone()))
                    .collect();
                Ok(Response::json(
                    200,
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("warnings", Json::Arr(warnings)),
                        ("text", Json::Str(text)),
                    ])
                    .to_string(),
                ))
            }
            Err(errors) => {
                let details = errors.iter().map(|e| Json::Str(e.to_string())).collect();
                Ok(Response::json(
                    422,
                    Json::obj(vec![
                        ("ok", Json::Bool(false)),
                        (
                            "error",
                            Json::obj(vec![
                                ("kind", Json::Str("check_error".into())),
                                (
                                    "message",
                                    Json::Str(format!("{} integrity error(s)", errors.len())),
                                ),
                                ("details", Json::Arr(details)),
                            ]),
                        ),
                    ])
                    .to_string(),
                ))
            }
        }
    }

    fn run_endpoint(
        &self,
        req: &InferenceRequest,
        program: &Program,
        prebuilt: Option<(Model, Box<dyn Scheduler>)>,
        plan: Option<&Plan>,
    ) -> Result<Response, ApiError> {
        let (model, scheduler) = match prebuilt {
            // Auto routing already compiled the model to plan against.
            Some(built) => built,
            None => req.build_model(program)?,
        };
        self.run_with_model(req, &model, &*scheduler, req.deadline(), plan)
    }

    /// Routes a request whose `engine` is `auto` through the static cost
    /// model: rewrites `req.engine` (and, for the SMC route, an absent
    /// `particles`) so the cache key and the response are identical to an
    /// explicit request for the chosen engine. Infeasible budgets return
    /// the structured 422 as a ready [`Response`] — no engine work has
    /// happened yet by design.
    fn plan_auto(
        &self,
        req: &mut InferenceRequest,
        model: &Model,
        budget: Option<Duration>,
    ) -> Result<Plan, Response> {
        let plan = plan_model(model, &PlannerConfig::default(), budget);
        match plan.decision {
            PlanDecision::Run(engine) => {
                req.engine = match engine {
                    PlanEngine::Enum => Engine::Exact,
                    PlanEngine::Bdd => Engine::Bdd,
                    PlanEngine::Smc => Engine::Smc,
                };
                if engine == PlanEngine::Smc && req.particles.is_none() {
                    // The error-bounded particle count, written into the
                    // request so the cache key matches an explicit
                    // `{"engine":"smc","particles":N}` call.
                    req.particles = plan.particles;
                }
                self.metrics.record_planner_decision(req.engine.name());
                Ok(plan)
            }
            PlanDecision::Infeasible { needed_ns } => {
                self.metrics.record_planner_rejection();
                Err(infeasible_response(&plan, needed_ns))
            }
        }
    }

    /// Runs the `/v1/run` engine dispatch against an already compiled
    /// model. The batch endpoint calls this directly with a clone of a
    /// shared compiled model and a batch-clamped deadline. With `plan` set
    /// (planner-routed requests) the run is timed and the actual/predicted
    /// cost ratio folded into `bayonet_planner_cost_ratio`.
    fn run_with_model(
        &self,
        req: &InferenceRequest,
        model: &Model,
        scheduler: &dyn Scheduler,
        deadline: Deadline,
        plan: Option<&Plan>,
    ) -> Result<Response, ApiError> {
        let started = Instant::now();
        let result = self.run_engine(req, model, scheduler, deadline);
        if let Some(plan) = plan {
            if matches!(&result, Ok(resp) if resp.status == 200) {
                let actual_ns = started.elapsed().as_nanos() as f64;
                self.metrics
                    .record_planner_ratio(actual_ns / plan.est_cost_ns.max(1) as f64);
            }
        }
        result
    }

    fn run_engine(
        &self,
        req: &InferenceRequest,
        model: &Model,
        scheduler: &dyn Scheduler,
        deadline: Deadline,
    ) -> Result<Response, ApiError> {
        match req.engine {
            Engine::Exact | Engine::Bdd => {
                // The exact family runs the optimized model unless the
                // request opted out; sampling engines stay unoptimized
                // because pass rewrites change the draw sequence for a
                // fixed seed. Auto-routed requests arrive pre-optimized —
                // `opt_info` makes this idempotent.
                let optimized;
                let model = if req.passes && model.opt_info().is_none() {
                    optimized = optimize(model);
                    &optimized
                } else {
                    model
                };
                if req.passes {
                    if let Some(info) = model.opt_info() {
                        let r = &info.report;
                        self.metrics
                            .record_opt(r.pass_runs, r.flips_eliminated, r.guards_folded);
                    }
                }
                // Per-request feasibility memo table, shared between the
                // analysis and every query answer; its totals feed the
                // metrics aggregates once, below.
                let cache = Arc::new(FeasibilityCache::new());
                let mut opts = self.exact_options(req, deadline);
                if req.engine == Engine::Bdd {
                    opts.engine = EngineKind::Bdd;
                }
                opts.feasibility_cache = Some(Arc::clone(&cache));
                let analysis = analyze(model, scheduler, &opts).map_err(exact_error)?;
                self.metrics.record_engine(&analysis.stats);
                let mut results: Vec<QueryResult> = Vec::with_capacity(model.queries.len());
                for q in &model.queries {
                    results.push(
                        answer_cached(model, &analysis, q, opts.fm_pruning, Some(&cache))
                            .map_err(exact_error)?,
                    );
                }
                let (feas_hits, feas_misses) = cache.counts();
                self.metrics.record_feasibility(feas_hits, feas_misses);
                let z = analysis.total_terminal_mass();
                let discarded = analysis.total_discarded_mass();

                // Byte-for-byte the stdout of `bayonet run` with the same
                // engine selection.
                let mut text = String::new();
                for result in &results {
                    let _ = write!(text, "{result}");
                }
                let _ = writeln!(text, "Z = {z} (discarded by observations: {discarded})");
                let _ = writeln!(
                    text,
                    "[{} steps, {} expansions, peak {} configs, {} merge hits]",
                    analysis.stats.steps,
                    analysis.stats.expansions,
                    analysis.stats.peak_configs,
                    analysis.stats.merge_hits
                );

                let results_json = results.iter().map(query_result_json).collect();
                Ok(Response::json(
                    200,
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("engine", Json::Str(req.engine.name().into())),
                        ("results", Json::Arr(results_json)),
                        ("z", Json::Str(z.to_string())),
                        ("discarded", Json::Str(discarded.to_string())),
                        (
                            "stats",
                            Json::obj(vec![
                                ("steps", Json::Num(analysis.stats.steps as f64)),
                                ("expansions", Json::Num(analysis.stats.expansions as f64)),
                                (
                                    "peak_configs",
                                    Json::Num(analysis.stats.peak_configs as f64),
                                ),
                                ("merge_hits", Json::Num(analysis.stats.merge_hits as f64)),
                                (
                                    "terminal_configs",
                                    Json::Num(analysis.stats.terminal_configs as f64),
                                ),
                            ]),
                        ),
                        ("text", Json::Str(text)),
                    ])
                    .to_string(),
                ))
            }
            Engine::Smc | Engine::Rejection => {
                let opts = ApproxOptions {
                    particles: req.particles.unwrap_or(1000),
                    seed: req.seed.unwrap_or(0),
                    deadline,
                    ..ApproxOptions::default()
                };
                let indices: Vec<usize> = match req.query {
                    Some(idx) => {
                        req.check_query_index(idx, model.queries.len())?;
                        vec![idx]
                    }
                    None => (0..model.queries.len()).collect(),
                };
                let mut text = String::new();
                let mut estimates = Vec::new();
                for idx in indices {
                    let q = &model.queries[idx];
                    let est: Estimate = match req.engine {
                        Engine::Smc => smc(model, scheduler, q, &opts),
                        Engine::Rejection => rejection(model, scheduler, q, &opts),
                        Engine::Exact | Engine::Bdd | Engine::Auto => unreachable!(),
                    }
                    .map_err(approx_error)?;
                    // Byte-for-byte the stdout of `bayonet run --engine smc`.
                    let _ = writeln!(text, "{}: {est}  (Ẑ ≈ {:.4})", q.source, est.z_estimate);
                    estimates.push(Json::obj(vec![
                        ("query", Json::Str(q.source.clone())),
                        ("value", Json::Num(est.value)),
                        ("std_error", Json::Num(est.std_error)),
                        ("samples", Json::Num(est.samples as f64)),
                        ("z_estimate", Json::Num(est.z_estimate)),
                    ]));
                }
                Ok(Response::json(
                    200,
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("engine", Json::Str(req.engine.name().into())),
                        ("estimates", Json::Arr(estimates)),
                        ("text", Json::Str(text)),
                    ])
                    .to_string(),
                ))
            }
            // Resolved to a concrete engine in `inference` / `batch_item_inner`
            // before any run is dispatched.
            Engine::Auto => unreachable!("auto engine is resolved before dispatch"),
        }
    }

    fn synthesize_endpoint(
        &self,
        req: &InferenceRequest,
        program: &Program,
    ) -> Result<Response, ApiError> {
        let (model, scheduler) = req.build_model(program)?;
        let query_idx = req.query.unwrap_or(0);
        req.check_query_index(query_idx, model.queries.len())?;

        let cache = Arc::new(FeasibilityCache::new());
        let mut opts = self.exact_options(req, req.deadline());
        opts.feasibility_cache = Some(Arc::clone(&cache));
        let analysis = analyze(&model, &*scheduler, &opts).map_err(exact_error)?;
        self.metrics.record_engine(&analysis.stats);
        let result = answer_cached(
            &model,
            &analysis,
            &model.queries[query_idx],
            opts.fm_pruning,
            Some(&cache),
        )
        .map_err(exact_error)?;
        let (feas_hits, feas_misses) = cache.counts();
        self.metrics.record_feasibility(feas_hits, feas_misses);
        let synthesis = synthesize_result(
            &model,
            &result,
            SynthesisOptions {
                objective: if req.maximize {
                    Objective::Maximize
                } else {
                    Objective::Minimize
                },
                positive_params: !req.allow_zero_params,
            },
        )
        .map_err(|e| ApiError {
            status: 422,
            kind: "engine_error",
            message: e.to_string(),
            field: None,
        })?;

        // Byte-for-byte the stdout of `bayonet synthesize`.
        let mut text = String::new();
        let _ = writeln!(text, "piecewise result:");
        let mut cells = Vec::new();
        for (i, cell) in synthesis.result.cells.iter().enumerate() {
            let marker = if i == synthesis.best_cell { "*" } else { " " };
            let value = cell
                .value
                .as_ref()
                .map(|v| format!("{v}"))
                .unwrap_or_else(|| "undefined".into());
            let _ = writeln!(text, "{marker} [{}] {value}", cell.constraint);
            cells.push(Json::obj(vec![
                ("constraint", Json::Str(cell.constraint.clone())),
                (
                    "value",
                    cell.value
                        .as_ref()
                        .map(|v| Json::Str(v.to_string()))
                        .unwrap_or(Json::Null),
                ),
                ("best", Json::Bool(i == synthesis.best_cell)),
            ]));
        }
        let _ = writeln!(
            text,
            "optimal value: {} ≈ {:.4}",
            synthesis.value,
            synthesis.value.to_f64()
        );
        let _ = writeln!(text, "constraint:    {}", synthesis.constraint);
        let _ = write!(text, "witness:      ");
        let mut witness = Vec::new();
        for (pid, v) in &synthesis.assignment {
            let _ = write!(text, " {} = {v}", model.params.name(*pid));
            witness.push((
                model.params.name(*pid).to_string(),
                Json::Str(v.to_string()),
            ));
        }
        text.push('\n');

        Ok(Response::json(
            200,
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("best_cell", Json::Num(synthesis.best_cell as f64)),
                ("value", Json::Str(synthesis.value.to_string())),
                ("value_f64", Json::Num(synthesis.value.to_f64())),
                ("constraint", Json::Str(synthesis.constraint.clone())),
                ("witness", Json::Obj(witness)),
                ("cells", Json::Arr(cells)),
                ("text", Json::Str(text)),
            ])
            .to_string(),
        ))
    }

    /// The buffered `/v1/batch` handler used by [`Service::handle`]: runs
    /// the whole batch, then returns one NDJSON body with the frames
    /// sorted by item index. The HTTP server streams instead via
    /// [`Service::handle_batch`]; this path serves in-process callers (the
    /// CLI's `run --batch`, tests) that want deterministic output.
    fn batch_endpoint(&self, req: &Request) -> Response {
        let batch = match BatchRequest::from_http(req) {
            Ok(batch) => batch,
            Err(e) => return e.into_response(),
        };
        let deadline = batch.deadline();
        let frames: Mutex<Vec<(usize, Vec<u8>)>> = Mutex::new(Vec::new());
        let emit = |index: usize, resp: &Response| {
            frames
                .lock()
                .expect("frames mutex")
                .push((index, ndjson_frame(index, resp)));
        };
        let stats = self.run_batch(&batch, &deadline, &emit);
        self.record_batch_stats(&stats);
        let mut frames = frames.into_inner().expect("frames mutex");
        frames.sort_by_key(|(index, _)| *index);
        let mut body = Vec::new();
        for (_, frame) in frames {
            body.extend_from_slice(&frame);
        }
        Response {
            status: 200,
            headers: Vec::new(),
            content_type: "application/x-ndjson",
            body,
        }
    }

    /// The streaming `/v1/batch` handler: validates the batch, then writes
    /// per-item NDJSON frames to `stream` as chunked transfer encoding, in
    /// completion order. Validation errors are written as an ordinary
    /// buffered error response (no chunk is ever emitted before the batch
    /// is known to be well-formed). If the client disconnects mid-stream,
    /// the remaining items are cancelled so engine time is not wasted on an
    /// unreadable response.
    ///
    /// # Errors
    ///
    /// Propagates transport errors, including the client disconnecting
    /// mid-batch.
    pub fn handle_batch<W: Write + Send>(&self, req: &Request, stream: &mut W) -> io::Result<()> {
        let started = Instant::now();
        let batch = match BatchRequest::from_http(req) {
            Ok(batch) => batch,
            Err(e) => {
                let resp = e.into_response();
                self.metrics
                    .record_request("/v1/batch", resp.status, started.elapsed());
                return resp.write_to(stream);
            }
        };
        let mut deadline = batch.deadline();
        let cancel = deadline.cancel_handle();
        let writer = Mutex::new(ChunkedWriter::begin(stream, 200, "application/x-ndjson")?);
        let broken = AtomicBool::new(false);
        let emit = |index: usize, resp: &Response| {
            if broken.load(Ordering::Relaxed) {
                return;
            }
            let frame = ndjson_frame(index, resp);
            let failed = writer
                .lock()
                .expect("chunk writer mutex")
                .chunk(&frame)
                .is_err();
            if failed {
                broken.store(true, Ordering::Relaxed);
                // The client is gone; expire the remaining items instead of
                // burning engine time on frames nobody will read.
                cancel.cancel();
            }
        };
        let stats = self.run_batch(&batch, &deadline, &emit);
        self.metrics
            .record_request("/v1/batch", 200, started.elapsed());
        self.record_batch_stats(&stats);
        if broken.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "client disconnected mid-batch",
            ));
        }
        writer.into_inner().expect("chunk writer mutex").finish()
    }

    fn record_batch_stats(&self, stats: &BatchStats) {
        self.metrics.record_batch(
            stats.items,
            stats.item_errors,
            stats.compiles,
            stats.source_reuse,
        );
    }

    /// Runs every batch item, calling `emit` (possibly from several worker
    /// threads, hence `Sync`) with each item's index and `/v1/run`-shaped
    /// response as it completes. Items fan out across lanes leased from the
    /// compute pool; the request's own thread always works as lane zero, so
    /// a fully busy pool degrades to sequential execution instead of
    /// blocking.
    fn run_batch(
        &self,
        batch: &BatchRequest,
        deadline: &Deadline,
        emit: &(dyn Fn(usize, &Response) + Sync),
    ) -> BatchStats {
        // Phase 1 (sequential): compile each distinct source exactly once.
        let prep = self.prepare_sources(batch);

        // Phase 2 (parallel): fan items out over pool lanes.
        let next = AtomicUsize::new(0);
        let item_errors = AtomicU64::new(0);
        let shared_source = batch.shared_source.as_deref();
        let run_lane = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = batch.items.get(index) else {
                break;
            };
            let resp = self.batch_item(item, shared_source, &prep, deadline);
            if resp.status != 200 {
                item_errors.fetch_add(1, Ordering::Relaxed);
            }
            emit(index, &resp);
        };
        let lease = self
            .pool
            .as_ref()
            .map(|pool| pool.lease(batch.items.len().saturating_sub(1)));
        let extra_lanes = lease.as_ref().map_or(0, |l| l.granted());
        if extra_lanes == 0 {
            run_lane();
        } else {
            let run_lane = &run_lane;
            std::thread::scope(|scope| {
                for _ in 0..extra_lanes {
                    scope.spawn(run_lane);
                }
                run_lane();
            });
        }
        drop(lease);

        let resolvable = batch
            .items
            .iter()
            .filter(|item| item_source(item, shared_source).is_some())
            .count() as u64;
        BatchStats {
            items: batch.items.len() as u64,
            item_errors: item_errors.into_inner(),
            compiles: prep.compiles,
            source_reuse: resolvable.saturating_sub(prep.fresh),
        }
    }

    /// Scans the batch once and parses + checks + compiles each distinct
    /// source exactly one time. Sources that differ only in formatting
    /// share a compile through the canonical pretty-printed form. Failures
    /// are prepared too: every item with a broken source reports the same
    /// structured error without re-parsing.
    fn prepare_sources(&self, batch: &BatchRequest) -> BatchPrep {
        let mut by_source: HashMap<String, Arc<PreparedSource>> = HashMap::new();
        let mut by_canonical: HashMap<String, Arc<PreparedSource>> = HashMap::new();
        let mut compiles = 0u64;
        let mut fresh = 0u64;
        for item in &batch.items {
            let Some(source) = item_source(item, batch.shared_source.as_deref()) else {
                // No resolvable source: the per-item pass reports the same
                // missing-field error `/v1/run` would.
                continue;
            };
            if by_source.contains_key(source) {
                continue;
            }
            let prepared = match parse(source) {
                Err(e) => {
                    fresh += 1;
                    Arc::new(PreparedSource {
                        canonical: String::new(),
                        outcome: Err(ApiError {
                            status: 422,
                            kind: "parse_error",
                            message: e.to_string(),
                            field: None,
                        }),
                    })
                }
                Ok(program) => {
                    let canonical = pretty_program(&program);
                    match by_canonical.get(&canonical) {
                        // Textually different but canonically identical:
                        // reuse the compile.
                        Some(shared) => Arc::clone(shared),
                        None => {
                            fresh += 1;
                            compiles += 1;
                            let prepared = Arc::new(PreparedSource {
                                canonical: canonical.clone(),
                                outcome: check_and_compile(&program),
                            });
                            by_canonical.insert(canonical, Arc::clone(&prepared));
                            prepared
                        }
                    }
                }
            };
            by_source.insert(source.to_string(), prepared);
        }
        BatchPrep {
            by_source,
            compiles,
            fresh,
        }
    }

    /// Runs one batch item to a `/v1/run`-shaped [`Response`] (success or
    /// structured error), never panicking the lane.
    fn batch_item(
        &self,
        item: &Json,
        shared_source: Option<&str>,
        prep: &BatchPrep,
        batch_deadline: &Deadline,
    ) -> Response {
        match self.batch_item_inner(item, shared_source, prep, batch_deadline) {
            Ok(resp) => resp,
            Err(e) => e.into_response(),
        }
    }

    fn batch_item_inner(
        &self,
        item: &Json,
        shared_source: Option<&str>,
        prep: &BatchPrep,
        batch_deadline: &Deadline,
    ) -> Result<Response, ApiError> {
        let mut parsed = InferenceRequest::from_json(item, shared_source)?;
        let prepared = prep
            .by_source
            .get(&parsed.source)
            .expect("every resolvable source was prepared in the scan phase");
        let template = match &prepared.outcome {
            Ok(model) => model,
            Err(e) => return Err(e.clone()),
        };

        let deadline = match parsed.timeout_ms {
            Some(ms) => batch_deadline.clamped(Duration::from_millis(ms)),
            None => batch_deadline.clone(),
        };

        // Auto items plan **per item** — the shared compile is still
        // amortized, but routing is independent: each item's bindings (and
        // its share of the remaining batch budget) can push it to a
        // different engine. Resolution happens before the cache key below,
        // exactly like the single-request path.
        let mut prebuilt: Option<(Model, Box<dyn Scheduler>)> = None;
        let mut plan: Option<Plan> = None;
        if parsed.engine == Engine::Auto {
            let mut model = template.clone();
            apply_bindings(&mut model, &parsed.bindings)?;
            match self.plan_auto(&mut parsed, &model, deadline.remaining()) {
                Ok(p) => plan = Some(p),
                Err(rejection) => return Ok(rejection),
            }
            let scheduler = scheduler_for(&model);
            prebuilt = Some((model, scheduler));
        }

        // Same key as a single `/v1/run` call, so batch items and single
        // runs share cache entries in both directions.
        let key = parsed.cache_key("/v1/run", &prepared.canonical);
        if let Some(hit) = self.cache.lock().expect("cache mutex").get(&key).cloned() {
            self.metrics.record_cache(true);
            return Ok(hit);
        }
        self.metrics.record_cache(false);

        if batch_deadline.expired() {
            return Err(ApiError {
                status: 504,
                kind: "timeout",
                message: "batch budget exhausted before this item started".into(),
                field: None,
            });
        }

        let (model, scheduler) = match prebuilt {
            Some(built) => built,
            None => {
                let mut model = template.clone();
                apply_bindings(&mut model, &parsed.bindings)?;
                let scheduler = scheduler_for(&model);
                (model, scheduler)
            }
        };
        let response =
            self.run_with_model(&parsed, &model, &*scheduler, deadline, plan.as_ref())?;
        if response.status == 200 {
            let evictions = {
                let mut cache = self.cache.lock().expect("cache mutex");
                cache.insert(key, response.clone());
                cache.evictions()
            };
            self.metrics.set_cache_evictions(evictions);
            if let Some(store) = &self.persist {
                store.append(key, response.body.clone());
            }
        }
        Ok(response)
    }

    /// The buffered `/v1/sweep` handler used by [`Service::handle`]: runs
    /// the whole grid, then returns one NDJSON body with one frame per grid
    /// point, in grid (row-major) order. The HTTP server streams the same
    /// frames instead via [`Service::handle_sweep`]; this path serves
    /// in-process callers (the CLI's `run --sweep`, tests).
    fn sweep_endpoint(&self, req: &Request) -> Response {
        let frames = match self.run_sweep(req) {
            Ok(frames) => frames,
            Err(e) => return e.into_response(),
        };
        let mut body = Vec::new();
        for frame in frames {
            body.extend_from_slice(&frame);
        }
        Response {
            status: 200,
            headers: Vec::new(),
            content_type: "application/x-ndjson",
            body,
        }
    }

    /// The streaming `/v1/sweep` handler: validates the request, runs the
    /// sweep (sharing work across grid points), then writes per-point
    /// NDJSON frames to `stream` as chunked transfer encoding. Validation
    /// errors are written as an ordinary buffered error response — no chunk
    /// is emitted before the sweep is known to be well-formed.
    ///
    /// # Errors
    ///
    /// Propagates transport errors, including the client disconnecting
    /// mid-stream.
    pub fn handle_sweep<W: Write + Send>(&self, req: &Request, stream: &mut W) -> io::Result<()> {
        let started = Instant::now();
        match self.run_sweep(req) {
            Err(e) => {
                let resp = e.into_response();
                self.metrics
                    .record_request("/v1/sweep", resp.status, started.elapsed());
                resp.write_to(stream)
            }
            Ok(frames) => {
                self.metrics
                    .record_request("/v1/sweep", 200, started.elapsed());
                let mut writer = ChunkedWriter::begin(stream, 200, "application/x-ndjson")?;
                for frame in &frames {
                    writer.chunk(frame)?;
                }
                writer.finish()
            }
        }
    }

    /// Validates and runs one `/v1/sweep` request to its per-point NDJSON
    /// frames (frame `index` = row-major grid index). The program compiles
    /// once; the exact sweep engine then shares work across grid points —
    /// symbolically (piecewise cells answer every point), via a replayed
    /// exploration prefix, or not at all when nothing is shareable — while
    /// staying bit-identical to independent pointwise runs.
    fn run_sweep(&self, req: &Request) -> Result<Vec<Vec<u8>>, ApiError> {
        let sreq = SweepRequest::from_http(req)?;
        let program = parse(&sreq.source).map_err(|e| ApiError {
            status: 422,
            kind: "parse_error",
            message: e.to_string(),
            field: None,
        })?;
        let canonical = pretty_program(&program);
        let mut model = check_and_compile(&program)?;
        apply_bindings(&mut model, &sreq.bindings)?;
        // Optimize up front (rather than letting the sweep engine do it)
        // so the pass report feeds the metrics registry; the sweep's own
        // hook sees `opt_info` already attached and skips re-running.
        if sreq.passes {
            model = optimize(&model);
            if let Some(info) = model.opt_info() {
                let r = &info.report;
                self.metrics
                    .record_opt(r.pass_runs, r.flips_eliminated, r.guards_folded);
            }
        }

        // Resolve swept names against the declared parameter table before
        // any engine work; a typo'd name is a structured 400, not 16
        // identical per-point errors.
        let mut param_ids = Vec::with_capacity(sreq.sweep.len());
        for (name, _) in &sreq.sweep {
            let id = model
                .params
                .iter()
                .find(|id| model.params.name(*id) == name.as_str())
                .ok_or_else(|| ApiError {
                    status: 400,
                    kind: "bad_request",
                    message: format!(
                        "unknown swept parameter `{name}` (not declared in `parameters {{ ... }}`)"
                    ),
                    field: Some(format!("sweep.{name}")),
                })?;
            param_ids.push(id);
        }
        let points = sreq.points();

        // Per-point cache probe: every point of an all-hit sweep is served
        // from cache with no engine work. A partial hit reruns the whole
        // grid — shared exploration makes skipping individual points a
        // wash — and refreshes every entry.
        let keys: Vec<u64> = points
            .iter()
            .map(|p| sreq.point_key(&canonical, p))
            .collect();
        {
            let mut cache = self.cache.lock().expect("cache mutex");
            let hits: Vec<Response> = keys.iter().filter_map(|k| cache.get(k).cloned()).collect();
            if hits.len() == keys.len() {
                drop(cache);
                self.metrics.record_cache(true);
                self.metrics
                    .record_sweep("cached", points.len() as u64, 0, 0, 0);
                return Ok(hits
                    .iter()
                    .enumerate()
                    .map(|(i, resp)| ndjson_frame(i, resp))
                    .collect());
            }
        }
        self.metrics.record_cache(false);

        let requested = sreq.threads.unwrap_or(1);
        let threads = match &self.pool {
            Some(pool) => requested.min(pool.capacity()),
            None => 1,
        };
        let deadline = match sreq.timeout_ms {
            Some(ms) => Deadline::after(Duration::from_millis(ms)),
            None => Deadline::unlimited(),
        };
        let feas = Arc::new(FeasibilityCache::new());
        let mut opts = ExactOptions {
            deadline,
            threads,
            pool: self.pool.clone(),
            passes: sreq.passes,
            ..ExactOptions::default()
        };
        opts.engine = match sreq.engine {
            Engine::Bdd => EngineKind::Bdd,
            Engine::Auto => EngineKind::Auto,
            _ => EngineKind::Enum,
        };
        opts.feasibility_cache = Some(Arc::clone(&feas));

        let result =
            bayonet_exact::sweep(&model, &param_ids, &points, &opts).map_err(exact_error)?;
        self.metrics.record_engine(&result.prefix_stats);
        let mut frames = Vec::with_capacity(points.len());
        let mut point_errors = 0u64;
        for (i, (point, outcome)) in points.iter().zip(&result.points).enumerate() {
            let resp = match outcome {
                Ok(p) => {
                    // Per-point stats cover only this point's continuation;
                    // the shared prefix was folded in once above, so the
                    // exported expansion totals reflect the actual saving.
                    self.metrics.record_engine(&p.stats);
                    sweep_point_response(&result, &sreq.sweep, point, p)
                }
                Err(e) => {
                    point_errors += 1;
                    exact_error_ref(e).into_response()
                }
            };
            if resp.status == 200 {
                let evictions = {
                    let mut cache = self.cache.lock().expect("cache mutex");
                    cache.insert(keys[i], resp.clone());
                    cache.evictions()
                };
                self.metrics.set_cache_evictions(evictions);
                if let Some(store) = &self.persist {
                    store.append(keys[i], resp.body.clone());
                }
            }
            frames.push(ndjson_frame(i, &resp));
        }
        let (feas_hits, feas_misses) = feas.counts();
        self.metrics.record_feasibility(feas_hits, feas_misses);
        self.metrics.record_sweep(
            result.route.name(),
            points.len() as u64,
            point_errors,
            result.reused_points() as u64,
            result.shared_steps,
        );
        Ok(frames)
    }
}

/// One item's source string: its own `source` field if set, else the
/// batch-level shared source.
fn item_source<'a>(item: &'a Json, shared: Option<&'a str>) -> Option<&'a str> {
    item.get("source").and_then(Json::as_str).or(shared)
}

/// Renders one NDJSON frame: `{"index":N,"status":S,"body":...}\n` with the
/// response body spliced in verbatim. This is the single framing used by
/// *both* streaming endpoints — `/v1/batch` items and `/v1/sweep` grid
/// points — so each frame's `body` is byte-identical to the equivalent
/// standalone response and clients decode one shape.
fn ndjson_frame(index: usize, resp: &Response) -> Vec<u8> {
    let mut frame = Vec::with_capacity(resp.body.len() + 48);
    frame.extend_from_slice(format!("{{\"index\":{index},\"status\":{}", resp.status).as_bytes());
    frame.extend_from_slice(b",\"body\":");
    frame.extend_from_slice(&resp.body);
    frame.extend_from_slice(b"}\n");
    frame
}

/// One grid point's response body: the `/v1/run` shape plus the point's
/// swept bindings and the sharing route, minus the `stats` object (per-point
/// statistics are not meaningful under shared exploration — see
/// `bayonet_exact::SweepResult`). The `text` field is the `bayonet run`
/// stdout for this point minus its stats bracket.
fn sweep_point_response(
    sweep: &SweepResult,
    grid: &[(String, Vec<Rat>)],
    point: &[Rat],
    result: &bayonet_exact::SweepPointResult,
) -> Response {
    let mut text = String::new();
    for r in &result.results {
        let _ = write!(text, "{r}");
    }
    let _ = writeln!(
        text,
        "Z = {} (discarded by observations: {})",
        result.z, result.discarded
    );
    let point_obj: Vec<(String, Json)> = grid
        .iter()
        .zip(point)
        .map(|((name, _), value)| (name.clone(), Json::Str(value.to_string())))
        .collect();
    let engine = match sweep.engine {
        EngineKind::Bdd => "bdd",
        _ => "exact",
    };
    Response::json(
        200,
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("engine", Json::Str(engine.into())),
            ("route", Json::Str(sweep.route.name().into())),
            ("point", Json::Obj(point_obj)),
            (
                "results",
                Json::Arr(result.results.iter().map(query_result_json).collect()),
            ),
            ("z", Json::Str(result.z.to_string())),
            ("discarded", Json::Str(result.discarded.to_string())),
            ("text", Json::Str(text)),
        ])
        .to_string(),
    )
}

/// The decoded body of a `/v1/sweep` request.
struct SweepRequest {
    source: String,
    /// Exact backends only (`exact`/`enum`, `bdd`, or `auto` resolved by
    /// the sweep engine); sampling engines cannot share work across points.
    engine: Engine,
    /// Fixed (non-swept) parameter bindings, sorted by name.
    bindings: Vec<(String, Rat)>,
    /// Swept parameters with their value lists, sorted by name. The grid is
    /// their cartesian product, row-major in this order: the last-sorted
    /// parameter varies fastest, and frame `index` follows this order.
    sweep: Vec<(String, Vec<Rat>)>,
    timeout_ms: Option<u64>,
    threads: Option<usize>,
    /// Whether to run the model-optimization pass pipeline (default true).
    passes: bool,
}

impl SweepRequest {
    fn from_http(req: &Request) -> Result<SweepRequest, ApiError> {
        let bad = |message: String, field: Option<String>| ApiError {
            status: 400,
            kind: "bad_request",
            message,
            field,
        };
        let mut doc = request_doc(req)?;
        let Some(pairs) = doc.as_obj() else {
            return Err(bad("request body must be a JSON object".into(), None));
        };

        let known = [
            "source",
            "program",
            "sweep",
            "engine",
            "bindings",
            "timeout_ms",
            "threads",
            "passes",
        ];
        for (key, _) in pairs {
            if !known.contains(&key.as_str()) {
                return Err(bad(
                    format!(
                        "unknown sweep field `{key}` (known fields: {})",
                        known.join(", ")
                    ),
                    Some(key.clone()),
                ));
            }
        }

        // `program` is accepted as an alias for `source` (a grid file pairs
        // naturally with a program file); setting both is ambiguous.
        let source_field = doc.take("source").filter(|v| !matches!(v, Json::Null));
        let program_field = doc.take("program").filter(|v| !matches!(v, Json::Null));
        if source_field.is_some() && program_field.is_some() {
            return Err(bad(
                "`program` conflicts with `source`; set exactly one".into(),
                Some("program".into()),
            ));
        }
        let source = match source_field.or(program_field) {
            Some(Json::Str(s)) => s,
            Some(_) => {
                return Err(bad(
                    "`source` must be a string".into(),
                    Some("source".into()),
                ))
            }
            None => {
                return Err(bad(
                    "missing required string field `source`".into(),
                    Some("source".into()),
                ))
            }
        };

        let engine = match doc.get("engine").map(|e| (e, e.as_str())) {
            None => Engine::Exact,
            Some((_, Some("exact" | "enum"))) => Engine::Exact,
            Some((_, Some("bdd"))) => Engine::Bdd,
            Some((_, Some("auto"))) => Engine::Auto,
            Some((_, Some("smc" | "rejection"))) => {
                return Err(bad(
                    "sweeps are exact-only (known engines: exact, enum, bdd, auto); \
                     sampling engines cannot share work across grid points"
                        .into(),
                    Some("engine".into()),
                ))
            }
            Some((v, _)) => {
                return Err(bad(
                    format!("unknown engine {v} (known engines: exact, enum, bdd, auto)"),
                    Some("engine".into()),
                ))
            }
        };

        let mut bindings = Vec::new();
        match doc.get("bindings") {
            None | Some(Json::Null) => {}
            Some(Json::Obj(pairs)) => {
                for (name, value) in pairs {
                    let rat = rat_from_json(value).ok_or_else(|| {
                        bad(
                            format!(
                                "binding `{name}` must be an integer or a rational string \
                                 like \"1/2\""
                            ),
                            Some(format!("bindings.{name}")),
                        )
                    })?;
                    bindings.push((name.clone(), rat));
                }
            }
            Some(_) => {
                return Err(bad(
                    "`bindings` must be an object".into(),
                    Some("bindings".into()),
                ))
            }
        }
        bindings.sort_by(|a, b| a.0.cmp(&b.0));

        let mut sweep: Vec<(String, Vec<Rat>)> = Vec::new();
        match doc.get("sweep") {
            None | Some(Json::Null) => {
                return Err(bad(
                    "missing required object field `sweep`".into(),
                    Some("sweep".into()),
                ))
            }
            Some(Json::Obj(grid)) => {
                if grid.is_empty() {
                    return Err(bad(
                        "`sweep` must name at least one parameter".into(),
                        Some("sweep".into()),
                    ));
                }
                for (name, values) in grid {
                    let field = format!("sweep.{name}");
                    let Some(arr) = values.as_arr() else {
                        return Err(bad(
                            format!("`{field}` must be an array of values"),
                            Some(field),
                        ));
                    };
                    if arr.is_empty() {
                        return Err(bad(
                            format!("`{field}` must contain at least one value"),
                            Some(field),
                        ));
                    }
                    if sweep.iter().any(|(n, _)| n == name) {
                        return Err(bad(
                            format!("parameter `{name}` appears twice in `sweep`"),
                            Some(field),
                        ));
                    }
                    let mut vals = Vec::with_capacity(arr.len());
                    for v in arr {
                        vals.push(rat_from_json(v).ok_or_else(|| {
                            bad(
                                format!(
                                    "values in `{field}` must be integers or rational \
                                     strings like \"1/2\""
                                ),
                                Some(field.clone()),
                            )
                        })?);
                    }
                    sweep.push((name.clone(), vals));
                }
            }
            Some(_) => {
                return Err(bad(
                    "`sweep` must be an object mapping parameter names to value arrays".into(),
                    Some("sweep".into()),
                ))
            }
        }
        sweep.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, _) in &sweep {
            if bindings.iter().any(|(b, _)| b == name) {
                return Err(bad(
                    format!("parameter `{name}` is set in both `bindings` and `sweep`"),
                    Some(format!("sweep.{name}")),
                ));
            }
        }
        let total = sweep
            .iter()
            .fold(1usize, |acc, (_, v)| acc.saturating_mul(v.len()));
        if total > MAX_SWEEP_POINTS {
            return Err(bad(
                format!("sweep grid has {total} points; the maximum is {MAX_SWEEP_POINTS}"),
                Some("sweep".into()),
            ));
        }

        let bounded = |name: &'static str, lo: u64, hi: u64| -> Result<Option<u64>, ApiError> {
            match doc.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => match v.as_u64() {
                    Some(n) if (lo..=hi).contains(&n) => Ok(Some(n)),
                    Some(n) => Err(bad(
                        format!("`{name}` must be between {lo} and {hi}, got {n}"),
                        Some(name.to_string()),
                    )),
                    None => Err(bad(
                        format!("`{name}` must be a nonnegative integer"),
                        Some(name.to_string()),
                    )),
                },
            }
        };
        let timeout_ms = bounded("timeout_ms", 1, MAX_TIMEOUT_MS)?;
        let threads = bounded("threads", 1, MAX_REQUEST_THREADS)?.map(|v| v as usize);

        // Defaults to *true*, matching `/v1/run` and the CLI.
        let passes = match doc.get("passes") {
            None | Some(Json::Null) => true,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad("`passes` must be a boolean".into(), Some("passes".into())))?,
        };

        Ok(SweepRequest {
            source,
            engine,
            bindings,
            sweep,
            timeout_ms,
            threads,
            passes,
        })
    }

    /// The full grid: cartesian product of the per-parameter value lists,
    /// row-major over the name-sorted parameter order.
    fn points(&self) -> Vec<Vec<Rat>> {
        let mut points: Vec<Vec<Rat>> = vec![Vec::new()];
        for (_, values) in &self.sweep {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for prefix in &points {
                for v in values {
                    let mut row = prefix.clone();
                    row.push(v.clone());
                    next.push(row);
                }
            }
            points = next;
        }
        points
    }

    /// Cache key for one grid point's response body. Sweep bodies carry
    /// extra fields (`point`, `route`) and omit `stats`, so they live under
    /// sweep-specific keys rather than sharing `/v1/run` entries.
    fn point_key(&self, canonical_program: &str, point: &[Rat]) -> u64 {
        let mut h = DefaultHasher::new();
        "/v1/sweep".hash(&mut h);
        canonical_program.hash(&mut h);
        self.engine.name().hash(&mut h);
        self.passes.hash(&mut h);
        for (name, value) in &self.bindings {
            name.hash(&mut h);
            value.to_string().hash(&mut h);
        }
        for ((name, _), value) in self.sweep.iter().zip(point) {
            name.hash(&mut h);
            value.to_string().hash(&mut h);
        }
        h.finish()
    }
}

/// Decodes one parameter value: a JSON integer or a rational string like
/// `"1/2"` — the same forms `bindings` accepts.
fn rat_from_json(value: &Json) -> Option<Rat> {
    match value {
        Json::Str(s) => s.parse::<Rat>().ok(),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(Rat::ratio(*n as i64, 1)),
        _ => None,
    }
}

/// One distinct source's shared parse → check → compile outcome.
struct PreparedSource {
    /// Canonical pretty-printed program (empty when parsing failed).
    canonical: String,
    /// A compiled model template cloned per item, or the structured error
    /// every item with this source reports.
    outcome: Result<Model, ApiError>,
}

/// Result of the batch scan phase.
struct BatchPrep {
    /// Shared outcome per distinct raw source text.
    by_source: HashMap<String, Arc<PreparedSource>>,
    /// Distinct canonical programs actually compiled.
    compiles: u64,
    /// Distinct outcomes built (compiles plus parse failures); everything
    /// else was a reuse.
    fresh: u64,
}

/// Counters from one batch run, for `bayonet_batch_*` metrics.
struct BatchStats {
    items: u64,
    item_errors: u64,
    compiles: u64,
    source_reuse: u64,
}

/// The decoded body of a `/v1/batch` request.
struct BatchRequest {
    /// The raw per-item JSON objects, validated to be objects.
    items: Vec<Json>,
    /// Batch-level shared program source, if any.
    shared_source: Option<String>,
    /// Batch-level deadline budget covering all items.
    timeout_ms: Option<u64>,
}

impl BatchRequest {
    fn from_http(req: &Request) -> Result<BatchRequest, ApiError> {
        let bad = |message: String, field: Option<String>| ApiError {
            status: 400,
            kind: "bad_request",
            message,
            field,
        };
        let mut doc = request_doc(req)?;
        let Some(pairs) = doc.as_obj() else {
            return Err(bad("request body must be a JSON object".into(), None));
        };

        let known = ["source", "items", "timeout_ms"];
        for (key, _) in pairs {
            if !known.contains(&key.as_str()) {
                return Err(bad(
                    format!(
                        "unknown batch field `{key}` (known fields: {})",
                        known.join(", ")
                    ),
                    Some(key.clone()),
                ));
            }
        }

        // `source` and `items` move out of the document instead of being
        // cloned: a batch body can carry ~100 KB of program text.
        let shared_source = match doc.take("source") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s),
            Some(_) => {
                return Err(bad(
                    "`source` must be a string".into(),
                    Some("source".into()),
                ))
            }
        };
        let timeout_ms = match doc.get("timeout_ms") {
            None | Some(Json::Null) => None,
            Some(v) => match v.as_u64() {
                Some(ms) if (1..=MAX_TIMEOUT_MS).contains(&ms) => Some(ms),
                Some(ms) => {
                    return Err(bad(
                        format!("`timeout_ms` must be between 1 and {MAX_TIMEOUT_MS}, got {ms}"),
                        Some("timeout_ms".into()),
                    ))
                }
                None => {
                    return Err(bad(
                        "`timeout_ms` must be a nonnegative integer".into(),
                        Some("timeout_ms".into()),
                    ))
                }
            },
        };

        let items = match doc.take("items") {
            None => {
                return Err(bad(
                    "missing required array field `items`".into(),
                    Some("items".into()),
                ))
            }
            Some(Json::Arr(items)) => items,
            Some(_) => return Err(bad("`items` must be an array".into(), Some("items".into()))),
        };
        if items.is_empty() || items.len() > MAX_BATCH_ITEMS {
            return Err(bad(
                format!(
                    "`items` must contain between 1 and {MAX_BATCH_ITEMS} items, got {}",
                    items.len()
                ),
                Some("items".into()),
            ));
        }
        for (i, item) in items.iter().enumerate() {
            if item.as_obj().is_none() {
                return Err(bad(
                    format!("batch item {i} must be a JSON object"),
                    Some(format!("items[{i}]")),
                ));
            }
            let has_own_source = matches!(item.get("source"), Some(v) if !matches!(v, Json::Null));
            if shared_source.is_some() && has_own_source {
                return Err(bad(
                    format!(
                        "batch item {i} sets `source` while the batch has a shared top-level \
                         `source`; use one or the other"
                    ),
                    Some(format!("items[{i}].source")),
                ));
            }
        }

        Ok(BatchRequest {
            items,
            shared_source,
            timeout_ms,
        })
    }

    /// The batch-level deadline covering every item.
    fn deadline(&self) -> Deadline {
        match self.timeout_ms {
            Some(ms) => Deadline::after(Duration::from_millis(ms)),
            None => Deadline::unlimited(),
        }
    }
}

/// Collapses request paths onto a bounded label set, so hostile paths
/// cannot blow up metric cardinality.
fn normalize_endpoint(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/check" => "/v1/check",
        "/v1/run" => "/v1/run",
        "/v1/synthesize" => "/v1/synthesize",
        "/v1/batch" => "/v1/batch",
        "/v1/sweep" => "/v1/sweep",
        _ => "other",
    }
}

fn query_result_json(result: &QueryResult) -> Json {
    let cells = result
        .cells
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("constraint", Json::Str(c.constraint.clone())),
                (
                    "value",
                    c.value
                        .as_ref()
                        .map(|v| Json::Str(v.to_string()))
                        .unwrap_or(Json::Null),
                ),
                ("z", Json::Str(c.z.to_string())),
                ("discarded", Json::Str(c.discarded.to_string())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("query", Json::Str(result.source.clone())),
        ("cells", Json::Arr(cells)),
    ])
}

/// Inference engines the service can run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Engine {
    Exact,
    /// The `bayonet-bdd` knowledge-compilation backend: same posteriors as
    /// [`Engine::Exact`], bit for bit, often much faster on structured
    /// topologies. `"enum"` is accepted as an alias for `"exact"`.
    Bdd,
    Smc,
    Rejection,
    /// Planner-routed: the static cost model picks exact, bdd, or smc per
    /// request (`crate`-level docs; `bayonet_exact::planner`). Resolved to
    /// a concrete engine *before* the cache key is computed, so an
    /// auto-routed result and the same request with the chosen engine
    /// spelled out share one cache entry.
    Auto,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Exact => "exact",
            Engine::Bdd => "bdd",
            Engine::Smc => "smc",
            Engine::Rejection => "rejection",
            Engine::Auto => "auto",
        }
    }
}

/// A structured API error, rendered as `{"ok":false,"error":{...}}`.
/// When the error is about one specific request field, `field` names it
/// machine-readably alongside the human message. `Clone` lets a batch
/// report one shared compile failure from every affected item.
#[derive(Clone)]
struct ApiError {
    status: u16,
    kind: &'static str,
    message: String,
    field: Option<String>,
}

impl ApiError {
    fn into_response(self) -> Response {
        let mut error = vec![
            ("kind", Json::Str(self.kind.into())),
            ("message", Json::Str(self.message)),
        ];
        if let Some(field) = self.field {
            error.push(("field", Json::Str(field)));
        }
        Response::json(
            self.status,
            Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::obj(error))]).to_string(),
        )
    }
}

/// The structured 422 for a request whose cheapest cost estimate exceeds
/// its deadline budget (`"engine": "auto"` only — explicit engines keep the
/// run-then-interrupt contract). The `plan` object carries the estimates so
/// the client can raise `timeout_ms` by an informed amount, pick an engine
/// explicitly, or shrink the program. See `docs/SERVER.md`.
fn infeasible_response(plan: &Plan, needed_ns: u64) -> Response {
    let ms = |ns: u64| Json::Num((ns as f64 / 1e6 * 1000.0).round() / 1000.0);
    let mut plan_obj = vec![
        ("needed_ms", ms(needed_ns)),
        ("budget_ms", plan.budget_ns.map_or(Json::Null, ms)),
        ("est_expansions", Json::Num(plan.est_expansions as f64)),
        ("est_enum_ms", ms(plan.est_enum_ns)),
    ];
    if let Some(ns) = plan.est_bdd_ns {
        plan_obj.push(("est_bdd_ms", ms(ns)));
    }
    if let (Some(ns), Some(particles)) = (plan.est_smc_ns, plan.particles) {
        plan_obj.push(("est_smc_ms", ms(ns)));
        plan_obj.push(("est_smc_particles", Json::Num(particles as f64)));
    }
    let error = vec![
        ("kind", Json::Str("infeasible_deadline".into())),
        (
            "message",
            Json::Str(format!(
                "planner estimates {:.1} ms of work for the cheapest eligible \
                 engine but the deadline budget is {:.1} ms; raise timeout_ms, \
                 select an engine explicitly, or shrink the program",
                needed_ns as f64 / 1e6,
                plan.budget_ns.unwrap_or(0) as f64 / 1e6,
            )),
        ),
        ("field", Json::Str("timeout_ms".into())),
        ("plan", Json::obj(plan_obj)),
    ];
    Response::json(
        422,
        Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::obj(error))]).to_string(),
    )
}

fn exact_error(e: ExactError) -> ApiError {
    exact_error_ref(&e)
}

/// By-reference variant for per-point sweep errors, which stay owned by the
/// [`bayonet_exact::SweepResult`].
fn exact_error_ref(e: &ExactError) -> ApiError {
    match e {
        ExactError::Interrupted { .. } => ApiError {
            status: 504,
            kind: "timeout",
            message: e.to_string(),
            field: None,
        },
        other => ApiError {
            status: 422,
            kind: "engine_error",
            message: other.to_string(),
            field: None,
        },
    }
}

fn approx_error(e: ApproxError) -> ApiError {
    match e {
        ApproxError::Interrupted { .. } => ApiError {
            status: 504,
            kind: "timeout",
            message: e.to_string(),
            field: None,
        },
        other => ApiError {
            status: 422,
            kind: "engine_error",
            message: other.to_string(),
            field: None,
        },
    }
}

/// The decoded body of a `/v1/*` inference request.
struct InferenceRequest {
    source: String,
    engine: Engine,
    query: Option<usize>,
    /// Parameter bindings, sorted by name for canonical hashing.
    bindings: Vec<(String, Rat)>,
    particles: Option<usize>,
    seed: Option<u64>,
    timeout_ms: Option<u64>,
    /// Requested exact-engine worker threads; validated at parse time and
    /// clamped to the server's pool capacity at execution time.
    threads: Option<usize>,
    maximize: bool,
    allow_zero_params: bool,
    /// Whether to run the model-optimization pass pipeline (default true;
    /// `"passes": false` mirrors the CLI's `--no-opt`). Part of the cache
    /// key: pass-on and pass-off runs report different engine stats.
    passes: bool,
}

impl InferenceRequest {
    fn from_http(req: &Request) -> Result<InferenceRequest, ApiError> {
        InferenceRequest::from_json(&request_doc(req)?, None)
    }

    /// Decodes one inference request from an already parsed JSON object —
    /// either a whole `/v1/*` request body or one `/v1/batch` item. With
    /// `shared_source` set, an item missing its own `source` inherits it;
    /// every validation message matches the single-request path exactly, so
    /// batch frames stay byte-identical to `/v1/run` responses.
    fn from_json(doc: &Json, shared_source: Option<&str>) -> Result<InferenceRequest, ApiError> {
        let bad = |message: String| ApiError {
            status: 400,
            kind: "bad_request",
            message,
            field: None,
        };
        if doc.as_obj().is_none() {
            return Err(bad("request body must be a JSON object".into()));
        }

        let known = [
            "source",
            "engine",
            "query",
            "bindings",
            "particles",
            "seed",
            "timeout_ms",
            "threads",
            "maximize",
            "allow_zero_params",
            "passes",
        ];
        for (key, _) in doc.as_obj().expect("checked") {
            if !known.contains(&key.as_str()) {
                // Named structurally (`error.field`) so clients can catch a
                // typo like `"cache": false` programmatically instead of
                // having it silently change nothing.
                return Err(ApiError {
                    status: 400,
                    kind: "bad_request",
                    message: format!(
                        "unknown request field `{key}` (known fields: {})",
                        known.join(", ")
                    ),
                    field: Some(key.clone()),
                });
            }
        }

        let source = doc
            .get("source")
            .and_then(Json::as_str)
            .or(shared_source)
            .ok_or_else(|| bad("missing required string field `source`".into()))?
            .to_string();
        let engine = match doc.get("engine").map(|e| (e, e.as_str())) {
            None => Engine::Exact,
            Some((_, Some("exact" | "enum"))) => Engine::Exact,
            Some((_, Some("bdd"))) => Engine::Bdd,
            Some((_, Some("smc"))) => Engine::Smc,
            Some((_, Some("rejection"))) => Engine::Rejection,
            Some((_, Some("auto"))) => Engine::Auto,
            Some((v, _)) => {
                return Err(ApiError {
                    status: 400,
                    kind: "bad_request",
                    message: format!(
                        "unknown engine {v} (known engines: exact, enum, bdd, smc, rejection, auto)"
                    ),
                    field: Some("engine".into()),
                })
            }
        };
        let query = match doc.get("query") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| bad("`query` must be a nonnegative integer".into()))?
                    as usize,
            ),
        };
        let mut bindings = Vec::new();
        match doc.get("bindings") {
            None | Some(Json::Null) => {}
            Some(Json::Obj(pairs)) => {
                for (name, value) in pairs {
                    let rat = match value {
                        Json::Str(s) => s
                            .parse::<Rat>()
                            .map_err(|e| bad(format!("bad binding for `{name}`: {e}")))?,
                        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                            Rat::ratio(*n as i64, 1)
                        }
                        _ => {
                            return Err(bad(format!(
                                "binding `{name}` must be an integer or a rational string \
                                 like \"1/2\""
                            )))
                        }
                    };
                    bindings.push((name.clone(), rat));
                }
            }
            Some(_) => return Err(bad("`bindings` must be an object".into())),
        }
        bindings.sort_by(|a, b| a.0.cmp(&b.0));

        let int_field = |name: &str| -> Result<Option<u64>, ApiError> {
            match doc.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| bad(format!("`{name}` must be a nonnegative integer"))),
            }
        };
        let bool_field = |name: &str| -> Result<bool, ApiError> {
            match doc.get(name) {
                None | Some(Json::Null) => Ok(false),
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| bad(format!("`{name}` must be a boolean"))),
            }
        };

        // Bounded integer knobs: wrong type, negative, zero, and
        // out-of-range values are all structured 400s, never silent
        // defaults. `timeout_ms: 0` would be a deadline that has already
        // expired, and `threads: 0` a run with no workers — both are
        // client mistakes worth naming.
        let bounded_field = |name: &str, lo: u64, hi: u64| -> Result<Option<u64>, ApiError> {
            match int_field(name)? {
                None => Ok(None),
                Some(v) if (lo..=hi).contains(&v) => Ok(Some(v)),
                Some(v) => Err(bad(format!(
                    "`{name}` must be between {lo} and {hi}, got {v}"
                ))),
            }
        };
        let timeout_ms = bounded_field("timeout_ms", 1, MAX_TIMEOUT_MS)?;
        let threads = bounded_field("threads", 1, MAX_REQUEST_THREADS)?.map(|v| v as usize);

        // Unlike the other boolean knobs, `passes` defaults to *true*.
        let passes = match doc.get("passes") {
            None | Some(Json::Null) => true,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad("`passes` must be a boolean".into()))?,
        };

        Ok(InferenceRequest {
            source,
            engine,
            query,
            bindings,
            particles: int_field("particles")?.map(|v| v as usize),
            seed: int_field("seed")?,
            timeout_ms,
            threads,
            maximize: bool_field("maximize")?,
            allow_zero_params: bool_field("allow_zero_params")?,
            passes,
        })
    }

    fn deadline(&self) -> Deadline {
        match self.timeout_ms {
            Some(ms) => Deadline::after(Duration::from_millis(ms)),
            None => Deadline::unlimited(),
        }
    }

    fn cache_key(&self, endpoint: &str, canonical_program: &str) -> u64 {
        let mut h = DefaultHasher::new();
        endpoint.hash(&mut h);
        canonical_program.hash(&mut h);
        self.engine.name().hash(&mut h);
        self.query.hash(&mut h);
        self.particles.hash(&mut h);
        self.seed.hash(&mut h);
        self.maximize.hash(&mut h);
        self.allow_zero_params.hash(&mut h);
        self.passes.hash(&mut h);
        for (name, value) in &self.bindings {
            name.hash(&mut h);
            value.to_string().hash(&mut h);
        }
        h.finish()
    }

    fn check_query_index(&self, idx: usize, len: usize) -> Result<(), ApiError> {
        if idx < len {
            Ok(())
        } else {
            Err(ApiError {
                status: 400,
                kind: "bad_request",
                message: format!("query index {idx} out of range ({len} queries declared)"),
                field: None,
            })
        }
    }

    /// The CLI's `load()` pipeline on the request's parsed `source`:
    /// compile, apply bindings, pick the scheduler.
    fn build_model(&self, program: &Program) -> Result<(Model, Box<dyn Scheduler>), ApiError> {
        let mut model = check_and_compile(program)?;
        apply_bindings(&mut model, &self.bindings)?;
        let scheduler = scheduler_for(&model);
        Ok((model, scheduler))
    }
}

/// Decodes a request body as one JSON document; bad UTF-8 and bad JSON
/// are the same structured `400` on every endpoint.
fn request_doc(req: &Request) -> Result<Json, ApiError> {
    let bad = |message: String| ApiError {
        status: 400,
        kind: "bad_request",
        message,
        field: None,
    };
    let body = req.body_str().map_err(|e| bad(e.to_string()))?;
    json::parse(body).map_err(|e| bad(e.to_string()))
}

/// Integrity-checks and compiles a parsed program with the same error
/// shapes as the single-request path. Batch preparation calls this once
/// per distinct canonical source.
fn check_and_compile(program: &Program) -> Result<Model, ApiError> {
    check(program).map_err(|errors| ApiError {
        status: 422,
        kind: "check_error",
        message: format!(
            "{} integrity error(s): {}",
            errors.len(),
            errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ),
        field: None,
    })?;
    compile(program).map_err(|e| ApiError {
        status: 422,
        kind: "compile_error",
        message: e.to_string(),
        field: None,
    })
}

/// Applies request parameter bindings to a model, again with single-request
/// error shapes.
fn apply_bindings(model: &mut Model, bindings: &[(String, Rat)]) -> Result<(), ApiError> {
    for (name, value) in bindings {
        model
            .bind_param(name, value.clone())
            .map_err(|e| ApiError {
                status: 400,
                kind: "bad_request",
                message: e.to_string(),
                field: None,
            })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOSSIP: &str = r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
        def recv(pkt, pt) state got(0) { got = 1; drop; }
    "#;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn body_json(resp: &Response) -> Json {
        json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    /// Pins the one NDJSON framing shared by `/v1/batch` items and
    /// `/v1/sweep` grid points: `{"index":N,"status":S,"body":...}\n` with
    /// the response body spliced in verbatim.
    #[test]
    fn ndjson_frame_encoding_is_pinned() {
        let resp = Response::json(207, r#"{"ok":true}"#);
        assert_eq!(
            ndjson_frame(3, &resp),
            br#"{"index":3,"status":207,"body":{"ok":true}}
"#
        );
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let svc = Service::new(4);
        assert_eq!(svc.handle(&get("/healthz")).status, 200);
        assert_eq!(svc.handle(&get("/nope")).status, 404);
        assert_eq!(svc.handle(&get("/v1/run")).status, 405);
    }

    #[test]
    fn run_exact_returns_cli_text() {
        let svc = Service::new(4);
        let body = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
        let resp = svc.handle(&post("/v1/run", &body));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        let text = doc.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("1/3"), "{text}");
        assert!(text.contains("Z = 1"), "{text}");
        assert!(text.ends_with("merge hits]\n"), "{text}");
    }

    #[test]
    fn identical_requests_hit_the_cache() {
        let svc = Service::new(4);
        let body = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
        let first = svc.handle(&post("/v1/run", &body));
        // Different surface syntax, same canonical program: extra blank
        // lines don't defeat the cache.
        let body2 = Json::obj(vec![("source", Json::Str(format!("\n\n{GOSSIP}\n")))]).to_string();
        let second = svc.handle(&post("/v1/run", &body2));
        assert_eq!(first, second);
        assert_eq!(svc.metrics().cache_counts(), (1, 1));
    }

    #[test]
    fn errors_are_structured_and_uncached() {
        let svc = Service::new(4);
        let resp = svc.handle(&post("/v1/run", "not json"));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            doc.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("bad_request")
        );

        let bad_field = r#"{"source":"x","fuel":1}"#;
        let resp = svc.handle(&post("/v1/run", bad_field));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("unknown request field"));

        let parse_fail = Json::obj(vec![("source", Json::Str("not a program".into()))]).to_string();
        let resp = svc.handle(&post("/v1/run", &parse_fail));
        assert_eq!(resp.status, 422);
        assert_eq!(
            body_json(&resp)
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("parse_error")
        );
        // All three failed before reaching the cache, so no hits or misses.
        assert_eq!(svc.metrics().cache_counts(), (0, 0));
    }

    #[test]
    fn smc_engine_estimates() {
        let svc = Service::new(4);
        let body = Json::obj(vec![
            ("source", Json::Str(GOSSIP.into())),
            ("engine", Json::Str("smc".into())),
            ("particles", Json::Num(200.0)),
            ("seed", Json::Num(7.0)),
        ])
        .to_string();
        let resp = svc.handle(&post("/v1/run", &body));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        let est = &doc.get("estimates").unwrap();
        let value = est
            .get_index(0)
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((value - 1.0 / 3.0).abs() < 0.15, "estimate {value}");
    }

    /// Gossip on K4 (examples/bay/gossip_k4.bay): big enough that a 1 ms
    /// deadline reliably expires mid-exploration.
    const GOSSIP_K4: &str = r#"
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

    #[test]
    fn timeout_returns_structured_error() {
        let svc = Service::new(4);
        let body = Json::obj(vec![
            ("source", Json::Str(GOSSIP_K4.into())),
            ("timeout_ms", Json::Num(1.0)),
        ])
        .to_string();
        let resp = svc.handle(&post("/v1/run", &body));
        assert_eq!(
            resp.status,
            504,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("timeout")
        );
    }

    /// Splits an NDJSON batch body into `(index, status, raw body)` frame
    /// parts, keeping the body bytes verbatim for byte-identity checks.
    fn frames(resp: &Response) -> Vec<(u64, u64, String)> {
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let text = std::str::from_utf8(&resp.body).unwrap();
        text.lines()
            .map(|line| {
                let doc = json::parse(line).unwrap();
                let index = doc.get("index").unwrap().as_u64().unwrap();
                let status = doc.get("status").unwrap().as_u64().unwrap();
                let start = line.find(",\"body\":").unwrap() + ",\"body\":".len();
                let body = line[start..line.len() - 1].to_string();
                (index, status, body)
            })
            .collect()
    }

    #[test]
    fn batch_shared_source_compiles_once_and_matches_single_runs() {
        // Independent service computes the sequential baselines.
        let single = Service::new(8);
        let item_bodies = [
            Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string(),
            Json::obj(vec![
                ("source", Json::Str(GOSSIP.into())),
                ("engine", Json::Str("smc".into())),
                ("particles", Json::Num(100.0)),
                ("seed", Json::Num(1.0)),
            ])
            .to_string(),
            Json::obj(vec![
                ("source", Json::Str(GOSSIP.into())),
                ("engine", Json::Str("smc".into())),
                ("particles", Json::Num(100.0)),
                ("seed", Json::Num(2.0)),
            ])
            .to_string(),
        ];
        let baselines: Vec<Vec<u8>> = item_bodies
            .iter()
            .map(|b| {
                let resp = single.handle(&post("/v1/run", b));
                assert_eq!(resp.status, 200);
                resp.body
            })
            .collect();

        let svc = Service::new(8);
        let batch = format!(
            r#"{{"source":{},"items":[{{}},{{"engine":"smc","particles":100,"seed":1}},{{"engine":"smc","particles":100,"seed":2}}]}}"#,
            Json::Str(GOSSIP.into())
        );
        let resp = svc.handle(&post("/v1/batch", &batch));
        assert_eq!(resp.content_type, "application/x-ndjson");
        let frames = frames(&resp);
        assert_eq!(frames.len(), 3);
        for (i, (index, status, body)) in frames.iter().enumerate() {
            assert_eq!(*index, i as u64);
            assert_eq!(*status, 200);
            assert_eq!(body.as_bytes(), baselines[i], "item {i} diverged");
        }

        let metrics = svc.metrics().render();
        assert!(
            metrics.contains("bayonet_batch_requests_total 1"),
            "{metrics}"
        );
        assert!(metrics.contains("bayonet_batch_items_total 3"), "{metrics}");
        assert!(
            metrics.contains("bayonet_batch_item_errors_total 0"),
            "{metrics}"
        );
        // One shared source: compiled exactly once, reused by the other two.
        assert!(
            metrics.contains("bayonet_batch_compiles_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("bayonet_batch_source_reuse_total 2"),
            "{metrics}"
        );
    }

    #[test]
    fn batch_items_share_the_result_cache_with_single_runs() {
        let svc = Service::new(8);
        let run_body = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
        let warm = svc.handle(&post("/v1/run", &run_body));
        assert_eq!(warm.status, 200);

        let batch = format!(r#"{{"items":[{{"source":{}}}]}}"#, Json::Str(GOSSIP.into()));
        let resp = svc.handle(&post("/v1/batch", &batch));
        let frames = frames(&resp);
        assert_eq!(frames[0].2.as_bytes(), warm.body);
        // One miss from the warm-up run, one hit from the batch item.
        assert_eq!(svc.metrics().cache_counts(), (1, 1));
    }

    #[test]
    fn batch_validation_is_structured_and_preflight() {
        let svc = Service::new(4);

        // Empty items array.
        let resp = svc.handle(&post("/v1/batch", r#"{"items":[]}"#));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("field").unwrap().as_str(),
            Some("items")
        );

        // Conflicting shared and per-item source.
        let body = format!(
            r#"{{"source":{},"items":[{{"source":"x"}}]}}"#,
            Json::Str(GOSSIP.into())
        );
        let resp = svc.handle(&post("/v1/batch", &body));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("field").unwrap().as_str(),
            Some("items[0].source")
        );

        // Unknown top-level batch field.
        let resp = svc.handle(&post("/v1/batch", r#"{"items":[{}],"engine":"smc"}"#));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("field").unwrap().as_str(),
            Some("engine")
        );

        // Non-object item.
        let resp = svc.handle(&post("/v1/batch", r#"{"items":[{},7]}"#));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("field").unwrap().as_str(),
            Some("items[1]")
        );

        // Nothing ran, so no batch metrics were recorded.
        let metrics = svc.metrics().render();
        assert!(
            metrics.contains("bayonet_batch_requests_total 0"),
            "{metrics}"
        );
    }

    #[test]
    fn batch_item_failures_do_not_abort_siblings() {
        let svc = Service::new(4);
        let batch = format!(
            r#"{{"source":{},"items":[{{}},{{"fuel":1}},{{"timeout_ms":0}}]}}"#,
            Json::Str(GOSSIP.into())
        );
        let resp = svc.handle(&post("/v1/batch", &batch));
        let frames = frames(&resp);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].1, 200);
        // Unknown per-item field: same structured error as /v1/run.
        assert_eq!(frames[1].1, 400);
        assert!(
            frames[1].2.contains("unknown request field `fuel`"),
            "{}",
            frames[1].2
        );
        // Invalid per-item timeout.
        assert_eq!(frames[2].1, 400);
        assert!(frames[2].2.contains("timeout_ms"), "{}", frames[2].2);

        let metrics = svc.metrics().render();
        assert!(
            metrics.contains("bayonet_batch_item_errors_total 2"),
            "{metrics}"
        );
    }

    #[test]
    fn batch_deadline_expires_unstarted_items() {
        let svc = Service::new(0);
        // A batch whose budget is practically zero: every item that is not
        // already cached times out with a structured per-item 504.
        let batch = format!(
            r#"{{"source":{},"timeout_ms":1,"items":[{{}},{{"seed":1,"engine":"smc"}}]}}"#,
            Json::Str(GOSSIP_K4.into())
        );
        let resp = svc.handle(&post("/v1/batch", &batch));
        let frames = frames(&resp);
        assert_eq!(frames.len(), 2);
        for (_, status, body) in &frames {
            assert_eq!(*status, 504, "{body}");
            assert!(body.contains("timeout"), "{body}");
        }
    }

    #[test]
    fn threads_hint_is_accepted_and_results_match_single_threaded() {
        let single = Service::new(0);
        let body1 = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
        let baseline = single.handle(&post("/v1/run", &body1));
        assert_eq!(baseline.status, 200);

        let pooled = Service::with_pool(0, ComputePool::new(4));
        let body8 = Json::obj(vec![
            ("source", Json::Str(GOSSIP.into())),
            ("threads", Json::Num(8.0)),
        ])
        .to_string();
        let parallel = pooled.handle(&post("/v1/run", &body8));
        assert_eq!(parallel.status, 200);
        // Identical posterior and identical rendered text: the threads
        // hint must never change what a request computes.
        assert_eq!(baseline.body, parallel.body);
    }
}
