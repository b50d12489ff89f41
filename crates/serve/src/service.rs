//! Request routing and inference execution.
//!
//! The [`Service`] is the transport-independent core of the server: it maps
//! one parsed HTTP [`Request`] to its answer, running the same
//! parse → check → compile → infer pipeline as the `bayonet` CLI. Exact
//! results carry a `text` field rendered **byte-for-byte identically** to
//! `bayonet run` stdout, so clients (and tests) can diff the two directly.
//!
//! Every inference endpoint runs through one pipeline:
//!
//! 1. **decode** the body, validating every field with the shared field
//!    decoders;
//! 2. **prepare** each distinct canonical source once: parse, pretty-print
//!    and check it; its compiled and optimized models are built lazily,
//!    once, when the first item needs them;
//! 3. **route** `"engine": "auto"` through the cost model, against the
//!    optimized model with the item's bindings applied;
//! 4. **look up** the result cache;
//! 5. **execute** the engine, caching successes;
//! 6. **frame** the answer: one JSON response, or one NDJSON frame per
//!    batch item or sweep point.
//!
//! `/v1/check`, `/v1/run` and `/v1/synthesize` are one-item jobs, a batch
//! runs stages 3–5 per item over its shared prepared sources, and a sweep
//! hands one prepared source to [`bayonet_exact::sweep`]. Frames go to a
//! sink: [`Service::handle`] buffers them sorted by index, and the HTTP
//! workers stream them as chunked NDJSON as they complete.
//!
//! Below the result cache, the service keeps each recently run program's
//! optimized model and, once a fully bound enumeration showed that no
//! handler or initializer reads a parameter, that exploration: a later
//! binding of the program then runs query answering alone (see
//! [`Service::exact_run`]). Its answer is byte-identical to a fresh run's.
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
use std::mem::size_of_val;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bayonet_approx::{rejection, render_estimate, smc, ApproxError, ApproxOptions, Estimate};
use bayonet_exact::{
    analyze, analyze_keeping, answer_cached, fan_out, plan_model, render_run, render_synthesis,
    synthesize_result, Analysis, ComputePool, EngineKind, ExactError, ExactOptions,
    FeasibilityCache, KeptDag, Objective, Plan, PlanDecision, PlanEngine, PlannerConfig,
    QueryResult, Reuse, SweepResult, SynthesisOptions,
};
use bayonet_lang::{check, parse, pretty_program, Program};
use bayonet_net::opt::optimize;
use bayonet_net::{compile, scheduler_for, CompiledQuery, Deadline, Model};
use bayonet_num::Rat;

use crate::cache::LruCache;
use crate::http::{ChunkedWriter, Request, Response};
use crate::json::{self, Json};
use crate::metrics::{Counter, Metrics};
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

/// Largest accepted `particles` for the approximate engines: the most the
/// planner ever sizes an SMC run to. Each particle holds one global
/// configuration, so an unbounded count is an unbounded allocation.
pub const MAX_PARTICLES: u64 = 100_000;

/// Largest per-request `threads` value accepted before server-side
/// clamping; anything above this is a client error rather than a hint.
pub const MAX_REQUEST_THREADS: u64 = 64;

/// Largest accepted `timeout_ms`; uncapped deadlines are expressed by
/// omitting the field.
pub const MAX_TIMEOUT_MS: u64 = 600_000;

/// Optimized models kept across requests (see [`Service::exact_model`]):
/// twice the seven distinct programs of the largest measured working set.
const OPTIMIZED_MODELS: usize = 16;

/// Largest canonical program whose optimized model is kept across
/// requests, so the kept models stay small however big the bodies are.
const OPTIMIZED_SOURCE_BYTES: usize = 16 * 1024;

/// Largest exploration kept with a program's optimized model, by
/// [`Exploration::bytes`]; the kept explorations never exceed
/// [`OPTIMIZED_MODELS`] times this.
const EXPLORATION_BYTES: usize = 1024 * 1024;

const NDJSON: &str = "application/x-ndjson";

/// Receives each batch item's or sweep point's answer with its index,
/// possibly from several lanes at once; returns `false` once the client is
/// gone.
type Emit<'a> = &'a (dyn Fn(usize, &Response) -> bool + Sync);

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
    /// Optimized models of recently run programs, with their kept
    /// explorations, by canonical program.
    optimized: Mutex<LruCache<String, Arc<Kept>>>,
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
    /// from `pool`. The pool's occupancy and lease counts are exported
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
                    metrics.set(Counter::CacheEvictions, c.evictions());
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
            optimized: Mutex::new(LruCache::new(OPTIMIZED_MODELS)),
            pool: opts.pool,
            persist,
        })
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Handles one request and returns its whole answer, recording request
    /// metrics. Batch and sweep frames are buffered and sorted by index, so
    /// in-process callers (the CLI's `run --batch` and `run --sweep`,
    /// tests) get deterministic output.
    pub fn handle(&self, req: &Request) -> Response {
        let frames = Mutex::new(Vec::new());
        let answer = self.respond(req, &|index, resp| {
            let frame = ndjson_frame(index, resp);
            frames.lock().expect("frames mutex").push((index, frame));
            true
        });
        answer.unwrap_or_else(|| {
            let mut frames = frames.into_inner().expect("frames mutex");
            frames.sort_by_key(|(index, _)| *index);
            Response {
                status: 200,
                headers: Vec::new(),
                content_type: NDJSON,
                body: frames
                    .into_iter()
                    .map(|(_, frame)| frame)
                    .collect::<Vec<_>>()
                    .concat(),
            }
        })
    }

    /// Answers one request on `out`: the HTTP workers' single entry point.
    /// Batch and sweep frames stream as chunked NDJSON in completion order.
    /// The chunked head goes out with the first frame, so a request that
    /// fails before producing one gets an ordinary buffered error response.
    /// When a frame cannot be written (the client disconnected), the rest
    /// of a batch is cancelled instead of burning engine time on frames
    /// nobody will read.
    ///
    /// # Errors
    ///
    /// Propagates transport errors, including the client disconnecting
    /// mid-stream.
    pub(crate) fn serve<W: Write + Send>(&self, req: &Request, out: &mut W) -> io::Result<()> {
        enum Stream<'a, W: Write> {
            Idle(&'a mut W),
            Open(ChunkedWriter<'a, W>),
            Broken,
        }
        let stream = Mutex::new(Stream::Idle(out));
        let answer = self.respond(req, &|index, resp| {
            let mut stream = stream.lock().expect("stream mutex");
            let mut writer = match std::mem::replace(&mut *stream, Stream::Broken) {
                Stream::Idle(out) => match ChunkedWriter::begin(out, 200, NDJSON) {
                    Ok(writer) => writer,
                    Err(_) => return false,
                },
                Stream::Open(writer) => writer,
                Stream::Broken => return false,
            };
            let written = writer.chunk(&ndjson_frame(index, resp)).is_ok();
            if written {
                *stream = Stream::Open(writer);
            }
            written
        });
        match (answer, stream.into_inner().expect("stream mutex")) {
            (Some(resp), Stream::Idle(out)) => resp.write_to(out),
            (None, Stream::Idle(out)) => ChunkedWriter::begin(out, 200, NDJSON)?.finish(),
            (None, Stream::Open(writer)) => writer.finish(),
            _ => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "client disconnected mid-stream",
            )),
        }
    }

    /// Answers one request and records its request metrics: `Some` plain
    /// response, or `None` once the answer went to `emit` as frames.
    fn respond(&self, req: &Request, emit: Emit<'_>) -> Option<Response> {
        let started = Instant::now();
        let answer = self
            .route(req, emit)
            .unwrap_or_else(|e| Some(e.into_response()));
        let status = answer.as_ref().map_or(200, |resp| resp.status);
        self.metrics
            .record_request(normalize_endpoint(&req.path), status, started.elapsed());
        answer
    }

    fn route(&self, req: &Request, emit: Emit<'_>) -> Result<Option<Response>, ApiError> {
        let endpoint = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => return Ok(Some(Response::json(200, r#"{"status":"ok"}"#))),
            ("GET", "/metrics") => {
                return Ok(Some(
                    Response::text(200, self.metrics.render())
                        .with_content_type("text/plain; version=0.0.4; charset=utf-8"),
                ))
            }
            ("POST", path @ ("/v1/check" | "/v1/run" | "/v1/synthesize")) => path,
            ("POST", "/v1/batch") => return self.batch(request_doc(req)?, emit).map(|()| None),
            ("POST", "/v1/sweep") => return self.sweep(request_doc(req)?, emit).map(|()| None),
            ("GET", "/v1/check" | "/v1/run" | "/v1/synthesize" | "/v1/batch" | "/v1/sweep")
            | ("POST", "/healthz" | "/metrics") => {
                return Err(ApiError::new(
                    405,
                    "method_not_allowed",
                    format!("{} does not support {}", req.path, req.method),
                ))
            }
            _ => {
                return Err(ApiError::new(
                    404,
                    "not_found",
                    format!("no such endpoint: {}", req.path),
                ))
            }
        };
        // A single request is a one-item job.
        let item = InferenceRequest::decode(&request_doc(req)?, None)?;
        let source = prepare(&item.source, &mut HashMap::new())?;
        self.item(endpoint, item, &source, &Deadline::unlimited())
            .map(Some)
    }

    /// Stages 3–5 for one item of `endpoint` over its prepared `source`.
    /// `outer` is the enclosing batch's deadline (unlimited for a single
    /// request).
    fn item(
        &self,
        endpoint: &str,
        mut item: InferenceRequest,
        source: &Source,
        outer: &Deadline,
    ) -> Result<Response, ApiError> {
        // `"engine": "auto"` resolves to a concrete engine *before* the
        // cache key is computed, so a planner-routed result and the same
        // request with the chosen engine spelled out share one cache entry
        // — and an infeasible deadline is rejected before any engine work.
        // Each item plans on its own bindings and budget, against the
        // optimized model, whose cached pass facts and symmetry signals
        // the cost model reads.
        let mut routed = None;
        if item.engine == Engine::Auto {
            if endpoint == "/v1/run" {
                let model = bind(self.exact_model(source, item.passes)?, &item.bindings)?;
                let budget = plan_budget(outer, item.timeout_ms);
                match self.plan_auto(&mut item, &model, budget) {
                    Ok(plan) => routed = Some((model, plan)),
                    Err(rejection) => return Ok(rejection),
                }
            } else {
                // `/v1/check` never runs an engine and `/v1/synthesize`
                // always runs the exact enumeration core, so auto resolves
                // to the same key the default request would use.
                item.engine = Engine::Exact;
            }
        }

        let key = item.cache_key(endpoint, &source.canonical);
        if let Some(hit) = self.lookup(&[key]).and_then(|mut hits| hits.pop()) {
            return Ok(hit);
        }
        if outer.expired() {
            return Err(ApiError::new(
                504,
                "timeout",
                "batch budget exhausted before this item started",
            ));
        }

        let deadline = item_deadline(outer, item.timeout_ms);
        let response = match endpoint {
            "/v1/check" => check_response(&source.check),
            "/v1/synthesize" => {
                let model = bind(self.exact_model(source, item.passes)?, &item.bindings)?;
                self.synthesize(&item, source, &model, deadline)?
            }
            _ => {
                // Exact engines run the optimized model; sampling engines
                // run the original, because sampling cannot use the
                // symmetry group and optimizing would be wasted work.
                let exact = matches!(item.engine, Engine::Exact | Engine::Bdd);
                let (model, plan) = match routed {
                    Some((model, plan)) if exact => (model, Some(plan)),
                    routed => {
                        let template = if exact {
                            self.exact_model(source, item.passes)?
                        } else {
                            source.model()?
                        };
                        (
                            bind(template, &item.bindings)?,
                            routed.map(|(_, plan)| plan),
                        )
                    }
                };
                self.run(&item, source, &model, deadline, plan.as_ref())?
            }
        };
        self.store(key, &response);
        Ok(response)
    }

    /// The model exact engines run: the source's compiled model, or — unless
    /// the request opted out of the passes — its optimized model, built the
    /// first time an item needs it. Passes never fold parameters, so one
    /// optimized model serves every item and binding. Programs up to
    /// [`OPTIMIZED_SOURCE_BYTES`] keep theirs for later requests too, since
    /// `auto` items are planned on it even when their answer is cached; a
    /// request that finds its program kept compiles nothing.
    fn exact_model<'s>(&self, source: &'s Source, passes: bool) -> Result<&'s Model, ApiError> {
        if !passes {
            return source.model();
        }
        let keep = source.canonical.len() <= OPTIMIZED_SOURCE_BYTES;
        let memo = &self.optimized;
        if keep && source.optimized.get().is_none() {
            // A kept program checked and compiled once already, and its
            // optimized model is all an exact run needs: compile nothing.
            if let Some(kept) = memo.lock().expect("kept mutex").get(&source.canonical) {
                let _ = source.optimized.set(Arc::clone(kept));
            }
        }
        if let Some(kept) = source.optimized.get() {
            return Ok(&kept.model);
        }
        let model = source.model()?;
        let kept = source.optimized.get_or_init(|| {
            let optimized = optimize(model);
            self.metrics.add(Counter::OptPassRuns, 1);
            let kept = Arc::new(Kept {
                model: optimized,
                exploration: Mutex::default(),
            });
            if keep {
                let mut memo = memo.lock().expect("kept mutex");
                // A concurrent request may have kept this program first;
                // share its entry rather than replace it uncounted.
                if let Some(first) = memo.get(&source.canonical) {
                    return Arc::clone(first);
                }
                if let Some((_, evicted)) = memo.insert(source.canonical.clone(), Arc::clone(&kept))
                {
                    let bytes = evicted
                        .exploration
                        .lock()
                        .expect("exploration mutex")
                        .bytes();
                    self.metrics.add(Counter::MemoBytes, -(bytes as i64));
                }
            }
            kept
        });
        Ok(&kept.model)
    }

    /// Replaces `kept`'s exploration with `next` when it fits
    /// [`EXPLORATION_BYTES`], `kept` is still `source`'s entry in the memo,
    /// and `replace` approves the current one. Only a kept entry changes,
    /// so evicting it always returns the bytes it added to
    /// `bayonet_exploration_memo_bytes`.
    fn set_exploration(
        &self,
        source: &Source,
        kept: &Arc<Kept>,
        replace: impl FnOnce(&Exploration) -> bool,
        next: Exploration,
    ) {
        let bytes = next.bytes();
        if bytes > EXPLORATION_BYTES {
            return;
        }
        let mut memo = self.optimized.lock().expect("kept mutex");
        if !memo
            .get(&source.canonical)
            .is_some_and(|entry| Arc::ptr_eq(entry, kept))
        {
            return;
        }
        let mut current = kept.exploration.lock().expect("exploration mutex");
        if replace(&current) {
            let freed = current.bytes();
            *current = next;
            self.metrics
                .add(Counter::MemoBytes, bytes as i64 - freed as i64);
        }
    }

    /// Stage 4: the cached answers for `keys`, only if every one is cached.
    /// The lookup counts as one cache hit or miss either way.
    fn lookup(&self, keys: &[u64]) -> Option<Vec<Response>> {
        let hits: Option<Vec<Response>> = {
            let mut cache = self.cache.lock().expect("cache mutex");
            keys.iter().map(|key| cache.get(key).cloned()).collect()
        };
        let counter = match hits {
            Some(_) => Counter::CacheHits,
            None => Counter::CacheMisses,
        };
        self.metrics.add(counter, 1);
        hits
    }

    /// Caches a successful answer under `key` and appends it to the
    /// persistent segment; error answers are never cached.
    fn store(&self, key: u64, resp: &Response) {
        if resp.status != 200 {
            return;
        }
        let evictions = {
            let mut cache = self.cache.lock().expect("cache mutex");
            cache.insert(key, resp.clone());
            cache.evictions()
        };
        self.metrics.set(Counter::CacheEvictions, evictions);
        if let Some(store) = &self.persist {
            store.append(key, resp.body.clone());
        }
    }

    /// Exact-engine options for one request — its `threads` hint clamped to
    /// the pool capacity, plus the shared pool — with a fresh per-request
    /// feasibility memo table, returned for [`Service::record_feasibility`].
    fn exact_options(
        &self,
        threads: Option<usize>,
        passes: bool,
        deadline: Deadline,
    ) -> (ExactOptions, Arc<FeasibilityCache>) {
        let feasibility = Arc::new(FeasibilityCache::new());
        let opts = ExactOptions {
            deadline,
            threads: self
                .pool
                .as_ref()
                .map_or(1, |pool| threads.unwrap_or(1).min(pool.capacity())),
            pool: self.pool.clone(),
            passes,
            feasibility_cache: Some(Arc::clone(&feasibility)),
            ..ExactOptions::default()
        };
        (opts, feasibility)
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
                self.metrics.add(Counter::PlannerRejections, 1);
                Err(infeasible_response(&plan, needed_ns))
            }
        }
    }

    /// Runs the `/v1/run` engine dispatch against a compiled model with
    /// the request's bindings applied. With `plan` set (planner-routed
    /// requests) a successful run is timed and the actual/predicted cost
    /// ratio folded into `bayonet_planner_cost_ratio`.
    fn run(
        &self,
        req: &InferenceRequest,
        source: &Source,
        model: &Model,
        deadline: Deadline,
        plan: Option<&Plan>,
    ) -> Result<Response, ApiError> {
        let started = Instant::now();
        // A kept exploration answers without the run the planner priced.
        let mut explored = true;
        let response = match req.engine {
            Engine::Exact | Engine::Bdd => {
                let engine = req.engine.exact_kind();
                let (analysis, results, ran) =
                    self.exact_run(req, source, model, engine, deadline, &model.queries)?;
                explored = ran;
                let z = analysis.total_terminal_mass();
                let discarded = analysis.total_discarded_mass();
                let stats = &analysis.stats;
                // Byte-for-byte the stdout of `bayonet run` with the same
                // engine selection.
                let text = render_run(&results, &z, &discarded, Some(stats));
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("engine", Json::Str(req.engine.name().into())),
                    (
                        "results",
                        Json::Arr(results.iter().map(query_result_json).collect()),
                    ),
                    ("z", Json::Str(z.to_string())),
                    ("discarded", Json::Str(discarded.to_string())),
                    (
                        "stats",
                        Json::obj(vec![
                            ("steps", Json::Num(stats.steps as f64)),
                            ("expansions", Json::Num(stats.expansions as f64)),
                            ("peak_configs", Json::Num(stats.peak_configs as f64)),
                            ("merge_hits", Json::Num(stats.merge_hits as f64)),
                            ("terminal_configs", Json::Num(stats.terminal_configs as f64)),
                        ]),
                    ),
                    ("text", Json::Str(text)),
                ])
            }
            Engine::Smc | Engine::Rejection => {
                let scheduler = scheduler_for(model);
                let opts = ApproxOptions {
                    particles: req.particles.unwrap_or(1000),
                    seed: req.seed.unwrap_or(0),
                    deadline,
                    ..ApproxOptions::default()
                };
                let indices: Vec<usize> = match req.query {
                    Some(idx) => {
                        check_query_index(idx, model.queries.len())?;
                        vec![idx]
                    }
                    None => (0..model.queries.len()).collect(),
                };
                let mut text = String::new();
                let mut estimates = Vec::new();
                for idx in indices {
                    let q = &model.queries[idx];
                    let est: Estimate = match req.engine {
                        Engine::Smc => smc(model, &*scheduler, q, &opts),
                        _ => rejection(model, &*scheduler, q, &opts),
                    }
                    .map_err(approx_error)?;
                    // Byte-for-byte the stdout of `bayonet run --engine smc`.
                    text.push_str(&render_estimate(&q.source, &est));
                    estimates.push(Json::obj(vec![
                        ("query", Json::Str(q.source.clone())),
                        ("value", Json::Num(est.value)),
                        ("std_error", Json::Num(est.std_error)),
                        ("samples", Json::Num(est.samples as f64)),
                        ("z_estimate", Json::Num(est.z_estimate)),
                    ]));
                }
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("engine", Json::Str(req.engine.name().into())),
                    ("estimates", Json::Arr(estimates)),
                    ("text", Json::Str(text)),
                ])
            }
            // Resolved to a concrete engine in `item` before any run.
            Engine::Auto => unreachable!("auto engine is resolved before dispatch"),
        };
        if let Some(plan) = plan.filter(|_| explored) {
            let actual_ns = started.elapsed().as_nanos() as f64;
            self.metrics
                .record_planner_ratio(actual_ns / plan.est_cost_ns.max(1) as f64);
        }
        Ok(Response::json(200, response.to_string()))
    }

    /// One exact run: analyzes `model` on `engine` with the request's
    /// options and answers `queries` against it, folding the engine and
    /// feasibility-cache work into the metrics. Also returns whether the
    /// exploration ran: `false` when a kept one answered.
    ///
    /// An enumeration of a kept program's optimized model with every
    /// parameter bound consults the program's [`Exploration`]. The first
    /// one explores with [`analyze_keeping`], which watches every binding
    /// read. When nothing read one, the exploration — symmetry reduction
    /// and statistics included — is the same for every binding, and its
    /// analysis is kept. When only handler runs read one, the transition
    /// DAG is kept instead, and a later binding re-runs just those runs
    /// and re-weighs it ([`KeptDag::reweigh`]); a binding that changes the
    /// DAG's shape explores afresh, as does every later one. Either way a
    /// response is byte-identical to a fresh run's. Errors, including
    /// deadline interrupts, are never kept.
    fn exact_run(
        &self,
        req: &InferenceRequest,
        source: &Source,
        model: &Model,
        engine: EngineKind,
        deadline: Deadline,
        queries: &[CompiledQuery],
    ) -> Result<(Arc<Analysis>, Vec<QueryResult>, bool), ApiError> {
        let (mut opts, feasibility) = self.exact_options(req.threads, req.passes, deadline);
        opts.engine = engine;
        let memo = match source.optimized.get() {
            Some(kept)
                if req.passes
                    && engine == EngineKind::Enum
                    && !model.has_symbolic_params()
                    && source.canonical.len() <= OPTIMIZED_SOURCE_BYTES =>
            {
                Some(kept)
            }
            _ => None,
        };
        let explore = || {
            let analysis =
                analyze(model, &*scheduler_for(model), &opts).map_err(|e| exact_error(&e))?;
            self.metrics.record_engine(&analysis.stats);
            Ok::<_, ApiError>(Arc::new(analysis))
        };
        let (analysis, explored) = match memo {
            None => (explore()?, true),
            Some(kept) => {
                let kept_now = kept.exploration.lock().expect("exploration mutex").clone();
                match kept_now {
                    Exploration::Blind(analysis, _) => {
                        self.metrics.add(Counter::MemoHits, 1);
                        (analysis, false)
                    }
                    Exploration::Dag(dag, _) => {
                        match dag.reweigh(model, &opts).map_err(|e| exact_error(&e))? {
                            Some(analysis) => {
                                self.metrics.add(Counter::MemoHits, 1);
                                self.metrics.add(Counter::MemoReweighs, 1);
                                (Arc::new(analysis), false)
                            }
                            None => {
                                self.metrics.add(Counter::MemoShapeFallbacks, 1);
                                self.metrics.add(Counter::MemoMisses, 1);
                                let stale = |now: &Exploration| match now {
                                    Exploration::Dag(d, _) => Arc::ptr_eq(d, &dag),
                                    _ => false,
                                };
                                self.set_exploration(source, kept, stale, Exploration::Fresh);
                                // Free the DAG before exploring beside it.
                                drop(dag);
                                (explore()?, true)
                            }
                        }
                    }
                    Exploration::Fresh => {
                        self.metrics.add(Counter::MemoMisses, 1);
                        (explore()?, true)
                    }
                    Exploration::Unexplored => {
                        self.metrics.add(Counter::MemoMisses, 1);
                        let (analysis, reuse) =
                            analyze_keeping(model, &*scheduler_for(model), &opts)
                                .map_err(|e| exact_error(&e))?;
                        self.metrics.record_engine(&analysis.stats);
                        let analysis = Arc::new(analysis);
                        let next = match reuse {
                            Reuse::Never => Exploration::Fresh,
                            Reuse::Blind => {
                                let bytes = exploration_bytes(&analysis);
                                Exploration::Blind(Arc::clone(&analysis), bytes)
                            }
                            Reuse::Reweigh(dag) => {
                                let bytes = dag.bytes();
                                Exploration::Dag(Arc::from(dag), bytes)
                            }
                        };
                        let unexplored = |now: &Exploration| matches!(now, Exploration::Unexplored);
                        self.set_exploration(source, kept, unexplored, next);
                        (analysis, true)
                    }
                }
            }
        };
        let results = queries
            .iter()
            .map(|q| answer_cached(model, &analysis, q, opts.fm_pruning, Some(&feasibility)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| exact_error(&e))?;
        self.record_feasibility(&feasibility);
        Ok((analysis, results, explored))
    }

    /// Folds one request's feasibility-cache totals into the metrics, from
    /// the final counts so analyze- and answer-phase checks count once.
    fn record_feasibility(&self, feasibility: &FeasibilityCache) {
        let (hits, misses) = feasibility.counts();
        self.metrics.add(Counter::FeasibilityHits, hits as i64);
        self.metrics.add(Counter::FeasibilityMisses, misses as i64);
    }

    fn synthesize(
        &self,
        req: &InferenceRequest,
        source: &Source,
        model: &Model,
        deadline: Deadline,
    ) -> Result<Response, ApiError> {
        let query_idx = req.query.unwrap_or(0);
        check_query_index(query_idx, model.queries.len())?;
        let query = std::slice::from_ref(&model.queries[query_idx]);
        let (_, mut results, _) =
            self.exact_run(req, source, model, EngineKind::Enum, deadline, query)?;
        let result = results.pop().expect("one query, one result");
        let objective = match req.maximize {
            true => Objective::Maximize,
            false => Objective::Minimize,
        };
        let synthesis = synthesize_result(
            model,
            &result,
            SynthesisOptions {
                objective,
                positive_params: !req.allow_zero_params,
            },
        )
        .map_err(|e| ApiError::new(422, "engine_error", e.to_string()))?;

        // Byte-for-byte the stdout of `bayonet synthesize`.
        let text = render_synthesis(&synthesis, &model.params);
        let mut cells = Vec::new();
        for (i, cell) in synthesis.result.cells.iter().enumerate() {
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
        let witness = synthesis
            .assignment
            .iter()
            .map(|(pid, v)| {
                (
                    model.params.name(*pid).to_string(),
                    Json::Str(v.to_string()),
                )
            })
            .collect();

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

    /// `/v1/batch`: every item runs stages 3–5 as a `/v1/run` over the
    /// batch's shared prepared sources, and its answer goes to `emit` as it
    /// completes. Items fan out across lanes leased from the compute pool;
    /// the request's own thread always works as lane zero, so a fully busy
    /// pool degrades to sequential execution instead of blocking. Item
    /// failures are per-item frames; only a malformed batch is an error.
    fn batch(&self, doc: Json, emit: Emit<'_>) -> Result<(), ApiError> {
        let batch = BatchRequest::decode(doc)?;
        let shared = batch.shared_source.as_deref();
        let mut outer = item_deadline(&Deadline::unlimited(), batch.timeout_ms);
        let cancel = outer.cancel_handle();

        // Stage 2, sequential: each distinct source text is prepared once,
        // and sources that differ only in formatting share one preparation
        // through their canonical form. Failures are prepared too: every
        // item with a broken source reports the same structured error.
        let mut prepared = HashMap::new();
        let mut sources: HashMap<&str, Result<Arc<Source>, ApiError>> = HashMap::new();
        let mut resolvable = 0u64;
        for item in &batch.items {
            if let Some(text) = item_source(item, shared) {
                resolvable += 1;
                sources
                    .entry(text)
                    .or_insert_with(|| prepare(text, &mut prepared));
            }
        }

        let lease = self
            .pool
            .as_ref()
            .map(|pool| pool.lease(batch.items.len().saturating_sub(1)));
        let lanes = 1 + lease.as_ref().map_or(0, |l| l.granted());
        let failed = fan_out(lanes, batch.items.len(), |index| {
            let resp = InferenceRequest::decode(&batch.items[index], shared)
                .and_then(|req| {
                    let source = sources[req.source.as_str()].clone()?;
                    self.item("/v1/run", req, &source, &outer)
                })
                .unwrap_or_else(ApiError::into_response);
            if !emit(index, &resp) {
                cancel.cancel();
            }
            resp.status != 200
        });
        drop(lease);

        let fresh = prepared.len() + sources.values().filter(|s| s.is_err()).count();
        let metrics = &self.metrics;
        metrics.add(Counter::Batches, 1);
        metrics.add(Counter::BatchItems, batch.items.len() as i64);
        metrics.add(
            Counter::BatchItemErrors,
            failed.iter().filter(|&&f| f).count() as i64,
        );
        metrics.add(Counter::BatchCompiles, prepared.len() as i64);
        metrics.add(
            Counter::BatchSourceReuse,
            resolvable.saturating_sub(fresh as u64) as i64,
        );
        Ok(())
    }

    /// `/v1/sweep`: one prepared source, bound to the fixed bindings and
    /// handed to the exact sweep engine, which shares work across grid
    /// points — symbolically (piecewise cells answer every point), via a
    /// replayed exploration prefix, or not at all when nothing is
    /// shareable — while staying bit-identical to independent pointwise
    /// runs. Frame `index` is the row-major grid index.
    fn sweep(&self, doc: Json, emit: Emit<'_>) -> Result<(), ApiError> {
        let sweep = SweepRequest::decode(doc)?;
        let source = prepare(&sweep.source, &mut HashMap::new())?;
        let model = bind(self.exact_model(&source, sweep.passes)?, &sweep.bindings)?;

        // Resolve swept names against the declared parameter table before
        // any engine work; a typo'd name is a structured 400, not 16
        // identical per-point errors.
        let mut param_ids = Vec::with_capacity(sweep.sweep.len());
        for (name, _) in &sweep.sweep {
            let id = model.params.lookup(name).ok_or_else(|| {
                bad(
                    format!(
                        "unknown swept parameter `{name}` (not declared in `parameters {{ ... }}`)"
                    ),
                    format!("sweep.{name}"),
                )
            })?;
            param_ids.push(id);
        }
        let points = sweep.points();

        // Every point of an all-hit sweep is served from cache with no
        // engine work. A partial hit reruns the whole grid — shared
        // exploration makes skipping individual points a wash — and
        // refreshes every entry.
        let keys: Vec<u64> = points
            .iter()
            .map(|p| sweep.point_key(&source.canonical, p))
            .collect();
        if let Some(hits) = self.lookup(&keys) {
            self.metrics
                .record_sweep("cached", points.len() as u64, 0, 0, 0);
            for (i, hit) in hits.iter().enumerate() {
                emit(i, hit);
            }
            return Ok(());
        }

        let deadline = item_deadline(&Deadline::unlimited(), sweep.timeout_ms);
        let (mut opts, feasibility) = self.exact_options(sweep.threads, sweep.passes, deadline);
        opts.engine = sweep.engine.exact_kind();
        let result = bayonet_exact::sweep(&model, &param_ids, &points, &opts)
            .map_err(|e| exact_error(&e))?;
        self.metrics.record_engine(&result.prefix_stats);
        let mut point_errors = 0u64;
        for (i, (point, outcome)) in points.iter().zip(&result.points).enumerate() {
            let resp = match outcome {
                Ok(p) => {
                    // Per-point stats cover only this point's continuation;
                    // the shared prefix was folded in once above, so the
                    // exported expansion totals reflect the actual saving.
                    self.metrics.record_engine(&p.stats);
                    sweep_point_response(&result, &sweep.sweep, point, p)
                }
                Err(e) => {
                    point_errors += 1;
                    exact_error(e).into_response()
                }
            };
            self.store(keys[i], &resp);
            emit(i, &resp);
        }
        self.record_feasibility(&feasibility);
        self.metrics.record_sweep(
            result.route.name(),
            points.len() as u64,
            point_errors,
            result.reused_points() as u64,
            result.shared_steps,
        );
        Ok(())
    }
}

/// One distinct program, prepared once per request: parsed, pretty-printed
/// and checked. Its models are built on first use, so a cache hit or a
/// `/v1/check` never compiles.
struct Source {
    /// Canonical pretty-printed program, the cache keys' program part.
    canonical: String,
    /// The parsed program, compiled on first use.
    program: Program,
    /// The integrity check's warnings, or every error it found.
    check: Result<Vec<String>, Vec<String>>,
    /// See [`Source::model`].
    model: OnceLock<Result<Model, ApiError>>,
    /// See [`Service::exact_model`].
    optimized: OnceLock<Arc<Kept>>,
}

/// One program's work kept across requests: its optimized model and what
/// its fully bound enumerations reuse (see [`Service::exact_run`]).
struct Kept {
    model: Model,
    exploration: Mutex<Exploration>,
}

/// What a kept program's next fully bound enumeration reuses.
#[derive(Clone, Default)]
enum Exploration {
    /// Nothing yet: not explored, or the exploration did not fit
    /// [`EXPLORATION_BYTES`].
    #[default]
    Unexplored,
    /// No binding was read: the analysis answers every binding.
    Blind(Arc<Analysis>, usize),
    /// Only handler runs read a binding: the DAG, re-weighed per binding.
    Dag(Arc<KeptDag>, usize),
    /// Every binding explores afresh: something besides a handler run read
    /// a binding, or a binding changed the DAG's shape.
    Fresh,
}

impl Exploration {
    /// What the entry adds to `bayonet_exploration_memo_bytes`.
    fn bytes(&self) -> usize {
        match self {
            Exploration::Blind(_, bytes) | Exploration::Dag(_, bytes) => *bytes,
            Exploration::Unexplored | Exploration::Fresh => 0,
        }
    }
}

/// A rough size of `analysis` in bytes: every terminal configuration with
/// its nodes' state and queued packets, and every discarded-mass entry.
/// Heap words inside rationals and guards are not counted.
fn exploration_bytes(analysis: &Analysis) -> usize {
    let terminals: usize = analysis
        .terminals
        .iter()
        .map(|terminal| {
            let nodes: usize = terminal.0.nodes.iter().map(|n| n.approx_bytes()).sum();
            size_of_val(terminal) + nodes
        })
        .sum();
    terminals + size_of_val(analysis.discarded.as_slice())
}

impl Source {
    /// The compiled model with no bindings applied, compiled the first time
    /// an item needs it, or the structured error every item with this
    /// source reports.
    fn model(&self) -> Result<&Model, ApiError> {
        self.model
            .get_or_init(|| match &self.check {
                Ok(_) => compile(&self.program)
                    .map_err(|e| ApiError::new(422, "compile_error", e.to_string())),
                Err(errors) => Err(ApiError::new(
                    422,
                    "check_error",
                    format!("{} integrity error(s): {}", errors.len(), errors.join("; ")),
                )),
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// Stage 2: parses `text` and returns its prepared source. Calls sharing
/// `prepared` check each canonical program only once, so sources that
/// differ only in formatting share the work.
fn prepare(
    text: &str,
    prepared: &mut HashMap<String, Arc<Source>>,
) -> Result<Arc<Source>, ApiError> {
    let program = parse(text).map_err(|e| ApiError::new(422, "parse_error", e.to_string()))?;
    let source = prepared
        .entry(pretty_program(&program))
        .or_insert_with_key(|canonical| {
            let check = match check(&program) {
                Ok(report) => Ok(report.warnings.into_iter().map(|w| w.message).collect()),
                Err(errors) => Err(errors.iter().map(ToString::to_string).collect::<Vec<_>>()),
            };
            Arc::new(Source {
                canonical: canonical.clone(),
                program,
                check,
                model: OnceLock::new(),
                optimized: OnceLock::new(),
            })
        });
    Ok(Arc::clone(source))
}

/// A copy of `model` with request parameter bindings applied.
fn bind(model: &Model, bindings: &[(String, Rat)]) -> Result<Model, ApiError> {
    let mut model = model.clone();
    for (name, value) in bindings {
        model
            .bind_param(name, value.clone())
            .map_err(|e| ApiError::new(400, "bad_request", e.to_string()))?;
    }
    Ok(model)
}

/// The deadline for work budgeted `timeout_ms`, cut to what remains of
/// `outer`: the single place a request's `timeout_ms` becomes a
/// [`Deadline`].
fn item_deadline(outer: &Deadline, timeout_ms: Option<u64>) -> Deadline {
    match timeout_ms {
        Some(ms) => outer.clamped(Duration::from_millis(ms)),
        None => outer.clone(),
    }
}

/// The budget the planner weighs for work under [`item_deadline`]:
/// `timeout_ms` itself unless less of `outer` remains.
fn plan_budget(outer: &Deadline, timeout_ms: Option<u64>) -> Option<Duration> {
    let own = timeout_ms.map(Duration::from_millis);
    match (own, outer.remaining()) {
        (Some(own), Some(left)) => Some(own.min(left)),
        (own, left) => own.or(left),
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

/// The `/v1/check` answer: the warnings, or every integrity error.
fn check_response(check: &Result<Vec<String>, Vec<String>>) -> Response {
    let strings = |items: &[String]| Json::Arr(items.iter().cloned().map(Json::Str).collect());
    let body = match check {
        Ok(warnings) => {
            let mut text = String::new();
            for w in warnings {
                let _ = writeln!(text, "warning: {w}");
            }
            let _ = writeln!(text, "ok: {} warning(s)", warnings.len());
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("warnings", strings(warnings)),
                ("text", Json::Str(text)),
            ])
        }
        Err(errors) => Json::obj(vec![
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::obj(vec![
                    ("kind", Json::Str("check_error".into())),
                    (
                        "message",
                        Json::Str(format!("{} integrity error(s)", errors.len())),
                    ),
                    ("details", strings(errors)),
                ]),
            ),
        ]),
    };
    Response::json(if check.is_ok() { 200 } else { 422 }, body.to_string())
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
    let text = render_run(&result.results, &result.z, &result.discarded, None);
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

// ---- Stage 1: request decoding ----
//
// The field decoders below are shared by every endpoint, and each 400
// they return names its field in `error.field`.

/// Decodes a request body as one JSON document; bad UTF-8 and bad JSON
/// are the same structured `400` on every endpoint.
fn request_doc(req: &Request) -> Result<Json, ApiError> {
    let body = req
        .body_str()
        .map_err(|e| ApiError::new(400, "bad_request", e.to_string()))?;
    json::parse(body).map_err(|e| ApiError::new(400, "bad_request", e.to_string()))
}

/// Checks that `doc` is an object with no field outside `known`; `noun`
/// names the request kind in the message. Unknown fields are loud, so a
/// typo like `"cache": false` fails instead of silently changing nothing.
fn known_fields(doc: &Json, noun: &str, known: &[&str]) -> Result<(), ApiError> {
    let Some(pairs) = doc.as_obj() else {
        return Err(ApiError::new(
            400,
            "bad_request",
            "request body must be a JSON object",
        ));
    };
    match pairs.iter().find(|(key, _)| !known.contains(&key.as_str())) {
        Some((key, _)) => Err(bad(
            format!(
                "unknown {noun} field `{key}` (known fields: {})",
                known.join(", ")
            ),
            key,
        )),
        None => Ok(()),
    }
}

/// A field's value; JSON `null` reads as absent.
fn field<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get(name).filter(|v| !matches!(v, Json::Null))
}

/// A `source` value moved out of its document: a string, or absent.
fn source_field(value: Option<Json>) -> Result<Option<String>, ApiError> {
    match value {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(source)) => Ok(Some(source)),
        Some(_) => Err(bad("`source` must be a string", "source")),
    }
}

fn missing_source() -> ApiError {
    bad("missing required string field `source`", "source")
}

/// `engine`: absent means `exact` (`enum` is an alias); any other value,
/// `null` included, is a 400 listing the `known` engines.
fn engine_field(doc: &Json, known: &str) -> Result<Engine, ApiError> {
    Ok(match doc.get("engine").map(|v| (v, v.as_str())) {
        None | Some((_, Some("exact" | "enum"))) => Engine::Exact,
        Some((_, Some("bdd"))) => Engine::Bdd,
        Some((_, Some("smc"))) => Engine::Smc,
        Some((_, Some("rejection"))) => Engine::Rejection,
        Some((_, Some("auto"))) => Engine::Auto,
        Some((v, _)) => {
            return Err(bad(
                format!("unknown engine {v} (known engines: {known})"),
                "engine",
            ))
        }
    })
}

/// `bindings`: parameter name → integer or rational string, sorted by name
/// for canonical hashing. With `explain`, a malformed rational string
/// reports why it failed to parse.
fn bindings_field(doc: &Json, explain: bool) -> Result<Vec<(String, Rat)>, ApiError> {
    let Some(value) = field(doc, "bindings") else {
        return Ok(Vec::new());
    };
    let Some(pairs) = value.as_obj() else {
        return Err(bad("`bindings` must be an object", "bindings"));
    };
    let mut bindings = Vec::with_capacity(pairs.len());
    for (name, value) in pairs {
        let field = || format!("bindings.{name}");
        let rat = match value {
            Json::Str(s) if explain => s
                .parse::<Rat>()
                .map_err(|e| bad(format!("bad binding for `{name}`: {e}"), field()))?,
            _ => rat_from_json(value).ok_or_else(|| {
                bad(
                    format!(
                        "binding `{name}` must be an integer or a rational string like \"1/2\""
                    ),
                    field(),
                )
            })?,
        };
        bindings.push((name.clone(), rat));
    }
    bindings.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(bindings)
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

/// A nonnegative integer field.
fn uint_field(doc: &Json, name: &str) -> Result<Option<u64>, ApiError> {
    field(doc, name)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| bad(format!("`{name}` must be a nonnegative integer"), name))
        })
        .transpose()
}

/// An integer field in `lo..=hi`. Wrong types, negatives, zero and
/// out-of-range values are all 400s, never silent defaults: `timeout_ms: 0`
/// would be a deadline that has already expired, and `threads: 0` a run
/// with no workers.
fn bounded_field(doc: &Json, name: &str, lo: u64, hi: u64) -> Result<Option<u64>, ApiError> {
    match uint_field(doc, name)? {
        Some(v) if !(lo..=hi).contains(&v) => Err(bad(
            format!("`{name}` must be between {lo} and {hi}, got {v}"),
            name,
        )),
        v => Ok(v),
    }
}

/// `particles`, capped at [`MAX_PARTICLES`].
fn particles_field(doc: &Json) -> Result<Option<usize>, ApiError> {
    match uint_field(doc, "particles")? {
        Some(v) if v > MAX_PARTICLES => Err(bad(
            format!("`particles` is {v}; the maximum is {MAX_PARTICLES}"),
            "particles",
        )),
        v => Ok(v.map(|v| v as usize)),
    }
}

fn timeout_field(doc: &Json) -> Result<Option<u64>, ApiError> {
    bounded_field(doc, "timeout_ms", 1, MAX_TIMEOUT_MS)
}

fn threads_field(doc: &Json) -> Result<Option<usize>, ApiError> {
    Ok(bounded_field(doc, "threads", 1, MAX_REQUEST_THREADS)?.map(|v| v as usize))
}

/// A boolean field, `default` when absent.
fn bool_field(doc: &Json, name: &str, default: bool) -> Result<bool, ApiError> {
    field(doc, name).map_or(Ok(default), |v| {
        v.as_bool()
            .ok_or_else(|| bad(format!("`{name}` must be a boolean"), name))
    })
}

const RUN_FIELDS: &[&str] = &[
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

const SWEEP_FIELDS: &[&str] = &[
    "source",
    "program",
    "sweep",
    "engine",
    "bindings",
    "timeout_ms",
    "threads",
    "passes",
];

/// The decoded body of a `/v1/check`, `/v1/run` or `/v1/synthesize`
/// request, or of one `/v1/batch` item.
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
    /// Decodes a whole request body or one batch item. With
    /// `shared_source` set, an item missing its own `source` inherits it;
    /// every validation message matches the single-request path, so batch
    /// frames stay byte-identical to `/v1/run` responses.
    fn decode(doc: &Json, shared_source: Option<&str>) -> Result<InferenceRequest, ApiError> {
        known_fields(doc, "request", RUN_FIELDS)?;
        let source = item_source(doc, shared_source).ok_or_else(missing_source)?;
        Ok(InferenceRequest {
            source: source.to_string(),
            engine: engine_field(doc, "exact, enum, bdd, smc, rejection, auto")?,
            query: uint_field(doc, "query")?.map(|v| v as usize),
            bindings: bindings_field(doc, true)?,
            timeout_ms: timeout_field(doc)?,
            threads: threads_field(doc)?,
            passes: bool_field(doc, "passes", true)?,
            particles: particles_field(doc)?,
            seed: uint_field(doc, "seed")?,
            maximize: bool_field(doc, "maximize", false)?,
            allow_zero_params: bool_field(doc, "allow_zero_params", false)?,
        })
    }

    fn cache_key(&self, endpoint: &str, canonical_program: &str) -> u64 {
        let options = (
            self.query,
            self.particles,
            self.seed,
            self.maximize,
            self.allow_zero_params,
        );
        response_key(
            endpoint,
            canonical_program,
            self.engine,
            self.passes,
            options,
            &self.bindings,
            &[],
        )
    }
}

/// The one response-cache key, for `/v1/run`-style requests and `/v1/sweep`
/// points alike: it hashes every field that can change a cached response's
/// bytes. `options` holds the query, particles, seed, maximize and
/// allow-zero-params fields. Fixed and swept bindings hash as separate
/// lists, because a sweep frame's `point` names only the swept ones.
fn response_key(
    endpoint: &str,
    program: &str,
    engine: Engine,
    passes: bool,
    options: (Option<usize>, Option<usize>, Option<u64>, bool, bool),
    bindings: &[(String, Rat)],
    swept: &[(&String, &Rat)],
) -> u64 {
    let mut h = DefaultHasher::new();
    (endpoint, program, engine, passes, options, bindings, swept).hash(&mut h);
    h.finish()
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
    fn decode(mut doc: Json) -> Result<BatchRequest, ApiError> {
        known_fields(&doc, "batch", &["source", "items", "timeout_ms"])?;
        // `source` and `items` move out of the document instead of being
        // cloned: a batch body can carry ~100 KB of program text.
        let shared_source = source_field(doc.take("source"))?;
        let timeout_ms = timeout_field(&doc)?;
        let items = match doc.take("items") {
            None => return Err(bad("missing required array field `items`", "items")),
            Some(Json::Arr(items)) => items,
            Some(_) => return Err(bad("`items` must be an array", "items")),
        };
        if items.is_empty() || items.len() > MAX_BATCH_ITEMS {
            return Err(bad(
                format!(
                    "`items` must contain between 1 and {MAX_BATCH_ITEMS} items, got {}",
                    items.len()
                ),
                "items",
            ));
        }
        for (i, item) in items.iter().enumerate() {
            if item.as_obj().is_none() {
                return Err(bad(
                    format!("batch item {i} must be a JSON object"),
                    format!("items[{i}]"),
                ));
            }
            if shared_source.is_some() && field(item, "source").is_some() {
                return Err(bad(
                    format!(
                        "batch item {i} sets `source` while the batch has a shared top-level \
                         `source`; use one or the other"
                    ),
                    format!("items[{i}].source"),
                ));
            }
        }
        Ok(BatchRequest {
            items,
            shared_source,
            timeout_ms,
        })
    }
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
    fn decode(mut doc: Json) -> Result<SweepRequest, ApiError> {
        known_fields(&doc, "sweep", SWEEP_FIELDS)?;
        // `program` is accepted as an alias for `source` (a grid file pairs
        // naturally with a program file); setting both is ambiguous.
        let source = doc.take("source").filter(|v| !matches!(v, Json::Null));
        let program = doc.take("program").filter(|v| !matches!(v, Json::Null));
        if source.is_some() && program.is_some() {
            return Err(bad(
                "`program` conflicts with `source`; set exactly one",
                "program",
            ));
        }
        let source = source_field(source.or(program))?.ok_or_else(missing_source)?;

        let engine = match engine_field(&doc, "exact, enum, bdd, auto")? {
            Engine::Smc | Engine::Rejection => {
                return Err(bad(
                    "sweeps are exact-only (known engines: exact, enum, bdd, auto); \
                     sampling engines cannot share work across grid points",
                    "engine",
                ))
            }
            engine => engine,
        };
        let bindings = bindings_field(&doc, false)?;

        let Some(grid) = field(&doc, "sweep") else {
            return Err(bad("missing required object field `sweep`", "sweep"));
        };
        let Some(grid) = grid.as_obj() else {
            return Err(bad(
                "`sweep` must be an object mapping parameter names to value arrays",
                "sweep",
            ));
        };
        if grid.is_empty() {
            return Err(bad("`sweep` must name at least one parameter", "sweep"));
        }
        let mut sweep: Vec<(String, Vec<Rat>)> = Vec::with_capacity(grid.len());
        for (name, values) in grid {
            let field = format!("sweep.{name}");
            let Some(values) = values.as_arr() else {
                return Err(bad(format!("`{field}` must be an array of values"), field));
            };
            if values.is_empty() {
                return Err(bad(
                    format!("`{field}` must contain at least one value"),
                    field,
                ));
            }
            if sweep.iter().any(|(n, _)| n == name) {
                return Err(bad(
                    format!("parameter `{name}` appears twice in `sweep`"),
                    field,
                ));
            }
            let values = values.iter().map(rat_from_json).collect::<Option<Vec<_>>>();
            let Some(values) = values else {
                return Err(bad(
                    format!(
                        "values in `{field}` must be integers or rational strings like \"1/2\""
                    ),
                    field,
                ));
            };
            sweep.push((name.clone(), values));
        }
        sweep.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some((name, _)) = sweep
            .iter()
            .find(|(name, _)| bindings.iter().any(|(b, _)| b == name))
        {
            return Err(bad(
                format!("parameter `{name}` is set in both `bindings` and `sweep`"),
                format!("sweep.{name}"),
            ));
        }
        let total = sweep
            .iter()
            .fold(1usize, |acc, (_, v)| acc.saturating_mul(v.len()));
        if total > MAX_SWEEP_POINTS {
            return Err(bad(
                format!("sweep grid has {total} points; the maximum is {MAX_SWEEP_POINTS}"),
                "sweep",
            ));
        }

        Ok(SweepRequest {
            source,
            engine,
            bindings,
            sweep,
            timeout_ms: timeout_field(&doc)?,
            threads: threads_field(&doc)?,
            passes: bool_field(&doc, "passes", true)?,
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
        let swept: Vec<(&String, &Rat)> = self.sweep.iter().map(|(n, _)| n).zip(point).collect();
        let options = (None, None, None, false, false);
        response_key(
            "/v1/sweep",
            canonical_program,
            self.engine,
            self.passes,
            options,
            &self.bindings,
            &swept,
        )
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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

    /// The exact-engine backend this selects (enumeration unless `bdd` or
    /// `auto`).
    fn exact_kind(self) -> EngineKind {
        match self {
            Engine::Bdd => EngineKind::Bdd,
            Engine::Auto => EngineKind::Auto,
            _ => EngineKind::Enum,
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
    fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            kind,
            message: message.into(),
            field: None,
        }
    }

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

/// A `400 bad_request` naming the offending request `field`.
fn bad(message: impl Into<String>, field: impl Into<String>) -> ApiError {
    ApiError {
        field: Some(field.into()),
        ..ApiError::new(400, "bad_request", message)
    }
}

fn check_query_index(idx: usize, len: usize) -> Result<(), ApiError> {
    if idx < len {
        return Ok(());
    }
    Err(ApiError::new(
        400,
        "bad_request",
        format!("query index {idx} out of range ({len} queries declared)"),
    ))
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

fn exact_error(e: &ExactError) -> ApiError {
    match e {
        ExactError::Interrupted { .. } => ApiError::new(504, "timeout", e.to_string()),
        other => ApiError::new(422, "engine_error", other.to_string()),
    }
}

fn approx_error(e: ApproxError) -> ApiError {
    match e {
        ApproxError::Interrupted { .. } => ApiError::new(504, "timeout", e.to_string()),
        other => ApiError::new(422, "engine_error", other.to_string()),
    }
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

    /// Models are built on first use only: `/v1/check` and a cached
    /// `/v1/run` answer without compiling.
    #[test]
    fn checks_and_cache_hits_never_compile() {
        let svc = Service::new(4);
        let compiles = |endpoint: &str| {
            let body = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
            let doc = json::parse(&body).unwrap();
            let resp = InferenceRequest::decode(&doc, None)
                .and_then(|item| {
                    let source = prepare(&item.source, &mut HashMap::new())?;
                    let resp = svc.item(endpoint, item, &source, &Deadline::unlimited())?;
                    Ok((resp, source.model.get().is_some()))
                })
                .map_err(ApiError::into_response);
            let (resp, compiled) = resp.unwrap_or_else(|e| panic!("{endpoint}: {e:?}"));
            assert_eq!(resp.status, 200, "{endpoint}");
            compiled
        };
        assert!(!compiles("/v1/check"), "a check compiled");
        assert!(compiles("/v1/run"), "a cache miss must compile");
        assert!(!compiles("/v1/run"), "a cache hit compiled");
        assert!(!compiles("/v1/check"), "a cached check compiled");
    }

    /// Optimized models outlive their request only for small programs, so
    /// big distinct programs pin nothing; a kept model spares the passes.
    #[test]
    fn only_small_programs_keep_their_optimized_model() {
        let svc = Service::new(0);
        let pass_runs = || {
            let metrics = svc.metrics.render();
            let line = metrics
                .lines()
                .find(|l| l.starts_with("bayonet_opt_pass_runs_total "))
                .expect("pass-run counter");
            line.rsplit(' ').next().unwrap().parse::<u64>().unwrap()
        };
        let run = |source: &str| {
            let body = Json::obj(vec![("source", Json::Str(source.into()))]).to_string();
            let resp = svc.handle(&post("/v1/run", &body));
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        };
        let query = "query probability(got@B == 1);";
        for i in 0..3 {
            let queries = format!("query probability(got@B == {i});\n").repeat(1000);
            run(&GOSSIP.replace(query, &queries));
        }
        assert_eq!(
            svc.optimized.lock().unwrap().len(),
            0,
            "a big program was kept"
        );

        run(GOSSIP);
        let after_first = pass_runs();
        assert_eq!(svc.optimized.lock().unwrap().len(), 1);
        run(GOSSIP);
        assert_eq!(pass_runs(), after_first, "a kept model was optimized again");
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
