//! The traced per-layer replay.
//!
//! After each HTTP exchange of a traced window, the benchmark replays the
//! same request in process: once through `bayonet_serve::Service::handle`
//! (the `serve` layer as a whole) and once layer by layer through the public
//! functions of `lang`, `net`, `exact`, `symbolic` and `approx`, mirroring
//! the server's pipeline for that request kind. Every call sits in a span;
//! spans live in memory and are summarized at the end.

use std::collections::{BTreeMap, HashMap};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bayonet_approx::{smc, ApproxOptions};
use bayonet_exact::{
    analyze, answer_cached, plan_model, sweep, EngineKind, EngineStats, ExactOptions,
    FeasibilityCache, PlanDecision, PlanEngine, PlannerConfig, SweepRoute,
};
use bayonet_lang::{check, parse, pretty_program};
use bayonet_net::opt::optimize;
use bayonet_net::{compile, scheduler_for, Model};
use bayonet_num::Rat;
use bayonet_serve::{parse_json, Request, Service};

use crate::oracle::Q;
use crate::workload::{Item, Prog, Req, Work};

/// One timed interval.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost span and returns its duration.
    fn exit(&mut self) -> Duration {
        let idx = self.open.pop().expect("exit without enter");
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        Duration::from_nanos(end - span.start_ns)
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time (duration minus child spans) summed per span name, in ms.
    fn self_ms(&self) -> HashMap<&'static str, f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
        let mut out = HashMap::new();
        for (s, ms) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += ms;
        }
        out
    }
}

/// Counts gathered from `EngineStats`, `OptReport`, plans and sweeps.
#[derive(Default)]
struct Counts {
    plans: u64,
    bdd_routed: u64,
    group_order: usize,
    orbit_merges: u64,
    expansions: u64,
    peak_configs: usize,
    merge_hits: u64,
    feasibility_hits: u64,
    feasibility_misses: u64,
    sweeps: u64,
    sweep_symbolic: u64,
    sweep_prefix: u64,
    prefix_reuse: u64,
}

impl Counts {
    fn engine(&mut self, stats: &EngineStats) {
        self.expansions += stats.expansions;
        self.merge_hits += stats.merge_hits;
        self.orbit_merges += stats.orbit_merges;
        self.peak_configs = self.peak_configs.max(stats.peak_configs);
    }

    fn feasibility(&mut self, cache: &FeasibilityCache) {
        let (hits, misses) = cache.counts();
        self.feasibility_hits += hits;
        self.feasibility_misses += misses;
    }

    fn optimized(&mut self, model: &Model) {
        if let Some(info) = model.opt_info() {
            self.group_order = self.group_order.max(info.report.group_order);
        }
    }
}

/// The in-process replay of a traced window.
pub struct Replay {
    tracer: Tracer,
    service: Service,
    counts: Counts,
    requests: u64,
    wire_ms: f64,
}

fn rat(q: Q) -> Rat {
    Rat::from_str(&q.to_string()).expect("Q renders as a rational")
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        headers: vec![("content-length".into(), body.len().to_string())],
        body: body.as_bytes().to_vec(),
    }
}

fn bind(model: &mut Model, item: &Item) {
    for (name, value) in &item.bindings {
        model
            .bind_param(name, rat(*value))
            .expect("workload binds declared parameters");
    }
}

fn engine_of(decision: &PlanDecision) -> EngineKind {
    match decision {
        PlanDecision::Run(PlanEngine::Bdd) => EngineKind::Bdd,
        _ => EngineKind::Enum,
    }
}

impl Replay {
    /// A replay whose in-process service has seen `warmup`, like the
    /// server it shadows.
    pub fn new(warmup: &[Req]) -> Replay {
        let service = Service::new(bayonet_serve::DEFAULT_CACHE_ENTRIES);
        for req in warmup {
            service.handle(&post(req.path(), &req.body));
        }
        Replay {
            tracer: Tracer::new(),
            service,
            counts: Counts::default(),
            requests: 0,
            wire_ms: 0.0,
        }
    }

    /// Replays one request that took `http_ms` over the wire. `cached`
    /// says the server answered it from its result cache, so the engine
    /// layers did no work for it.
    pub fn request(&mut self, req: &Req, http_ms: f64, cached: bool) {
        self.requests += 1;
        self.tracer.enter("request");

        let http = post(req.path(), &req.body);
        self.tracer.enter("serve.handle");
        let resp = self.service.handle(&http);
        let handle = self.tracer.exit();
        self.wire_ms += http_ms - handle.as_secs_f64() * 1e3;
        self.tracer.span("serve.json", || {
            let _ = parse_json(&req.body);
            let text = String::from_utf8_lossy(&resp.body);
            for line in text.lines().filter(|l| !l.is_empty()) {
                let _ = parse_json(line);
            }
        });

        match &req.work {
            Work::Run(item) => self.run(item),
            Work::Sweep {
                prog,
                param,
                points,
            } => self.sweep(*prog, param, points),
            Work::Batch { items, .. } => self.batch(items, cached),
        }
        self.tracer.exit();
    }

    /// parse → pretty → check → compile, as the server does per source.
    /// With `reparse`, the source is parsed again before the check, as the
    /// server's `build_model` does for `/v1/run` with `engine: auto`.
    fn front(&mut self, prog: Prog, reparse: bool) -> Model {
        let t = &mut self.tracer;
        let mut program = t
            .span("lang.parse", || parse(prog.source()))
            .expect("curated programs parse");
        t.span("lang.pretty", || pretty_program(&program));
        if reparse {
            program = t
                .span("lang.parse", || parse(prog.source()))
                .expect("curated programs parse");
        }
        t.span("lang.check", || check(&program))
            .expect("curated programs check");
        t.span("net.compile", || compile(&program))
            .expect("curated programs compile")
    }

    fn optimize(&mut self, model: &Model) -> Model {
        let optimized = self.tracer.span("net.opt", || optimize(model));
        self.counts.optimized(&optimized);
        optimized
    }

    fn plan(&mut self, model: &Model) -> EngineKind {
        let plan = self.tracer.span("exact.plan", || {
            plan_model(model, &PlannerConfig::default(), None)
        });
        let engine = engine_of(&plan.decision);
        self.counts.plans += 1;
        self.counts.bdd_routed += u64::from(engine == EngineKind::Bdd);
        engine
    }

    /// analyze + answer every query, sharing one feasibility cache.
    fn exact(&mut self, model: &Model, engine: EngineKind) {
        let scheduler = scheduler_for(model);
        let cache = Arc::new(FeasibilityCache::new());
        let opts = ExactOptions {
            engine,
            feasibility_cache: Some(Arc::clone(&cache)),
            ..ExactOptions::default()
        };
        let analysis = self
            .tracer
            .span("exact.enumerate", || analyze(model, &*scheduler, &opts))
            .expect("workload programs analyze");
        self.tracer.span("exact.answer", || {
            for q in &model.queries {
                answer_cached(model, &analysis, q, opts.fm_pruning, Some(&cache))
                    .expect("workload queries answer");
            }
        });
        self.counts.engine(&analysis.stats);
        self.counts.feasibility(&cache);
    }

    /// `/v1/run` with `engine: auto`: plan on the optimized model.
    fn run(&mut self, item: &Item) {
        let mut model = self.front(item.prog, true);
        bind(&mut model, item);
        let model = self.optimize(&model);
        let engine = self.plan(&model);
        self.exact(&model, engine);
    }

    fn sweep(&mut self, prog: Prog, param: &str, points: &[Q]) {
        let model = self.front(prog, false);
        let model = self.optimize(&model);
        let id = model
            .params
            .iter()
            .find(|id| model.params.name(*id) == param)
            .expect("swept parameter is declared");
        let grid: Vec<Vec<Rat>> = points.iter().map(|p| vec![rat(*p)]).collect();
        let cache = Arc::new(FeasibilityCache::new());
        let opts = ExactOptions {
            feasibility_cache: Some(Arc::clone(&cache)),
            ..ExactOptions::default()
        };
        let result = self
            .tracer
            .span("exact.sweep", || sweep(&model, &[id], &grid, &opts))
            .expect("workload sweeps run");
        self.counts.sweeps += 1;
        self.counts.sweep_symbolic += u64::from(result.route == SweepRoute::Symbolic);
        self.counts.sweep_prefix += u64::from(result.route == SweepRoute::Prefix);
        self.counts.prefix_reuse += result.reused_points() as u64;
        self.counts.engine(&result.prefix_stats);
        for point in result.points.iter().flatten() {
            self.counts.engine(&point.stats);
        }
        self.counts.feasibility(&cache);
    }

    /// `/v1/batch`: one front end per distinct source, then per item a
    /// plan on the bound (unoptimized) model and, unless the cache answered,
    /// the engine run.
    fn batch(&mut self, items: &[Item], cached: bool) {
        let mut templates: HashMap<Prog, Model> = HashMap::new();
        for item in items {
            if let std::collections::hash_map::Entry::Vacant(slot) = templates.entry(item.prog) {
                slot.insert(self.front(item.prog, false));
            }
        }
        for item in items {
            let mut model = templates[&item.prog].clone();
            bind(&mut model, item);
            if let Some(s) = item.smc {
                let opts = ApproxOptions {
                    particles: s.particles,
                    seed: s.seed,
                    ..ApproxOptions::default()
                };
                let scheduler = scheduler_for(&model);
                self.tracer.span("approx.smc", || {
                    for q in &model.queries {
                        smc(&model, &*scheduler, q, &opts).expect("workload SMC runs");
                    }
                });
                continue;
            }
            let engine = self.plan(&model);
            if !cached {
                let model = self.optimize(&model);
                self.exact(&model, engine);
            }
        }
    }

    /// Per-layer metrics of the traced window: times are mean self-time
    /// milliseconds per HTTP request, engine counts are per request (peak
    /// and group order are maxima).
    pub fn metrics(&self, out: &mut Metrics) {
        let n = self.requests.max(1) as f64;
        let own = self.tracer.self_ms();
        let per_req = |name: &str| own.get(name).copied().unwrap_or(0.0) / n;
        for (metric, span) in [
            ("lang.parse_ms", "lang.parse"),
            ("lang.check_ms", "lang.check"),
            ("lang.pretty_ms", "lang.pretty"),
            ("net.compile_ms", "net.compile"),
            ("net.opt_ms", "net.opt"),
            ("exact.plan_ms", "exact.plan"),
            ("exact.enumerate_ms", "exact.enumerate"),
            ("exact.answer_ms", "exact.answer"),
            ("exact.sweep_ms", "exact.sweep"),
            ("approx.smc_ms", "approx.smc"),
            ("serve.handle_ms", "serve.handle"),
            ("serve.json_ms", "serve.json"),
        ] {
            out.put(metric, per_req(span), "ms");
        }
        let c = &self.counts;
        out.put("serve.wire_ms", self.wire_ms / n, "ms");
        out.put("net.opt.group_order", c.group_order as f64, "count");
        out.put(
            "net.opt.orbit_merges",
            c.orbit_merges as f64 / n,
            "count/req",
        );
        out.put(
            "exact.plan.bdd_routed",
            share(c.bdd_routed, c.plans),
            "ratio",
        );
        out.put("exact.expansions", c.expansions as f64 / n, "count/req");
        out.put("exact.peak_configs", c.peak_configs as f64, "count");
        out.put("exact.merge_hits", c.merge_hits as f64 / n, "count/req");
        out.put(
            "exact.sweep.prefix_reuse",
            c.prefix_reuse as f64 / n,
            "count/req",
        );
        out.put(
            "exact.sweep.route",
            share(c.sweep_symbolic + c.sweep_prefix, c.sweeps),
            "ratio",
        );
        out.put(
            "exact.sweep.route.symbolic",
            c.sweep_symbolic as f64,
            "count",
        );
        out.put("exact.sweep.route.prefix", c.sweep_prefix as f64, "count");
        out.put(
            "symbolic.feasibility_hits",
            c.feasibility_hits as f64 / n,
            "count/req",
        );
        out.put(
            "symbolic.feasibility_misses",
            c.feasibility_misses as f64 / n,
            "count/req",
        );
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Named metrics with units, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The chosen engine's analyze time over the fastest exact engine's, for
/// `item`'s program (median of three runs per engine).
pub fn auto_vs_best(item: &Item) -> f64 {
    let mut model = compile(&parse(item.prog.source()).expect("parses")).expect("compiles");
    bind(&mut model, item);
    let model = optimize(&model);
    let chosen = engine_of(&plan_model(&model, &PlannerConfig::default(), None).decision);
    let scheduler = scheduler_for(&model);
    let time = |engine: EngineKind| {
        let opts = ExactOptions {
            engine,
            ..ExactOptions::default()
        };
        let mut runs: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                analyze(&model, &*scheduler, &opts).expect("analyzes");
                t.elapsed().as_secs_f64()
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[1]
    };
    let enum_s = time(EngineKind::Enum);
    let bdd_s = time(EngineKind::Bdd);
    let chosen_s = if chosen == EngineKind::Bdd {
        bdd_s
    } else {
        enum_s
    };
    chosen_s / enum_s.min(bdd_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(5));
        let total = t.exit().as_secs_f64() * 1e3;
        let own = t.self_ms();
        assert!(own["inner"] >= 20.0);
        assert!((own["outer"] + own["inner"] - total).abs() < 1e-6);
        assert!(own["outer"] < total - 19.0);
    }

    #[test]
    fn metrics_render_as_one_json_object() {
        let mut m = Metrics::default();
        m.put("b", 2.5, "ms");
        m.put("a", f64::NAN, "count");
        let doc = parse_json(&m.to_json()).unwrap();
        assert_eq!(
            doc.get("b").unwrap().get("value").unwrap().as_f64(),
            Some(2.5)
        );
        assert_eq!(
            doc.get("a").unwrap().get("unit").unwrap().as_str(),
            Some("count")
        );
    }
}
