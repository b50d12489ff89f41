//! The [`Network`] façade: parse → check → compile → infer.

use std::sync::Arc;

use bayonet_approx::{rejection, simulate, smc, ApproxOptions, Estimate, Simulation};
use bayonet_exact::{
    analyze, answer_cached, value_distribution, Analysis, EngineStats, ExactOptions, QueryResult,
};
use bayonet_lang::{check, parse, Warning};
use bayonet_net::{compile, scheduler_for, CompiledQuery, Model, Scheduler};
use bayonet_num::Rat;
use bayonet_psi::{infer_query, translate, PProgram, DEFAULT_STEP_LIMIT};

use crate::error::Error;

/// A checked, compiled probabilistic network, ready for inference.
///
/// # Examples
///
/// ```
/// use bayonet::Network;
/// use bayonet_num::Rat;
///
/// let network = Network::from_source(r#"
///     packet_fields { dst }
///     topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
///     programs { A -> send, B -> recv }
///     init { packet -> (A, pt1); }
///     query probability(got@B == 1);
///     def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
///     def recv(pkt, pt) state got(0) { got = 1; drop; }
/// "#)?;
/// let report = network.exact()?;
/// assert_eq!(*report.results[0].rat(), Rat::ratio(1, 3));
/// # Ok::<(), bayonet::Error>(())
/// ```
pub struct Network {
    model: Model,
    warnings: Vec<Warning>,
    scheduler: Box<dyn Scheduler>,
    source: String,
}

/// The result of an exact-inference run: one [`QueryResult`] per declared
/// query, plus engine statistics.
#[derive(Debug)]
pub struct ExactReport {
    /// Per-query results, in declaration order.
    pub results: Vec<QueryResult>,
    /// Engine statistics (steps, peak frontier size, merge hits, ...).
    pub stats: EngineStats,
    /// Total surviving mass (the normalization constant `Z` across all
    /// parameter cells).
    pub z: Rat,
    /// Total mass discarded by observations.
    pub discarded: Rat,
}

impl Network {
    /// Parses, integrity-checks (paper §4), and compiles a Bayonet source
    /// file.
    ///
    /// # Errors
    ///
    /// Returns parse errors, the full list of integrity violations, or
    /// compile errors.
    pub fn from_source(source: &str) -> Result<Network, Error> {
        let program = parse(source)?;
        let report = check(&program).map_err(Error::Check)?;
        let model = compile(&program)?;
        let scheduler = scheduler_for(&model);
        Ok(Network {
            model,
            warnings: report.warnings,
            scheduler,
            source: source.to_string(),
        })
    }

    /// The compiled model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Integrity-check warnings (non-fatal findings).
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// The declared queries.
    pub fn queries(&self) -> &[CompiledQuery] {
        &self.model.queries
    }

    /// The active scheduler.
    pub fn scheduler(&self) -> &dyn Scheduler {
        &*self.scheduler
    }

    /// Replaces the scheduler (overriding the source's `scheduler` clause).
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = scheduler;
    }

    /// Runs the symmetry pass ([`bayonet_net::opt::optimize`]) in place and
    /// returns its report. Idempotent: once optimized, later calls return the
    /// cached report without re-running the pass. The exact engines also
    /// optimize on entry (unless [`ExactOptions::passes`] is off); calling
    /// this first simply makes the report inspectable — e.g. for the CLI's
    /// `--explain-passes` — and lets one optimized model serve many runs.
    pub fn optimize(&mut self) -> &bayonet_net::opt::OptReport {
        if self.model.opt_info().is_none() {
            self.model = bayonet_net::opt::optimize(&self.model);
        }
        &self
            .model
            .opt_info()
            .expect("optimize attaches opt_info")
            .report
    }

    /// Binds a symbolic parameter to a concrete value.
    ///
    /// # Errors
    ///
    /// Fails if the parameter was not declared.
    pub fn bind(&mut self, name: &str, value: Rat) -> Result<(), Error> {
        self.model.bind_param(name, value)?;
        Ok(())
    }

    /// Removes a parameter binding, making it symbolic again.
    ///
    /// # Errors
    ///
    /// Fails if the parameter was not declared.
    pub fn unbind(&mut self, name: &str) -> Result<(), Error> {
        self.model.unbind_param(name)?;
        Ok(())
    }

    /// Runs the exact engine (PSI role) with default options and answers
    /// every query.
    ///
    /// # Errors
    ///
    /// See [`bayonet_exact::ExactError`].
    pub fn exact(&self) -> Result<ExactReport, Error> {
        self.exact_with(&ExactOptions::default())
    }

    /// Runs the exact engine with explicit options.
    ///
    /// # Errors
    ///
    /// See [`bayonet_exact::ExactError`].
    pub fn exact_with(&self, opts: &ExactOptions) -> Result<ExactReport, Error> {
        // One feasibility memo table serves the whole run: query answering
        // revisits guards the analysis already proved, so sharing the cache
        // turns those re-checks into hits. The report's counters cover the
        // analysis and every query.
        let cache = opts.feasibility_cache.clone().unwrap_or_default();
        let (hits_before, misses_before) = cache.counts();
        let opts = ExactOptions {
            feasibility_cache: Some(Arc::clone(&cache)),
            ..opts.clone()
        };
        let analysis = self.analyze_with(&opts)?;
        let mut results = Vec::with_capacity(self.model.queries.len());
        for q in &self.model.queries {
            results.push(answer_cached(
                &self.model,
                &analysis,
                q,
                opts.fm_pruning,
                Some(&cache),
            )?);
        }
        let mut stats = analysis.stats.clone();
        let (hits_after, misses_after) = cache.counts();
        stats.feasibility_hits = hits_after - hits_before;
        stats.feasibility_misses = misses_after - misses_before;
        Ok(ExactReport {
            z: analysis.total_terminal_mass(),
            discarded: analysis.total_discarded_mass(),
            results,
            stats,
        })
    }

    /// Runs only the exploration phase of the exact engine, exposing the raw
    /// posterior over terminal configurations.
    ///
    /// # Errors
    ///
    /// See [`bayonet_exact::ExactError`].
    pub fn analyze_with(&self, opts: &ExactOptions) -> Result<Analysis, Error> {
        Ok(analyze(&self.model, &*self.scheduler, opts)?)
    }

    /// Estimates one query with Sequential Monte Carlo (WebPPL role).
    ///
    /// # Errors
    ///
    /// Fails on bad indices, unbound parameters, or sampling errors.
    pub fn smc(&self, query_idx: usize, opts: &ApproxOptions) -> Result<Estimate, Error> {
        let q = self.query_at(query_idx)?;
        Ok(smc(&self.model, &*self.scheduler, q, opts)?)
    }

    /// Estimates one query with rejection sampling.
    ///
    /// # Errors
    ///
    /// Fails on bad indices, unbound parameters, or sampling errors.
    pub fn rejection(&self, query_idx: usize, opts: &ApproxOptions) -> Result<Estimate, Error> {
        let q = self.query_at(query_idx)?;
        Ok(rejection(&self.model, &*self.scheduler, q, opts)?)
    }

    /// The "check" mode of the paper's Figure 1: is `Pr(S)` within
    /// `[lo, hi]`? Runs exact inference on probability query `query_idx`.
    ///
    /// # Errors
    ///
    /// Fails on bad indices, piecewise (symbolic) results, or inference
    /// errors.
    pub fn check_probability(&self, query_idx: usize, lo: &Rat, hi: &Rat) -> Result<bool, Error> {
        let report = self.exact()?;
        let result = report
            .results
            .get(query_idx)
            .ok_or_else(|| Error::Usage(format!("query index {query_idx} out of range")))?;
        if result.cells.len() != 1 {
            return Err(Error::Usage(
                "check_probability needs a concrete (single-cell) result;                  bind all parameters or inspect .cells"
                    .into(),
            ));
        }
        let p = result.rat();
        Ok(p >= lo && p <= hi)
    }

    /// Computes the exact posterior distribution of a query expression over
    /// non-error terminal states — e.g. the full distribution of infected
    /// nodes in the gossip benchmark (§5.3). Entries `(value, probability)`
    /// are sorted by value. Requires all parameters bound.
    ///
    /// # Errors
    ///
    /// Fails on bad indices, symbolic parameters, or inference errors.
    pub fn distribution(&self, query_idx: usize) -> Result<Vec<(Rat, Rat)>, Error> {
        let q = self.query_at(query_idx)?.clone();
        let analysis = self.analyze_with(&ExactOptions::default())?;
        Ok(value_distribution(&self.model, &analysis, &q)?)
    }

    /// Simulates a single randomized run (the "network simulator" mode of
    /// the paper's §6 comparison), recording every global step.
    ///
    /// # Errors
    ///
    /// Fails on unbound parameters or non-termination.
    pub fn simulate(&self, opts: &ApproxOptions) -> Result<Simulation, Error> {
        Ok(simulate(&self.model, &*self.scheduler, opts)?)
    }

    /// Renders the model as PSI source text (paper Figures 9–10).
    pub fn to_psi(&self) -> String {
        bayonet_psi::to_psi(&self.model)
    }

    /// Renders the model as WebPPL source text.
    pub fn to_webppl(&self) -> String {
        bayonet_psi::to_webppl(&self.model)
    }

    /// Translates one query into an executable PSI-core program.
    ///
    /// # Errors
    ///
    /// Fails on unbound parameters or unsupported features.
    pub fn psi_core(&self, query_idx: usize) -> Result<PProgram, Error> {
        let q = self.query_at(query_idx)?;
        Ok(translate(&self.model, q)?)
    }

    /// Answers one query through the PSI backend (translate, then enumerate
    /// traces) — the differential path.
    ///
    /// # Errors
    ///
    /// Fails on translation or inference errors.
    pub fn infer_via_psi(&self, query_idx: usize) -> Result<Rat, Error> {
        let q = self.query_at(query_idx)?;
        let program = translate(&self.model, q)?;
        Ok(infer_query(&program, q.kind, DEFAULT_STEP_LIMIT)?)
    }

    fn query_at(&self, idx: usize) -> Result<&CompiledQuery, Error> {
        self.model.queries.get(idx).ok_or_else(|| {
            Error::Usage(format!(
                "query index {idx} out of range ({} queries declared)",
                self.model.queries.len()
            ))
        })
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.model.node_names)
            .field("queries", &self.model.queries.len())
            .field("scheduler", &self.scheduler.name())
            .finish()
    }
}
