//! Sweep-vs-pointwise differential suite: [`bayonet_exact::sweep`] must be
//! **bit-for-bit identical** to independent pointwise runs at every grid
//! point — for every curated example, for 200 generated programs, at 1 and
//! 8 worker threads, and under every `BAYONET_TEST_ENGINE` leg
//! (`enum`/`bdd`/`auto`; the CI matrix runs all three).
//!
//! "Identical" means the rendered per-query results and the exact `Z` /
//! discarded-mass rationals. Engine statistics are deliberately excluded:
//! sharing work across points is the whole purpose of the sweep engine, so
//! its per-point expansion counts are *lower* than pointwise runs — that
//! saving is asserted separately (`shared_work_is_not_recounted`).

use std::fs;
use std::path::PathBuf;

use bayonet_exact::{analyze, answer, render_run, sweep, EngineKind, ExactOptions, SweepRoute};
use bayonet_lang::{parse, testgen::ProgramGen};
use bayonet_net::{compile, scheduler_for, Model};
use bayonet_num::Rat;
use bayonet_symbolic::ParamId;

mod common;

fn example_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/bay"))
}

fn example_sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = fs::read_dir(example_dir())
        .expect("examples/bay exists")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            if path.extension().is_some_and(|ext| ext == "bay") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                Some((name, fs::read_to_string(&path).expect("readable example")))
            } else {
                None
            }
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no example programs found");
    out
}

/// Worker counts under test (the satellite matrix: sequential and crowded).
const THREADS: [usize; 2] = [1, 8];

fn options(threads: usize) -> ExactOptions {
    ExactOptions {
        threads,
        // Force the parallel path even on tiny frontiers so parallel
        // prefix replay is actually exercised (ignored by the bdd leg).
        par_threshold: 2,
        ..common::test_options()
    }
}

/// The grid: every declared parameter swept over `values`, full cartesian
/// product in row-major order (same construction the serve layer uses).
fn cartesian_grid(model: &Model, values: &[Rat]) -> (Vec<ParamId>, Vec<Vec<Rat>>) {
    let params: Vec<ParamId> = model.params.iter().collect();
    let mut points: Vec<Vec<Rat>> = vec![Vec::new()];
    for _ in &params {
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
    (params, points)
}

/// Renders one point's outcome exactly as a pointwise `bayonet run` would
/// print it, minus the stats bracket (statistics are not pinned): per-query
/// results then the Z line. Errors render as `error: {message}` so error
/// identity is differential too.
fn render_outcome(text: Result<String, String>) -> String {
    text.unwrap_or_else(|e| format!("error: {e}\n"))
}

/// Independent pointwise run: bind the point, analyze from scratch, answer.
fn pointwise(
    base: &Model,
    params: &[ParamId],
    point: &[Rat],
    opts: &ExactOptions,
) -> Result<String, String> {
    let mut model = base.clone();
    for (id, value) in params.iter().zip(point) {
        let name = model.params.name(*id).to_string();
        model.bind_param(&name, value.clone()).expect("bindable");
    }
    let scheduler = scheduler_for(&model);
    let analysis = analyze(&model, &*scheduler, opts).map_err(|e| e.to_string())?;
    let results = model
        .queries
        .iter()
        .map(|q| answer(&model, &analysis, q, opts.fm_pruning))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(render_run(
        &results,
        &analysis.total_terminal_mass(),
        &analysis.total_discarded_mass(),
        None,
    ))
}

/// Runs the sweep and the per-point baselines and asserts byte identity.
fn assert_sweep_matches_pointwise(label: &str, source: &str, values: &[Rat]) {
    let model = compile(&parse(source).expect("parses")).expect("compiles");
    let (params, points) = cartesian_grid(&model, values);
    for threads in THREADS {
        let opts = options(threads);
        let result = sweep(&model, &params, &points, &opts)
            .unwrap_or_else(|e| panic!("{label}: sweep failed globally: {e}"));
        assert_eq!(result.points.len(), points.len(), "{label}");
        for (i, (point, got)) in points.iter().zip(&result.points).enumerate() {
            let got_rendered = render_outcome(match got {
                Ok(p) => Ok(render_run(&p.results, &p.z, &p.discarded, None)),
                Err(e) => Err(e.to_string()),
            });
            let want_rendered = render_outcome(pointwise(&model, &params, point, &opts));
            assert_eq!(
                got_rendered, want_rendered,
                "{label}: sweep diverges from pointwise at point {i} \
                 ({point:?}), {threads} threads, route {:?}",
                result.route
            );
        }
    }
}

#[test]
fn every_example_matches_pointwise_across_grid_and_threads() {
    // 1/4 and 1/2 are valid for every declared parameter in the curated
    // set: probabilities for `lossy_link`'s P_LOSS, plain rationals for
    // cost/threshold parameters. Parameter-free examples degenerate to a
    // single-point sweep, which must still match the direct run.
    let values = [Rat::ratio(1, 4), Rat::ratio(1, 2)];
    for (name, source) in example_sources() {
        assert_sweep_matches_pointwise(&name, &source, &values);
    }
}

#[test]
fn generated_programs_match_pointwise_across_grid_and_threads() {
    // 200 seeded programs with the `PT` parameter in the query threshold
    // and (seed-dependent) in a forwarding decision — covering the fully
    // shared, prefix-forked, and symbolic-cell routes.
    let values = [Rat::int(0), Rat::int(1), Rat::int(2)];
    for seed in 0..200 {
        let source = ProgramGen::new_parameterized(seed).generate();
        assert_sweep_matches_pointwise(&format!("seed {seed}"), &source, &values);
    }
}

/// The point of the sweep engine: shared work is counted once. For a sweep
/// whose handlers never read the parameter, per-point engine work must be
/// zero and the shared run must be charged exactly once.
#[test]
fn shared_work_is_not_recounted() {
    let source =
        fs::read_to_string(example_dir().join("gossip_k4_sweep.bay")).expect("sweep example");
    let model = compile(&parse(&source).unwrap()).unwrap();
    let (params, points) = cartesian_grid(&model, &[Rat::int(1), Rat::int(2), Rat::int(3)]);
    // Work sharing is an enumerative-engine property; the bdd backend
    // legitimately re-sweeps per point, so this test pins the engine rather
    // than inheriting the BAYONET_TEST_ENGINE leg. Passes are pinned off
    // too: symmetry canonicalization is gated off on the sweep's symbolic
    // shared exploration but on for a bound pointwise run, which would
    // skew the stats-equality comparison below (posteriors stay identical
    // either way — that is pinned by the matching tests above).
    let opts = ExactOptions {
        engine: EngineKind::Enum,
        passes: false,
        ..options(1)
    };
    let result = sweep(&model, &params, &points, &opts).unwrap();
    assert!(
        matches!(result.route, SweepRoute::Symbolic | SweepRoute::Prefix),
        "handlers never read K, so the exploration must be shared (got {:?})",
        result.route
    );
    assert!(result.shared_steps > 0);
    assert_eq!(result.reused_points(), points.len() - 1);

    // Shared stats equal one pointwise exploration; per-point work is zero.
    let mut bound = model.clone();
    bound.bind_param("K", Rat::int(2)).unwrap();
    let scheduler = scheduler_for(&bound);
    let single = analyze(&bound, &*scheduler, &opts).unwrap();
    assert_eq!(result.prefix_stats.steps, single.stats.steps);
    assert_eq!(result.prefix_stats.expansions, single.stats.expansions);
    for point in &result.points {
        assert_eq!(point.as_ref().unwrap().stats.expansions, 0);
    }
}
