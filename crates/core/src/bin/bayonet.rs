//! The `bayonet` command-line tool: check, run, synthesize, and compile
//! Bayonet network programs.
//!
//! ```text
//! bayonet check <file.bay>
//! bayonet run <file.bay> [--engine auto|exact|enum|bdd|smc|rejection|psi]
//!                        [--particles N] [--seed N] [--threads N]
//!                        [--scheduler uniform|det|rotor]
//!                        [--bind NAME=VALUE]... [--stats] [--explain-plan]
//!                        [--no-opt] [--explain-passes]
//! bayonet run <batch.json> --batch [--threads N]
//! bayonet run <file.bay> --sweep <grid.json> [--engine auto|exact|enum|bdd]
//!                        [--bind NAME=VALUE]... [--threads N]
//! bayonet synthesize <file.bay> [--query N] [--maximize]
//! bayonet codegen <file.bay> [--target psi|webppl]
//! bayonet pretty <file.bay>
//! bayonet serve [--addr A] [--threads N] [--cache-entries K] [--queue N]
//!               [--io-timeout-ms MS] [--cache-dir DIR] [--cache-max-bytes N]
//!               [--max-connections N]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use bayonet::{
    plan_model, synthesize_with, ApproxOptions, DeterministicScheduler, EngineKind, ExactOptions,
    Network, Objective, PlanEngine, PlannerConfig, Rat, RotorScheduler, SynthesisOptions,
    UniformScheduler,
};
use bayonet_approx::render_estimate;
use bayonet_exact::{render_run, render_synthesis};
use bayonet_serve::{parse_json, Json, Request, Service, ServiceOptions, DEFAULT_CACHE_ENTRIES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: bayonet <check|run|synthesize|codegen|pretty|serve> [<file.bay>] [options]\n\
     run options: --engine auto|exact|enum|bdd|smc|rejection|psi|simulate  --particles N\n\
                  --seed N  --scheduler uniform|det|rotor  --bind NAME=VALUE  --threads N\n\
                  --stats  --explain-plan (print the planner's routing and cost estimate)\n\
                  --no-opt (skip the symmetry pass)\n\
                  --explain-passes (print the symmetry group and its orbits)\n\
                  --batch (file is a /v1/batch JSON request; NDJSON frames to stdout)\n\
                  --sweep GRID.json (sweep parameters over a value grid; one NDJSON\n\
                                     frame per grid point, sharing exploration work)\n\
     synthesize options: --query N  --maximize  --allow-zero-params\n\
     codegen options: --target psi|webppl\n\
     serve options: --addr HOST:PORT  --threads N  --cache-entries K  --queue N\n\
                    --io-timeout-ms MS  --cache-dir DIR  --cache-max-bytes N\n\
                    --max-connections N"
        .to_string()
}

/// Allowed flags per subcommand: `(name, takes_value)`.
const RUN_FLAGS: &[(&str, bool)] = &[
    ("--engine", true),
    ("--particles", true),
    ("--seed", true),
    ("--scheduler", true),
    ("--bind", true),
    ("--threads", true),
    ("--stats", false),
    ("--explain-plan", false),
    ("--no-opt", false),
    ("--explain-passes", false),
    ("--batch", false),
    ("--sweep", true),
];
const SYNTHESIZE_FLAGS: &[(&str, bool)] = &[
    ("--query", true),
    ("--maximize", false),
    ("--allow-zero-params", false),
    ("--scheduler", true),
    ("--bind", true),
];
const CODEGEN_FLAGS: &[(&str, bool)] = &[("--target", true)];
const NO_FLAGS: &[(&str, bool)] = &[];

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("serve") {
        return serve_cmd(&args[1..]);
    }
    let (cmd, file) = match args {
        [cmd, file, ..] => (cmd.as_str(), file.as_str()),
        _ => return Err(usage()),
    };
    let rest = &args[2..];
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;

    match cmd {
        "check" => {
            validate_flags(rest, NO_FLAGS)?;
            check(&source)
        }
        "run" => {
            validate_flags(rest, RUN_FLAGS)?;
            let threads = threads_flag(rest)?;
            match (flag_value(rest, "--sweep"), has_flag(rest, "--batch")) {
                (Some(_), true) => Err("--batch cannot be combined with --sweep".into()),
                (Some(grid_file), false) => run_sweep_cmd(&source, grid_file, rest, threads),
                (None, true) => run_batch_cmd(&source, rest, threads),
                (None, false) => run_queries(&source, rest, threads),
            }
        }
        "synthesize" => {
            validate_flags(rest, SYNTHESIZE_FLAGS)?;
            synthesize_cmd(&source, rest)
        }
        "codegen" => {
            validate_flags(rest, CODEGEN_FLAGS)?;
            codegen(&source, rest)
        }
        "pretty" => {
            validate_flags(rest, NO_FLAGS)?;
            let program = bayonet::parse(&source).map_err(|e| e.to_string())?;
            print!("{}", bayonet::pretty_program(&program));
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// Checks `rest` against a flag specification: every argument must be a
/// known flag, and every value-taking flag must be followed by a value
/// (which may not itself look like a flag).
fn validate_flags(rest: &[String], spec: &[(&str, bool)]) -> Result<(), String> {
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        match spec.iter().find(|(name, _)| *name == arg) {
            Some((name, true)) => match rest.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => return Err(format!("{name} needs a value\n{}", usage())),
            },
            Some((_, false)) => i += 1,
            None if arg.starts_with("--") => {
                return Err(format!("unknown flag `{arg}`\n{}", usage()))
            }
            None => return Err(format!("unexpected argument `{arg}`\n{}", usage())),
        }
    }
    Ok(())
}

fn flag_value<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

fn has_flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

/// `--threads N` for `run`: at least 1, default 1.
fn threads_flag(rest: &[String]) -> Result<usize, String> {
    match flag_value(rest, "--threads").map(str::parse::<usize>) {
        None => Ok(1),
        Some(Ok(n)) if n >= 1 => Ok(n),
        Some(Ok(_)) => Err("bad --threads value: must be at least 1".to_string()),
        Some(Err(e)) => Err(format!("bad --threads value: {e}")),
    }
}

/// The repeatable `--bind NAME=VALUE` flags, in order.
fn bind_flags(rest: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut binds = Vec::new();
    for (i, arg) in rest.iter().enumerate() {
        if arg == "--bind" {
            let spec = rest
                .get(i + 1)
                .ok_or_else(|| "--bind needs NAME=VALUE".to_string())?;
            binds.push(
                spec.split_once('=')
                    .ok_or_else(|| format!("malformed --bind `{spec}` (want NAME=VALUE)"))?,
            );
        }
    }
    Ok(binds)
}

/// Fails when any of `flags` is set; `mode` names the flag they conflict
/// with.
fn reject_flags(rest: &[String], flags: &[&str], mode: &str) -> Result<(), String> {
    match flags.iter().find(|flag| has_flag(rest, flag)) {
        Some(flag) => Err(format!("{flag} cannot be combined with {mode}")),
        None => Ok(()),
    }
}

fn load(source: &str, rest: &[String]) -> Result<Network, String> {
    let mut network = Network::from_source(source).map_err(|e| e.to_string())?;
    for w in network.warnings() {
        eprintln!("warning: {}", w.message);
    }
    for (name, value) in bind_flags(rest)? {
        let value: Rat = value
            .parse()
            .map_err(|e| format!("bad value in --bind `{name}={value}`: {e}"))?;
        network.bind(name, value).map_err(|e| e.to_string())?;
    }
    match flag_value(rest, "--scheduler") {
        Some("uniform") => network.set_scheduler(Box::new(UniformScheduler)),
        Some("det") | Some("deterministic") => {
            network.set_scheduler(Box::new(DeterministicScheduler))
        }
        Some("rotor") => network.set_scheduler(Box::new(RotorScheduler)),
        Some(other) => return Err(format!("unknown scheduler `{other}`")),
        None => {}
    }
    Ok(network)
}

fn check(source: &str) -> Result<(), String> {
    let program = bayonet::parse(source).map_err(|e| e.to_string())?;
    match bayonet::check(&program) {
        Ok(report) => {
            for w in &report.warnings {
                println!("warning: {}", w.message);
            }
            println!("ok: {} warning(s)", report.warnings.len());
            Ok(())
        }
        Err(errors) => {
            for e in &errors {
                println!("{e}");
            }
            Err(format!("{} integrity error(s)", errors.len()))
        }
    }
}

fn run_queries(source: &str, rest: &[String], threads: usize) -> Result<(), String> {
    let mut network = load(source, rest)?;
    let engine_flag = flag_value(rest, "--engine").unwrap_or("exact");
    let want_stats = has_flag(rest, "--stats");
    let passes = !has_flag(rest, "--no-opt");
    let explain_passes = has_flag(rest, "--explain-passes");
    if explain_passes && !passes {
        return Err("--explain-passes cannot be combined with --no-opt".into());
    }
    let started = Instant::now();

    // `--engine auto` consults the static cost model; `--explain-plan`
    // prints the same estimate for any engine (diagnostics go to stderr so
    // posterior output stays diffable). Planning reads the optimized
    // model's cached pass facts and symmetry signals.
    let plan = (engine_flag == "auto" || has_flag(rest, "--explain-plan")).then(|| {
        if passes {
            plan_model(
                &bayonet::opt::optimize(network.model()),
                &PlannerConfig::default(),
                None,
            )
        } else {
            plan_model(network.model(), &PlannerConfig::default(), None)
        }
    });
    if has_flag(rest, "--explain-plan") {
        eprintln!("{}", plan.as_ref().expect("plan computed above").explain());
    }
    let engine = if engine_flag == "auto" {
        match plan.as_ref().and_then(|p| p.engine()) {
            Some(PlanEngine::Bdd) => "bdd",
            Some(PlanEngine::Smc) => "smc",
            Some(PlanEngine::Enum) => "enum",
            None => {
                return Err(
                    "planner found no feasible engine for this program (see --explain-plan)"
                        .to_string(),
                )
            }
        }
    } else {
        engine_flag
    };

    // An auto-routed SMC run uses the planner's error-bounded particle
    // count; an explicit `--particles` always wins.
    let planned_particles = (engine_flag == "auto")
        .then(|| plan.as_ref().and_then(|p| p.particles))
        .flatten();
    let particles = flag_value(rest, "--particles")
        .map(|v| v.parse::<usize>().map_err(|e| e.to_string()))
        .transpose()?
        .or(planned_particles)
        .unwrap_or(1000);
    let seed = flag_value(rest, "--seed")
        .map(|v| v.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(0);
    let approx = ApproxOptions {
        particles,
        seed,
        ..Default::default()
    };

    if threads > 1 && engine_flag != "auto" && !matches!(engine, "exact" | "enum") {
        // The diagram backend is single-threaded by design; erroring beats
        // silently ignoring the flag. `auto` is exempt: the planner may
        // route anywhere, and the pool simply goes unused off the
        // enumeration path.
        return Err(format!(
            "--threads only applies to the exact enumeration engine, not `{engine}`"
        ));
    }

    // The exact family runs the optimized model; sampling/psi engines run
    // the original (sampling cannot use the symmetry group, so optimizing
    // would be wasted work), so for them `--explain-passes` reports on a
    // throwaway copy.
    let exact_family = matches!(engine, "exact" | "enum" | "bdd");
    let pass_report = (passes && exact_family).then(|| network.optimize().clone());
    if explain_passes {
        match &pass_report {
            Some(report) => eprint!("{}", report.explain(&network.model().node_names)),
            None => {
                let optimized = bayonet::opt::optimize(network.model());
                let info = optimized.opt_info().expect("optimize attaches a report");
                eprint!("{}", info.report.explain(&optimized.node_names));
            }
        }
    }

    match engine {
        "exact" | "enum" | "bdd" => {
            let opts = ExactOptions {
                threads,
                passes,
                engine: if engine == "bdd" {
                    EngineKind::Bdd
                } else {
                    EngineKind::Enum
                },
                ..ExactOptions::default()
            };
            let report = network.exact_with(&opts).map_err(|e| e.to_string())?;
            print!(
                "{}",
                render_run(
                    &report.results,
                    &report.z,
                    &report.discarded,
                    Some(&report.stats)
                )
            );
            if want_stats {
                eprintln!(
                    "stats: {} states expanded, {} merged, terminal mass {}, \
                     feasibility cache {} hits / {} misses, {:.1} ms wall",
                    report.stats.expansions,
                    report.stats.merge_hits,
                    report.z,
                    report.stats.feasibility_hits,
                    report.stats.feasibility_misses,
                    started.elapsed().as_secs_f64() * 1000.0
                );
                if engine == "bdd" {
                    eprintln!(
                        "stats: bdd {} nodes, {} unique-table hits, {} apply-cache hits",
                        report.stats.bdd_nodes,
                        report.stats.bdd_unique_hits,
                        report.stats.bdd_apply_cache_hits
                    );
                }
                if let Some(pr) = &pass_report {
                    eprintln!(
                        "stats: opt group order {}, {} orbits, {} orbit merges",
                        pr.group_order,
                        pr.orbits.len(),
                        report.stats.orbit_merges
                    );
                }
            }
        }
        "smc" | "rejection" => {
            for idx in 0..network.queries().len() {
                let est = if engine == "smc" {
                    network.smc(idx, &approx)
                } else {
                    network.rejection(idx, &approx)
                }
                .map_err(|e| e.to_string())?;
                print!("{}", render_estimate(&network.queries()[idx].source, &est));
            }
        }
        "simulate" => {
            let sim = network.simulate(&approx).map_err(|e| e.to_string())?;
            print!("{}", sim.render(network.model()));
        }
        "psi" => {
            for idx in 0..network.queries().len() {
                let value = network.infer_via_psi(idx).map_err(|e| e.to_string())?;
                println!(
                    "{}: {value} ≈ {:.4}",
                    network.queries()[idx].source,
                    value.to_f64()
                );
            }
        }
        other => return Err(format!("unknown engine `{other}`\n{}", usage())),
    }
    if want_stats && !matches!(engine, "exact" | "enum" | "bdd") {
        eprintln!(
            "stats: {:.1} ms wall",
            started.elapsed().as_secs_f64() * 1000.0
        );
    }
    Ok(())
}

/// `bayonet run <file.json> --batch`: the file is a `/v1/batch` request
/// body, not a program. Items run through the same orchestration as the
/// server (shared-source compile amortization, pool fan-out, per-item
/// errors) and the NDJSON frames are printed to stdout sorted by item
/// index, so output is deterministic and diffable against server runs.
fn run_batch_cmd(source: &str, rest: &[String], threads: usize) -> Result<(), String> {
    reject_flags(
        rest,
        &[
            "--engine",
            "--particles",
            "--seed",
            "--scheduler",
            "--bind",
            "--stats",
            "--explain-plan",
            "--no-opt",
            "--explain-passes",
        ],
        "--batch; set it per item in the batch file",
    )?;
    run_frames("batch", "item", source.as_bytes().to_vec(), threads)
}

/// `bayonet run <file.bay> --sweep <grid.json>`: sweeps the program across
/// a parameter grid (the file maps parameter names to value arrays, e.g.
/// `{"K": [1, 2, 3, 4]}`) through the same `/v1/sweep` orchestration as
/// the server, sharing exploration work across grid points. One NDJSON
/// frame per point is printed to stdout in row-major grid order; each
/// frame's `body` is the answer an independent `run --bind` of that point
/// would produce.
fn run_sweep_cmd(
    source: &str,
    grid_file: &str,
    rest: &[String],
    threads: usize,
) -> Result<(), String> {
    reject_flags(
        rest,
        &[
            "--particles",
            "--seed",
            "--scheduler",
            "--stats",
            "--explain-plan",
            "--explain-passes",
        ],
        "--sweep",
    )?;
    let grid_text = std::fs::read_to_string(grid_file)
        .map_err(|e| format!("cannot read sweep grid {grid_file}: {e}"))?;
    let grid = parse_json(&grid_text).map_err(|e| format!("bad sweep grid {grid_file}: {e}"))?;

    let mut fields = vec![("source", Json::Str(source.to_string())), ("sweep", grid)];
    if let Some(engine) = flag_value(rest, "--engine") {
        fields.push(("engine", Json::Str(engine.to_string())));
    }
    if has_flag(rest, "--no-opt") {
        fields.push(("passes", Json::Bool(false)));
    }
    // --bind NAME=VALUE flags become the fixed (non-swept) bindings.
    let bindings: Vec<(String, Json)> = bind_flags(rest)?
        .into_iter()
        .map(|(name, value)| (name.to_string(), Json::Str(value.to_string())))
        .collect();
    if !bindings.is_empty() {
        fields.push(("bindings", Json::Obj(bindings)));
    }
    if threads > 1 {
        fields.push(("threads", Json::Num(threads as f64)));
    }
    run_frames(
        "sweep",
        "point",
        Json::obj(fields).to_string().into_bytes(),
        threads,
    )
}

/// Runs one `/v1/{kind}` request body in process, through the server's own
/// request pipeline, and prints its NDJSON frames sorted by index. Fails
/// when the request is rejected or any frame (one per `unit`) failed.
fn run_frames(kind: &str, unit: &str, body: Vec<u8>, threads: usize) -> Result<(), String> {
    let service = Service::with_options(ServiceOptions {
        cache_entries: DEFAULT_CACHE_ENTRIES,
        pool: (threads > 1).then(|| bayonet::ComputePool::new(threads)),
        persist: None,
    })
    .map_err(|e| format!("cannot build {kind} service: {e}"))?;
    let response = service.handle(&Request {
        method: "POST".into(),
        path: format!("/v1/{kind}"),
        headers: Vec::new(),
        body,
    });
    let body = String::from_utf8_lossy(&response.body);
    if response.status != 200 {
        return Err(format!("{kind} rejected ({}): {body}", response.status));
    }
    print!("{body}");
    let failed = body
        .lines()
        .filter_map(|line| parse_json(line).ok())
        .filter(|doc| doc.get("status").and_then(Json::as_u64) != Some(200))
        .count();
    if failed > 0 {
        let total = body.lines().count();
        return Err(format!("{failed} of {total} {kind} {unit}(s) failed"));
    }
    Ok(())
}

fn serve_cmd(rest: &[String]) -> Result<(), String> {
    let config = bayonet_serve::ServerConfig::default()
        .parse_flags(rest)
        .map_err(|e| format!("{e}\n{}", usage()))?;
    let handle = bayonet_serve::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    eprintln!("bayonet-serve listening on http://{}", handle.addr());
    handle.join();
    Ok(())
}

fn synthesize_cmd(source: &str, rest: &[String]) -> Result<(), String> {
    let network = load(source, rest)?;
    let query = flag_value(rest, "--query")
        .map(|v| v.parse::<usize>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(0);
    let opts = SynthesisOptions {
        objective: if has_flag(rest, "--maximize") {
            Objective::Maximize
        } else {
            Objective::Minimize
        },
        positive_params: !has_flag(rest, "--allow-zero-params"),
    };
    let synthesis = synthesize_with(&network, query, opts).map_err(|e| e.to_string())?;
    print!("{}", render_synthesis(&synthesis, &network.model().params));
    Ok(())
}

fn codegen(source: &str, rest: &[String]) -> Result<(), String> {
    let network = load(source, &[])?;
    match flag_value(rest, "--target").unwrap_or("psi") {
        "psi" => print!("{}", network.to_psi()),
        "webppl" => print!("{}", network.to_webppl()),
        other => return Err(format!("unknown codegen target `{other}`")),
    }
    Ok(())
}
