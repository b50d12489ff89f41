//! End-to-end tests of the `bayonet` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bay_file(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("examples/bay");
    p.push(name);
    p.to_string_lossy().into_owned()
}

fn grid_file(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("examples/grids");
    p.push(name);
    p.to_string_lossy().into_owned()
}

fn cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bayonet"))
        .args(args)
        .output()
        .expect("spawn bayonet CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_accepts_valid_files() {
    let (ok, stdout, _) = cli(&["check", &bay_file("gossip_k4.bay")]);
    assert!(ok);
    assert!(stdout.contains("ok: 0 warning(s)"), "{stdout}");
}

#[test]
fn run_exact_gossip() {
    let (ok, stdout, _) = cli(&["run", &bay_file("gossip_k4.bay")]);
    assert!(ok);
    assert!(stdout.contains("94/27"), "{stdout}");
}

#[test]
fn run_with_bind_and_smc() {
    let (ok, stdout, _) = cli(&[
        "run",
        &bay_file("lossy_link.bay"),
        "--bind",
        "P_LOSS=1/2",
        "--engine",
        "smc",
        "--particles",
        "500",
        "--seed",
        "9",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("got@H1"), "{stdout}");
}

#[test]
fn run_unbound_parameter_fails_cleanly() {
    let (ok, _, stderr) = cli(&["run", &bay_file("lossy_link.bay"), "--engine", "smc"]);
    assert!(!ok);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn synthesize_prints_the_figure3_table() {
    let (ok, stdout, _) = cli(&["synthesize", &bay_file("ecmp_costs.bay")]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("COST_01 - COST_02 - COST_21 == 0"),
        "{stdout}"
    );
    assert!(stdout.contains("30378810105265/67706637778944"), "{stdout}");
}

#[test]
fn codegen_targets() {
    let (ok, psi, _) = cli(&["codegen", &bay_file("gossip_k4.bay"), "--target", "psi"]);
    assert!(ok);
    assert!(psi.contains("dat Network"), "{psi}");
    let (ok, webppl, _) = cli(&["codegen", &bay_file("gossip_k4.bay"), "--target", "webppl"]);
    assert!(ok);
    assert!(webppl.contains("Infer({method: 'SMC'"), "{webppl}");
}

#[test]
fn pretty_is_reparseable_by_check() {
    let (ok, pretty, _) = cli(&["pretty", &bay_file("ecmp_costs.bay")]);
    assert!(ok);
    // Feed the pretty output back through the front-end.
    let program = bayonet::parse(&pretty).expect("pretty output parses");
    assert!(bayonet::check(&program).is_ok());
}

#[test]
fn simulate_renders_a_log() {
    let (ok, stdout, _) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "simulate",
        "--seed",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("Run  S0"), "{stdout}");
    assert!(stdout.contains("terminal"), "{stdout}");
}

#[test]
fn unknown_flags_and_commands_error() {
    let (ok, _, stderr) = cli(&["frobnicate", &bay_file("gossip_k4.bay")]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--engine", "magic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown engine"), "{stderr}");
}

#[test]
fn rejects_unknown_flags() {
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
    // Flags from other subcommands are unknown here too.
    let (ok, _, stderr) = cli(&["check", &bay_file("gossip_k4.bay"), "--engine", "exact"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--engine`"), "{stderr}");
    let (ok, _, stderr) = cli(&[
        "synthesize",
        &bay_file("ecmp_costs.bay"),
        "--particles",
        "9",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--particles`"), "{stderr}");
}

#[test]
fn rejects_missing_flag_values() {
    // Value missing at the end of the argument list.
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--engine"]);
    assert!(!ok);
    assert!(stderr.contains("--engine needs a value"), "{stderr}");
    // Another flag where the value should be.
    let (ok, _, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--seed",
        "--particles",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--seed needs a value"), "{stderr}");
}

#[test]
fn rejects_stray_positional_arguments() {
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "extra.bay"]);
    assert!(!ok);
    assert!(
        stderr.contains("unexpected argument `extra.bay`"),
        "{stderr}"
    );
}

#[test]
fn run_stats_flag_reports_to_stderr() {
    let (ok, stdout, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--stats"]);
    assert!(ok, "{stderr}");
    // stdout is unchanged by --stats.
    assert!(stdout.contains("94/27"), "{stdout}");
    assert!(!stdout.contains("stats:"), "{stdout}");
    assert!(stderr.contains("states expanded"), "{stderr}");
    assert!(stderr.contains("merged"), "{stderr}");
    assert!(stderr.contains("terminal mass"), "{stderr}");
    assert!(stderr.contains("ms wall"), "{stderr}");
}

#[test]
fn serve_rejects_bad_flags() {
    let (ok, _, stderr) = cli(&["serve", "--port", "80"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--port`"), "{stderr}");
    let (ok, _, stderr) = cli(&["serve", "--threads"]);
    assert!(!ok);
    assert!(stderr.contains("--threads needs a value"), "{stderr}");
    let (ok, _, stderr) = cli(&["serve", "--threads", "banana"]);
    assert!(!ok);
    assert!(stderr.contains("bad --threads value"), "{stderr}");
    // The shard router is gone; its flag is unknown like any other.
    let (ok, _, stderr) = cli(&["serve", "--replicas", "2"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--replicas`"), "{stderr}");
    // Zero-sized limits would start a server that refuses every request.
    let (ok, _, stderr) = cli(&["serve", "--queue", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--queue must be at least 1"), "{stderr}");
    let (ok, _, stderr) = cli(&["serve", "--max-connections", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--max-connections must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn run_auto_engine_routes_and_explains() {
    // gossip_k4 routes to enumeration (its symmetry group leaves the BDD
    // backend nothing to share); the posterior matches the explicit run
    // bit for bit and the plan goes to stderr only.
    let (ok, stdout, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "auto",
        "--explain-plan",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("94/27"), "{stdout}");
    assert!(!stdout.contains("plan:"), "{stdout}");
    assert!(stderr.contains("plan: engine=enum"), "{stderr}");
    assert!(stderr.contains("est_cost="), "{stderr}");
    assert!(stderr.contains("shared_program_nodes="), "{stderr}");

    // Without the passes nothing merges symmetric states, but auto still
    // enumerates: it does not price the BDD backend, which measured slower
    // than enumeration over interned node configurations everywhere.
    let (ok, stdout, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "auto",
        "--no-opt",
        "--explain-plan",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("94/27"), "{stdout}");
    assert!(stderr.contains("plan: engine=enum"), "{stderr}");
    assert!(!stderr.contains("bdd="), "{stderr}");

    // --explain-plan also works with an explicit engine and never changes
    // what actually runs.
    let (ok, stdout, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "bdd",
        "--explain-plan",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("94/27"), "{stdout}");
    assert!(stderr.contains("plan: engine=enum"), "{stderr}");
}

#[test]
fn run_sweep_streams_one_frame_per_grid_point() {
    let (ok, stdout, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4_sweep.bay"),
        "--sweep",
        &grid_file("gossip_k.json"),
    ]);
    assert!(ok, "{stderr}");
    let frames: Vec<&str> = stdout.lines().collect();
    assert_eq!(frames.len(), 4, "{stdout}");
    for (i, frame) in frames.iter().enumerate() {
        assert!(
            frame.contains(&format!("\"index\":{i},\"status\":200")),
            "frame {i}: {frame}"
        );
        assert!(
            frame.contains(&format!("\"point\":{{\"K\":\"{}\"}}", i + 1)),
            "frame {i}: {frame}"
        );
    }
    // K = 1: the seed node always infects itself, so the probability is 1,
    // and the handlers never read K, so one bound exploration answers every
    // point (route `prefix`).
    assert!(
        frames[0].contains("1 \\u{2248} 1.0000") || frames[0].contains("1 ≈ 1.0000"),
        "{}",
        frames[0]
    );
    assert!(frames[0].contains("\"route\":\"prefix\""), "{}", frames[0]);
}

#[test]
fn run_sweep_rejects_incompatible_flags_and_bad_grids() {
    let source = bay_file("gossip_k4_sweep.bay");
    let grid = grid_file("gossip_k.json");
    let (ok, _, stderr) = cli(&["run", &source, "--sweep", &grid, "--batch"]);
    assert!(!ok);
    assert!(
        stderr.contains("--batch cannot be combined with --sweep"),
        "{stderr}"
    );
    let (ok, _, stderr) = cli(&["run", &source, "--sweep", &grid, "--stats"]);
    assert!(!ok);
    assert!(
        stderr.contains("--stats cannot be combined with --sweep"),
        "{stderr}"
    );
    let (ok, _, stderr) = cli(&["run", &source, "--sweep", "/no/such/grid.json"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read sweep grid"), "{stderr}");
    // A grid naming an undeclared parameter surfaces the structured 400.
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--sweep", &grid]);
    assert!(!ok);
    assert!(stderr.contains("unknown swept parameter `K`"), "{stderr}");
}

#[test]
fn run_over_the_initial_config_limit_exits_1() {
    // Four 1,000-way random initializers: a 10¹²-entry initial product that
    // must be refused as a configuration-limit error, not allocated.
    let path = std::env::temp_dir().join(format!("bayonet-wide-init-{}.bay", std::process::id()));
    std::fs::write(
        &path,
        r#"
        packet_fields { dst }
        topology {
            nodes { A, B, C, D }
            links { (A, pt1) <-> (B, pt1), (C, pt1) <-> (D, pt1) }
        }
        programs { A -> n, B -> n, C -> n, D -> n }
        init { packet -> (A, pt1); }
        query probability(x@A == 0);
        def n(pkt, pt) state x(uniformInt(0, 999)) { drop; }
        "#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bayonet"))
        .args(["run", path.to_str().unwrap()])
        .output()
        .expect("spawn bayonet CLI");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("configuration limit"), "{stderr}");
}
