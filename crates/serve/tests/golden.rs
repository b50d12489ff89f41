//! Golden transcript of every endpoint: a fixed sequence of requests —
//! successes on every engine, shared-source and per-item batches, symbolic
//! and prefix sweeps, cached repeats, and every class of structured error —
//! replayed through `Service::handle` and through a live server, with each
//! answer compared against `tests/golden/transcript.txt`.
//!
//! In process the comparison is byte for byte. Over HTTP, streamed batch
//! and sweep answers arrive in completion order, so the decoded chunked
//! body is compared as a set of NDJSON frames.
//!
//! After an intended change to the wire format, regenerate the transcript
//! with `BAYONET_GOLDEN_UPDATE=1 cargo test -p bayonet-serve --test golden`
//! and review the diff.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use bayonet_serve::{start, Json, Request, Service, DEFAULT_CACHE_ENTRIES};

mod common;
use common::{decode_chunked, GOSSIP_K4, TINY, TINY_PARAM};

const GOSSIP_SWEEP: &str = include_str!("../../../examples/bay/gossip_k4_sweep.bay");
const LOSSY: &str = include_str!("../../../examples/bay/lossy_link.bay");
const ECMP: &str = include_str!("../../../examples/bay/ecmp_costs.bay");
const TTL: &str = include_str!("../../../examples/bay/ttl_triangle.bay");

/// [`TINY`] with a program that no node runs: checks with one warning.
const WARNS: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> recv }
    init { packet -> (A, pt1); }
    query probability(got@B == 1);
    def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
    def recv(pkt, pt) state got(0) { got = 1; drop; }
    def spare(pkt, pt) { drop; }
"#;

/// A node bound to an undefined program: fails the integrity check.
const CHECK_FAILS: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> nowhere }
    init { packet -> (A, pt1); }
    query probability(got@B == 1);
    def send(pkt, pt) { fwd(1); }
"#;

/// An init packet field read from an unresolved name: passes the
/// integrity check, fails compilation.
const COMPILE_FAILS: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> recv }
    init { packet -> (A, pt1) { dst = nowhere }; }
    query probability(got@B == 1);
    def send(pkt, pt) { fwd(1); }
    def recv(pkt, pt) state got(0) { got = 1; drop; }
"#;

struct Case {
    name: &'static str,
    method: &'static str,
    path: &'static str,
    body: String,
}

fn s(text: &str) -> Json {
    Json::Str(text.into())
}

fn n(value: f64) -> Json {
    Json::Num(value)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::obj(fields)
}

/// A request whose body is `source` plus `fields`.
fn with_source(source: &str, mut fields: Vec<(&str, Json)>) -> String {
    fields.insert(0, ("source", s(source)));
    obj(fields).to_string()
}

/// A request body spliced from raw JSON text after a `source` field, for
/// values the `Json` builder cannot express (fractions, negatives).
fn raw_with_source(source: &str, raw: &str) -> String {
    format!("{{\"source\":{},{raw}}}", s(source))
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut add = |name, method, path, body: String| {
        cases.push(Case {
            name,
            method,
            path,
            body,
        })
    };
    let run = |fields| with_source(TINY, fields);
    let lossy = |fields: Vec<(&'static str, Json)>| {
        let mut fields = fields;
        fields.push(("bindings", obj(vec![("P_LOSS", s("1/2"))])));
        with_source(LOSSY, fields)
    };

    // ---- /v1/run successes ----
    add("run_exact", "POST", "/v1/run", run(vec![]));
    add(
        "run_exact_reformatted_is_cached",
        "POST",
        "/v1/run",
        with_source(&format!("\n\n{TINY}\n"), vec![]),
    );
    add("run_exact_ttl", "POST", "/v1/run", with_source(TTL, vec![]));
    add(
        "run_bdd",
        "POST",
        "/v1/run",
        run(vec![("engine", s("bdd"))]),
    );
    add(
        "run_enum_alias",
        "POST",
        "/v1/run",
        run(vec![("engine", s("enum"))]),
    );
    add(
        "run_passes_off",
        "POST",
        "/v1/run",
        run(vec![("passes", Json::Bool(false))]),
    );
    add(
        "run_threads",
        "POST",
        "/v1/run",
        run(vec![("threads", n(4.0))]),
    );
    add(
        "run_query_index",
        "POST",
        "/v1/run",
        lossy(vec![("query", n(1.0))]),
    );
    add(
        "run_integer_binding",
        "POST",
        "/v1/run",
        with_source(LOSSY, vec![("bindings", obj(vec![("P_LOSS", n(0.0))]))]),
    );
    add(
        "run_smc_seeded",
        "POST",
        "/v1/run",
        lossy(vec![
            ("engine", s("smc")),
            ("particles", n(300.0)),
            ("seed", n(9.0)),
        ]),
    );
    add(
        "run_smc_seeded_query",
        "POST",
        "/v1/run",
        lossy(vec![
            ("engine", s("smc")),
            ("particles", n(200.0)),
            ("seed", n(4.0)),
            ("query", n(0.0)),
        ]),
    );
    add(
        "run_rejection_seeded",
        "POST",
        "/v1/run",
        lossy(vec![
            ("engine", s("rejection")),
            ("particles", n(300.0)),
            ("seed", n(9.0)),
        ]),
    );
    add(
        "run_auto",
        "POST",
        "/v1/run",
        run(vec![("engine", s("auto"))]),
    );
    add(
        "run_auto_infeasible_deadline",
        "POST",
        "/v1/run",
        with_source(
            GOSSIP_K4,
            vec![("engine", s("auto")), ("timeout_ms", n(1.0))],
        ),
    );

    // ---- /v1/run language and engine errors ----
    add(
        "run_parse_error",
        "POST",
        "/v1/run",
        with_source("not a program", vec![]),
    );
    add(
        "run_check_error",
        "POST",
        "/v1/run",
        with_source(CHECK_FAILS, vec![]),
    );
    add(
        "run_compile_error",
        "POST",
        "/v1/run",
        with_source(COMPILE_FAILS, vec![]),
    );
    add(
        "run_unbound_parameter",
        "POST",
        "/v1/run",
        with_source(LOSSY, vec![]),
    );
    add(
        "run_unknown_binding",
        "POST",
        "/v1/run",
        run(vec![("bindings", obj(vec![("X", n(1.0))]))]),
    );
    add(
        "run_query_out_of_range",
        "POST",
        "/v1/run",
        run(vec![("query", n(7.0))]),
    );
    add(
        "run_smc_query_out_of_range",
        "POST",
        "/v1/run",
        run(vec![("engine", s("smc")), ("query", n(7.0))]),
    );

    // ---- /v1/run 400s, one per field class ----
    for (name, body) in [
        ("run_400_not_json", "not json".to_string()),
        ("run_400_not_an_object", "[1]".to_string()),
        ("run_400_missing_source", "{}".to_string()),
        ("run_400_source_not_a_string", r#"{"source":5}"#.to_string()),
        (
            "run_400_unknown_field",
            raw_with_source(TINY, r#""fuel":1"#),
        ),
        (
            "run_400_unknown_engine",
            raw_with_source(TINY, r#""engine":"warp""#),
        ),
        (
            "run_400_null_engine",
            raw_with_source(TINY, r#""engine":null"#),
        ),
        ("run_400_query", raw_with_source(TINY, r#""query":-1"#)),
        (
            "run_400_bindings_not_object",
            raw_with_source(TINY, r#""bindings":[1]"#),
        ),
        (
            "run_400_binding_bad_string",
            raw_with_source(TINY, r#""bindings":{"P":"x/y"}"#),
        ),
        (
            "run_400_binding_bad_type",
            raw_with_source(TINY, r#""bindings":{"P":true}"#),
        ),
        (
            "run_400_particles",
            raw_with_source(TINY, r#""particles":1.5"#),
        ),
        ("run_400_seed", raw_with_source(TINY, r#""seed":"s""#)),
        (
            "run_400_timeout_zero",
            raw_with_source(TINY, r#""timeout_ms":0"#),
        ),
        (
            "run_400_timeout_type",
            raw_with_source(TINY, r#""timeout_ms":"1s""#),
        ),
        (
            "run_400_threads_range",
            raw_with_source(TINY, r#""threads":65"#),
        ),
        (
            "run_400_threads_type",
            raw_with_source(TINY, r#""threads":-1"#),
        ),
        ("run_400_passes", raw_with_source(TINY, r#""passes":"yes""#)),
    ] {
        add(name, "POST", "/v1/run", body);
    }

    // ---- /v1/check ----
    add("check_ok", "POST", "/v1/check", with_source(TINY, vec![]));
    add(
        "check_warnings",
        "POST",
        "/v1/check",
        with_source(WARNS, vec![]),
    );
    add(
        "check_errors",
        "POST",
        "/v1/check",
        with_source(CHECK_FAILS, vec![]),
    );
    add(
        "check_parse_error",
        "POST",
        "/v1/check",
        with_source("topology {", vec![]),
    );
    add(
        "check_auto_engine",
        "POST",
        "/v1/check",
        with_source(TINY, vec![("engine", s("auto"))]),
    );
    add(
        "check_400_unknown_field",
        "POST",
        "/v1/check",
        raw_with_source(TINY, r#""grid":1"#),
    );

    // ---- /v1/synthesize ----
    add(
        "synthesize",
        "POST",
        "/v1/synthesize",
        with_source(ECMP, vec![]),
    );
    add(
        "synthesize_maximize",
        "POST",
        "/v1/synthesize",
        with_source(ECMP, vec![("maximize", Json::Bool(true))]),
    );
    add(
        "synthesize_no_parameters",
        "POST",
        "/v1/synthesize",
        with_source(TINY, vec![]),
    );
    add(
        "synthesize_query_out_of_range",
        "POST",
        "/v1/synthesize",
        with_source(ECMP, vec![("query", n(9.0))]),
    );
    add(
        "synthesize_400_maximize",
        "POST",
        "/v1/synthesize",
        raw_with_source(ECMP, r#""maximize":1"#),
    );
    add(
        "synthesize_400_allow_zero_params",
        "POST",
        "/v1/synthesize",
        raw_with_source(ECMP, r#""allow_zero_params":"no""#),
    );

    // ---- /v1/batch ----
    let shared_mixed = obj(vec![
        ("source", s(TINY)),
        (
            "items",
            Json::Arr(vec![
                obj(vec![]),
                obj(vec![
                    ("engine", s("smc")),
                    ("particles", n(100.0)),
                    ("seed", n(1.0)),
                ]),
                obj(vec![("engine", s("bdd"))]),
                obj(vec![("engine", s("auto"))]),
                obj(vec![("passes", Json::Bool(false))]),
                obj(vec![("query", n(3.0))]),
                obj(vec![("fuel", n(1.0))]),
                obj(vec![("timeout_ms", n(0.0))]),
                obj(vec![("bindings", obj(vec![("X", n(1.0))]))]),
            ]),
        ),
    ])
    .to_string();
    add(
        "batch_shared_source_mixed",
        "POST",
        "/v1/batch",
        shared_mixed.clone(),
    );
    add(
        "batch_shared_source_cached_repeat",
        "POST",
        "/v1/batch",
        shared_mixed,
    );
    add(
        "batch_per_item_sources",
        "POST",
        "/v1/batch",
        obj(vec![(
            "items",
            Json::Arr(vec![
                obj(vec![("source", s(TINY))]),
                obj(vec![
                    ("source", s(&format!("\n{TINY}"))),
                    ("engine", s("rejection")),
                    ("particles", n(50.0)),
                    ("seed", n(3.0)),
                ]),
                obj(vec![("source", s("not a program"))]),
                obj(vec![("source", s(CHECK_FAILS))]),
                obj(vec![("source", s(COMPILE_FAILS))]),
                obj(vec![
                    ("source", s(LOSSY)),
                    ("bindings", obj(vec![("P_LOSS", s("1/3"))])),
                ]),
                obj(vec![("source", s(TTL)), ("engine", s("auto"))]),
                obj(vec![]),
            ]),
        )])
        .to_string(),
    );
    let too_many = vec!["{}"; 257].join(",");
    let source = s(TINY).to_string();
    for (name, body) in [
        ("batch_400_not_json", "{".to_string()),
        ("batch_400_not_an_object", "[]".to_string()),
        (
            "batch_400_unknown_field",
            r#"{"items":[{}],"engine":"smc"}"#.to_string(),
        ),
        ("batch_400_missing_items", "{}".to_string()),
        ("batch_400_items_not_array", r#"{"items":{}}"#.to_string()),
        ("batch_400_empty_items", r#"{"items":[]}"#.to_string()),
        (
            "batch_400_too_many_items",
            format!(r#"{{"items":[{too_many}]}}"#),
        ),
        (
            "batch_400_item_not_object",
            r#"{"items":[{},7]}"#.to_string(),
        ),
        (
            "batch_400_source_not_a_string",
            r#"{"source":5,"items":[{}]}"#.to_string(),
        ),
        (
            "batch_400_conflicting_source",
            format!(r#"{{"source":{source},"items":[{{"source":"x"}}]}}"#),
        ),
        (
            "batch_400_timeout_zero",
            r#"{"items":[{}],"timeout_ms":0}"#.to_string(),
        ),
        (
            "batch_400_timeout_type",
            r#"{"items":[{}],"timeout_ms":"1s"}"#.to_string(),
        ),
    ] {
        add(name, "POST", "/v1/batch", body);
    }

    // ---- /v1/sweep ----
    let grid = |values: Vec<Json>| obj(vec![("K", Json::Arr(values))]);
    add(
        "sweep_query_only",
        "POST",
        "/v1/sweep",
        with_source(
            GOSSIP_SWEEP,
            vec![("sweep", grid(vec![n(1.0), n(2.0), n(3.0), n(4.0)]))],
        ),
    );
    let prefix_sweep = with_source(
        TINY_PARAM,
        vec![(
            "sweep",
            obj(vec![("P", Json::Arr(vec![s("1/5"), s("1/2"), n(1.0)]))]),
        )],
    );
    add("sweep_prefix", "POST", "/v1/sweep", prefix_sweep.clone());
    add(
        "sweep_prefix_cached_repeat",
        "POST",
        "/v1/sweep",
        prefix_sweep,
    );
    add(
        "sweep_with_bindings",
        "POST",
        "/v1/sweep",
        with_source(
            ECMP,
            vec![
                (
                    "sweep",
                    obj(vec![("COST_01", Json::Arr(vec![n(1.0), n(3.0)]))]),
                ),
                (
                    "bindings",
                    obj(vec![("COST_02", n(2.0)), ("COST_21", s("1/2"))]),
                ),
            ],
        ),
    );
    add(
        "sweep_bdd_passes_off",
        "POST",
        "/v1/sweep",
        with_source(
            LOSSY,
            vec![
                (
                    "sweep",
                    obj(vec![("P_LOSS", Json::Arr(vec![s("1/4"), s("3/4")]))]),
                ),
                ("engine", s("bdd")),
                ("passes", Json::Bool(false)),
            ],
        ),
    );
    add(
        "sweep_auto_program_alias",
        "POST",
        "/v1/sweep",
        obj(vec![
            ("program", s(LOSSY)),
            (
                "sweep",
                obj(vec![("P_LOSS", Json::Arr(vec![s("1/4"), s("3/4")]))]),
            ),
            ("engine", s("auto")),
            ("threads", n(2.0)),
        ])
        .to_string(),
    );
    add(
        "sweep_unbound_parameter",
        "POST",
        "/v1/sweep",
        with_source(
            ECMP,
            vec![("sweep", obj(vec![("COST_01", Json::Arr(vec![n(1.0)]))]))],
        ),
    );
    add(
        "sweep_parse_error",
        "POST",
        "/v1/sweep",
        with_source("not a program", vec![("sweep", grid(vec![n(1.0)]))]),
    );
    add(
        "sweep_check_error",
        "POST",
        "/v1/sweep",
        with_source(CHECK_FAILS, vec![("sweep", grid(vec![n(1.0)]))]),
    );
    let ints = |n: usize| (1..=n).map(|v| v.to_string()).collect::<Vec<_>>().join(",");
    let oversized = format!(
        r#""sweep":{{"A":[{}],"B":[{}],"C":[{}]}}"#,
        ints(5),
        ints(16),
        ints(16)
    );
    let p = |raw: &str| raw_with_source(TINY_PARAM, raw);
    for (name, body) in [
        ("sweep_400_not_json", "nope".to_string()),
        ("sweep_400_not_an_object", "7".to_string()),
        (
            "sweep_400_unknown_field",
            p(r#""sweep":{"P":[1]},"grid":true"#),
        ),
        (
            "sweep_400_program_conflicts",
            p(r#""sweep":{"P":[1]},"program":"x""#),
        ),
        (
            "sweep_400_missing_source",
            r#"{"sweep":{"P":[1]}}"#.to_string(),
        ),
        (
            "sweep_400_source_not_a_string",
            r#"{"source":[],"sweep":{"P":[1]}}"#.to_string(),
        ),
        (
            "sweep_400_sampling_engine",
            p(r#""sweep":{"P":[1]},"engine":"smc""#),
        ),
        (
            "sweep_400_unknown_engine",
            p(r#""sweep":{"P":[1]},"engine":"warp""#),
        ),
        (
            "sweep_400_bindings_not_object",
            p(r#""sweep":{"P":[1]},"bindings":7"#),
        ),
        (
            "sweep_400_binding_bad_string",
            p(r#""sweep":{"P":[1]},"bindings":{"Q":"x/y"}"#),
        ),
        (
            "sweep_400_binding_and_sweep",
            p(r#""sweep":{"P":[1]},"bindings":{"P":"1/3"}"#),
        ),
        ("sweep_400_missing_sweep", p(r#""engine":"exact""#)),
        ("sweep_400_sweep_not_object", p(r#""sweep":[1]"#)),
        ("sweep_400_empty_sweep", p(r#""sweep":{}"#)),
        ("sweep_400_values_not_array", p(r#""sweep":{"P":1}"#)),
        ("sweep_400_empty_values", p(r#""sweep":{"P":[]}"#)),
        ("sweep_400_bad_value", p(r#""sweep":{"P":[true]}"#)),
        ("sweep_400_too_many_points", p(&oversized)),
        (
            "sweep_400_undeclared_parameter",
            p(r#""sweep":{"NOPE":[1,2]}"#),
        ),
        (
            "sweep_400_timeout",
            p(r#""sweep":{"P":[1]},"timeout_ms":0"#),
        ),
        ("sweep_400_threads", p(r#""sweep":{"P":[1]},"threads":0.5"#)),
        ("sweep_400_passes", p(r#""sweep":{"P":[1]},"passes":1"#)),
    ] {
        add(name, "POST", "/v1/sweep", body);
    }

    // ---- routing ----
    add("healthz", "GET", "/healthz", String::new());
    add("404_unknown_get", "GET", "/nope", String::new());
    add("404_unknown_post", "POST", "/v1/nope", "{}".into());
    add("405_get_run", "GET", "/v1/run", String::new());
    add("405_get_batch", "GET", "/v1/batch", String::new());
    add("405_get_sweep", "GET", "/v1/sweep", String::new());
    add("405_post_healthz", "POST", "/healthz", String::new());
    add("405_post_metrics", "POST", "/metrics", String::new());
    cases
}

/// One recorded answer: status, content type and body.
struct Answer {
    status: u16,
    content_type: String,
    body: String,
}

fn transcript_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/transcript.txt")
}

/// Renders one case and its answer as a transcript block.
fn render(case: &Case, answer: &Answer) -> String {
    let mut block = String::new();
    let _ = writeln!(block, "=== {}", case.name);
    let _ = writeln!(block, "> {} {}", case.method, case.path);
    let _ = writeln!(block, "> {}", case.body);
    let _ = writeln!(block, "< {} {}", answer.status, answer.content_type);
    block.push_str(&answer.body);
    if !answer.body.ends_with('\n') {
        block.push('\n');
    }
    block
}

/// Parses the transcript file into `name → answer`.
fn load_transcript() -> HashMap<String, Answer> {
    let text = std::fs::read_to_string(transcript_path()).expect("read the golden transcript");
    let text = format!("\n{text}");
    let mut answers = HashMap::new();
    for block in text.split("\n=== ").skip(1) {
        let mut lines = block.splitn(5, '\n');
        let name = lines.next().expect("case name").to_string();
        let _request_line = lines.next();
        let _request_body = lines.next();
        let head = lines.next().expect("answer head");
        let body = stored(lines.next().unwrap_or("").trim_end_matches('\n'));
        let (status, content_type) = head
            .strip_prefix("< ")
            .and_then(|h| h.split_once(' '))
            .unwrap_or_else(|| panic!("{name}: bad answer head {head:?}"));
        answers.insert(
            name,
            Answer {
                status: status.parse().expect("numeric status"),
                content_type: content_type.to_string(),
                body,
            },
        );
    }
    answers
}

/// The body with a trailing newline, as stored in the transcript.
fn stored(body: &str) -> String {
    if body.ends_with('\n') {
        body.to_string()
    } else {
        format!("{body}\n")
    }
}

fn sorted_lines(body: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = body.lines().collect();
    lines.sort_unstable();
    lines
}

#[test]
fn handle_matches_the_golden_transcript() {
    let service = Service::new(DEFAULT_CACHE_ENTRIES);
    let mut rendered = String::new();
    let mut answers = Vec::new();
    for case in cases() {
        let resp = service.handle(&Request {
            method: case.method.into(),
            path: case.path.into(),
            headers: Vec::new(),
            body: case.body.clone().into_bytes(),
        });
        let answer = Answer {
            status: resp.status,
            content_type: resp.content_type.to_string(),
            body: String::from_utf8(resp.body).expect("utf-8 response"),
        };
        rendered.push_str(&render(&case, &answer));
        answers.push((case, answer));
    }

    if std::env::var_os("BAYONET_GOLDEN_UPDATE").is_some() {
        std::fs::write(transcript_path(), rendered).expect("write the golden transcript");
        return;
    }
    let golden = load_transcript();
    assert_eq!(
        golden.len(),
        answers.len(),
        "case list and transcript differ"
    );
    for (case, got) in &answers {
        let want = golden
            .get(case.name)
            .unwrap_or_else(|| panic!("{}: missing from the transcript", case.name));
        assert_eq!(
            (got.status, got.content_type.as_str(), stored(&got.body)),
            (want.status, want.content_type.as_str(), want.body.clone()),
            "{}: answer differs from the golden transcript",
            case.name
        );
    }
}

#[test]
fn live_server_matches_the_golden_transcript() {
    let golden = load_transcript();
    let handle = start(common::test_config()).expect("start server");
    for case in cases() {
        let want = golden
            .get(case.name)
            .unwrap_or_else(|| panic!("{}: missing from the transcript", case.name));
        let (status, head, payload) =
            common::http(handle.addr(), case.method, case.path, &case.body);
        assert_eq!(status, want.status, "{}: {payload}", case.name);
        assert!(
            head.contains(&format!("Content-Type: {}", want.content_type)),
            "{}: {head}",
            case.name
        );
        if head.contains("Transfer-Encoding: chunked") {
            // Streamed frames arrive in completion order.
            let body = decode_chunked(&payload);
            assert_eq!(
                sorted_lines(&body),
                sorted_lines(&want.body),
                "{}: streamed frames differ from the golden transcript",
                case.name
            );
        } else {
            assert_eq!(stored(&payload), want.body, "{}", case.name);
        }
    }
    handle.shutdown();
}
