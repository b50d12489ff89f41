//! `/v1/sweep` integration suite: request validation (table-driven
//! structured 400s with `error.field` naming the offending key), per-point
//! frames byte-aligned with pointwise `/v1/run` answers, chunked NDJSON
//! streaming, and the metrics proof that a concrete sweep actually reuses
//! its shared exploration prefix instead of re-running every point.

use std::net::SocketAddr;

use bayonet_serve::{parse_json, start, Json, MAX_SWEEP_POINTS};

mod common;
use common::{metric, parse_frames, TINY, TINY_PARAM};

fn sweep(addr: SocketAddr, body: &str) -> (u16, String) {
    let (status, _, payload) = common::http(addr, "POST", "/v1/sweep", body);
    let payload = if payload.starts_with(|c: char| c.is_ascii_hexdigit()) && status == 200 {
        common::decode_chunked(&payload)
    } else {
        payload
    };
    (status, payload)
}

/// Raw request body with `source` set to the parameterized tiny program
/// and the given fields spliced in verbatim.
fn body_with(fields: &str) -> String {
    let source = Json::Str(TINY_PARAM.into()).to_string();
    format!("{{\"source\":{source},{fields}}}")
}

#[test]
fn malformed_sweeps_are_structured_400s_naming_the_field() {
    // A grid with one more point than the cap: 4 * 16 * 16 = 1024 is legal,
    // 5 * 16 * 16 = 1280 is not.
    let ints = |n: usize| (1..=n).map(|v| v.to_string()).collect::<Vec<_>>().join(",");
    let oversized = format!(
        "\"sweep\":{{\"A\":[{}],\"B\":[{}],\"C\":[{}]}}",
        ints(5),
        ints(16),
        ints(16)
    );

    #[rustfmt::skip]
    let cases: &[(&str, &str, &str)] = &[
        // (raw fields, expected error.field, expected message fragment)
        ("\"sweep\":{}",
         "sweep", "`sweep` must name at least one parameter"),
        ("\"sweep\":{\"P\":[]}",
         "sweep.P", "`sweep.P` must contain at least one value"),
        (&oversized,
         "sweep", "sweep grid has 1280 points; the maximum is 1024"),
        ("\"sweep\":{\"NOPE\":[1,2]}",
         "sweep.NOPE", "unknown swept parameter `NOPE`"),
        ("\"sweep\":{\"P\":[\"1/2\"]},\"program\":\"x\"",
         "program", "`program` conflicts with `source`; set exactly one"),
        ("\"sweep\":{\"P\":[\"1/2\"]},\"grid\":true",
         "grid", "unknown sweep field `grid`"),
        ("\"sweep\":{\"P\":[\"1/2\"]},\"engine\":\"smc\"",
         "engine", "sweeps are exact-only"),
        ("\"sweep\":{\"P\":[\"1/2\"]},\"bindings\":{\"P\":\"1/3\"}",
         "sweep.P", "parameter `P` is set in both `bindings` and `sweep`"),
        ("\"sweep\":{\"P\":[true]}",
         "sweep.P", "values in `sweep.P` must be integers or rational strings"),
        ("\"sweep\":[1,2]",
         "sweep", "`sweep` must be an object"),
        ("\"threads\":0,\"sweep\":{\"P\":[\"1/2\"]}",
         "threads", "`threads` must be between 1 and 64, got 0"),
    ];
    assert_eq!(MAX_SWEEP_POINTS, 1024, "cases above encode the cap");

    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();
    for (fields, want_field, want_message) in cases {
        let (status, body) = sweep(addr, &body_with(fields));
        assert_eq!(status, 400, "case {fields}: got body {body}");
        let doc = parse_json(&body).unwrap_or_else(|e| panic!("case {fields}: {e}: {body}"));
        let error = doc.get("error").expect("error object");
        assert_eq!(
            error.get("field").and_then(Json::as_str),
            Some(*want_field),
            "case {fields}: {body}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(want_message),
            "case {fields}: message {message:?} missing {want_message:?}"
        );
    }
    // A missing `sweep` object is also named, even with everything else valid.
    let (status, body) = sweep(addr, &common::run_body(TINY_PARAM));
    assert_eq!(status, 400, "{body}");
    let doc = parse_json(&body).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("field"))
            .and_then(Json::as_str),
        Some("sweep")
    );
    handle.shutdown();
}

/// Every sweep frame's answer must match the pointwise `/v1/run` of the
/// same program with that point bound — same piecewise values, same `z`,
/// same rendered text up to the (deliberately omitted) stats bracket.
#[test]
fn sweep_frames_match_pointwise_runs() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let values = ["1/5", "1/3", "1/2", "4/5"];
    let grid = values
        .iter()
        .map(|v| format!("\"{v}\""))
        .collect::<Vec<_>>()
        .join(",");
    let (status, payload) = sweep(addr, &body_with(&format!("\"sweep\":{{\"P\":[{grid}]}}")));
    assert_eq!(status, 200, "{payload}");
    let frames = parse_frames(&payload);
    assert_eq!(frames.len(), values.len());

    for (i, (value, frame)) in values.iter().zip(&frames).enumerate() {
        assert_eq!(frame.index, i as u64, "frames arrive in grid order");
        assert_eq!(frame.status, 200);
        let body = parse_json(&frame.body).unwrap();
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            body.get("point")
                .and_then(|p| p.get("P"))
                .and_then(Json::as_str),
            Some(*value)
        );

        // The independent pointwise run.
        let run_req = Json::obj(vec![
            ("source", Json::Str(TINY_PARAM.into())),
            (
                "bindings",
                Json::obj(vec![("P", Json::Str((*value).into()))]),
            ),
        ])
        .to_string();
        let (run_status, _, run_payload) = common::http(addr, "POST", "/v1/run", &run_req);
        assert_eq!(run_status, 200, "{run_payload}");
        let run = parse_json(&run_payload).unwrap();

        for key in ["results", "z", "discarded"] {
            assert_eq!(
                body.get(key).map(|v| v.to_string()),
                run.get(key).map(|v| v.to_string()),
                "point {value}: `{key}` diverges from pointwise"
            );
        }
        // Sweep text = run text minus its trailing `[... stats ...]` line.
        let run_text = run.get("text").and_then(Json::as_str).unwrap();
        let stats_line = run_text.lines().last().unwrap();
        assert!(
            stats_line.starts_with('['),
            "unexpected run text: {run_text}"
        );
        let want_text = run_text.strip_suffix(&format!("{stats_line}\n")).unwrap();
        assert_eq!(
            body.get("text").and_then(Json::as_str),
            Some(want_text),
            "point {value}"
        );
    }
    handle.shutdown();
}

/// The metrics proof of prefix reuse (the whole point of the sweep engine):
/// a 16-point concrete sweep over the tiny parameterized program must
/// answer ≥ 15 points from the shared prefix, and its total expansion count
/// must be strictly below 16 independent runs.
#[test]
fn sixteen_point_sweep_reuses_its_prefix() {
    // Server 1: one pointwise run, to price a single exploration.
    let single = start(common::test_config()).expect("start server");
    let run_req = Json::obj(vec![
        ("source", Json::Str(TINY_PARAM.into())),
        ("bindings", Json::obj(vec![("P", Json::Str("1/17".into()))])),
    ])
    .to_string();
    let (status, _, payload) = common::http(single.addr(), "POST", "/v1/run", &run_req);
    assert_eq!(status, 200, "{payload}");
    let single_expansions = metric(
        &common::metrics(single.addr()),
        "bayonet_engine_expansions_total",
    );
    assert!(single_expansions > 0);
    single.shutdown();

    // Server 2 (fresh counters): the 16-point sweep over the same program.
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();
    let grid = (1..=16)
        .map(|k| format!("\"{k}/17\""))
        .collect::<Vec<_>>()
        .join(",");
    let (status, payload) = sweep(addr, &body_with(&format!("\"sweep\":{{\"P\":[{grid}]}}")));
    assert_eq!(status, 200, "{payload}");
    let frames = parse_frames(&payload);
    assert_eq!(frames.len(), 16);
    assert!(frames.iter().all(|f| f.status == 200), "{payload}");

    let text = common::metrics(addr);
    assert_eq!(metric(&text, "bayonet_sweep_points_total"), 16);
    assert_eq!(metric(&text, "bayonet_sweep_point_errors_total"), 0);
    let reused = metric(&text, "bayonet_sweep_prefix_reuse_total");
    assert!(
        reused >= 15,
        "only {reused} points reused the prefix:\n{text}"
    );
    let sweep_expansions = metric(&text, "bayonet_engine_expansions_total");
    assert!(
        sweep_expansions < 16 * single_expansions,
        "sweep did {sweep_expansions} expansions, not less than 16 × {single_expansions} \
         pointwise — no work was shared"
    );
    handle.shutdown();
}

/// A sweep whose parameter only the queries read costs one bound run: a
/// 16-point `K` sweep of the gossip example explores once, with the
/// symmetry reduction a pointwise run gets, and answers every point from it.
#[test]
fn query_only_sweep_costs_one_symmetric_run() {
    let source = include_str!("../../../examples/bay/gossip_k4_sweep.bay");

    // Server 1: one pointwise run, to price a single exploration.
    let single = start(common::test_config()).expect("start server");
    let run_req = Json::obj(vec![
        ("source", Json::Str(source.into())),
        ("bindings", Json::obj(vec![("K", Json::Num(2.0))])),
    ])
    .to_string();
    let (status, _, payload) = common::http(single.addr(), "POST", "/v1/run", &run_req);
    assert_eq!(status, 200, "{payload}");
    let single_expansions = metric(
        &common::metrics(single.addr()),
        "bayonet_engine_expansions_total",
    );
    single.shutdown();

    // Server 2 (fresh counters): the 16-point sweep.
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();
    let grid = (1..=16)
        .map(|k| k.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let body = format!(
        "{{\"source\":{},\"sweep\":{{\"K\":[{grid}]}}}}",
        Json::Str(source.into())
    );
    let (status, payload) = sweep(addr, &body);
    assert_eq!(status, 200, "{payload}");
    let frames = parse_frames(&payload);
    assert_eq!(frames.len(), 16);
    assert!(frames.iter().all(|f| f.status == 200), "{payload}");

    let text = common::metrics(addr);
    assert_eq!(
        metric(&text, "bayonet_engine_expansions_total"),
        single_expansions,
        "the sweep explored more than one bound run:\n{text}"
    );
    assert!(
        metric(&text, "bayonet_opt_orbit_states_merged_total") > 0,
        "the sweep explored without symmetry:\n{text}"
    );
    assert!(
        text.contains("bayonet_sweep_requests_total{route=\"prefix\"} 1\n"),
        "{text}"
    );
    handle.shutdown();
}

/// A repeated sweep is answered entirely from the per-point result cache:
/// identical frames, no new engine work.
#[test]
fn repeated_sweep_is_served_from_cache() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();
    let body = body_with("\"sweep\":{\"P\":[\"1/4\",\"1/2\",\"3/4\"]}");
    let (status, first) = sweep(addr, &body);
    assert_eq!(status, 200);
    let expansions_before = metric(&common::metrics(addr), "bayonet_engine_expansions_total");
    let (status, second) = sweep(addr, &body);
    assert_eq!(status, 200);
    assert_eq!(first, second, "cached sweep must replay identical frames");
    let text = common::metrics(addr);
    assert_eq!(
        metric(&text, "bayonet_engine_expansions_total"),
        expansions_before,
        "cached sweep must not re-run the engine"
    );
    assert!(text.contains("bayonet_sweep_requests_total{route=\"cached\"} 1"));
    handle.shutdown();
}

/// Parameter-free programs degenerate to a rejected request (there is
/// nothing to sweep), not a crash: the unknown-parameter validation fires.
#[test]
fn sweeping_an_undeclared_parameter_is_rejected() {
    let handle = start(common::test_config()).expect("start server");
    let source = Json::Str(TINY.into()).to_string();
    let body = format!("{{\"source\":{source},\"sweep\":{{\"P\":[1]}}}}");
    let (status, payload) = sweep(handle.addr(), &body);
    assert_eq!(status, 400, "{payload}");
    let doc = parse_json(&payload).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("field"))
            .and_then(Json::as_str),
        Some("sweep.P")
    );
    handle.shutdown();
}
