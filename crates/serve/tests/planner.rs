//! End-to-end tests of `"engine": "auto"`: the cost-model planner routes
//! requests to a concrete engine before any engine work, rejects
//! over-budget requests with a structured 422, shares cache entries with
//! explicitly-routed requests in both directions, and plans `/v1/batch`
//! items independently while still amortizing the shared compile.

use bayonet_serve::{parse_json, start, Json, Request, Service};

mod common;
use common::{http, metric, metrics, parse_frames, post_batch, GOSSIP_K4, TINY};

const TTL_TRIANGLE: &str = include_str!("../../../examples/bay/ttl_triangle.bay");
const FATTREE_K4: &str = include_str!("../../../examples/bay/fattree_k4.bay");

fn run_auto(source: &str) -> String {
    Json::obj(vec![
        ("source", Json::Str(source.into())),
        ("engine", Json::Str("auto".into())),
    ])
    .to_string()
}

/// An auto request with the pass pipeline turned off.
fn run_auto_no_passes(source: &str) -> String {
    Json::obj(vec![
        ("source", Json::Str(source.into())),
        ("engine", Json::Str("auto".into())),
        ("passes", Json::Bool(false)),
    ])
    .to_string()
}

fn engine_of(body: &str) -> String {
    parse_json(body)
        .expect("json body")
        .get("engine")
        .and_then(Json::as_str)
        .expect("engine field")
        .to_string()
}

/// Auto routes the tiny program, gossip on K4, and gossip on K4 without the
/// passes to plain enumeration: even with no symmetry canonicalization,
/// enumeration over interned node configurations measured faster than the
/// diagram's program sharing. Every decision and the predicted-vs-actual
/// cost ratio are visible on `/metrics`.
#[test]
fn auto_routes_by_cost_and_reports_decisions() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let (status, _, tiny) = http(addr, "POST", "/v1/run", &run_auto(TINY));
    assert_eq!(status, 200, "{tiny}");
    assert_eq!(engine_of(&tiny), "exact");

    let (status, _, gossip) = http(addr, "POST", "/v1/run", &run_auto(GOSSIP_K4));
    assert_eq!(status, 200, "{gossip}");
    assert_eq!(engine_of(&gossip), "exact");

    let (status, _, unoptimized) = http(addr, "POST", "/v1/run", &run_auto_no_passes(GOSSIP_K4));
    assert_eq!(status, 200, "{unoptimized}");
    assert_eq!(engine_of(&unoptimized), "exact");

    let text = metrics(addr);
    assert_eq!(
        metric(&text, r#"bayonet_planner_decisions_total{engine="exact"}"#),
        3,
        "{text}"
    );
    assert!(
        !text.contains(r#"bayonet_planner_decisions_total{engine="bdd"}"#),
        "{text}"
    );
    assert_eq!(metric(&text, "bayonet_planner_rejections_total"), 0);
    // Every run missed the cache, so each recorded an actual/predicted
    // wall-clock ratio.
    assert_eq!(metric(&text, "bayonet_planner_cost_ratio_count"), 3);
    assert!(
        common::metric_value(&text, "bayonet_planner_cost_ratio_sum") > 0.0,
        "{text}"
    );
    handle.shutdown();
}

/// The posterior an auto-routed request returns is byte-identical to the
/// same program run with the chosen engine spelled out — proven across
/// independent servers so no cache can smooth over a divergence.
#[test]
fn auto_posterior_is_bit_identical_to_explicit_engine() {
    let auto_server = start(common::test_config()).expect("start auto server");
    let explicit_server = start(common::test_config()).expect("start explicit server");

    for (source, engine) in [(TINY, "exact"), (GOSSIP_K4, "exact")] {
        let (status, _, auto_body) = http(auto_server.addr(), "POST", "/v1/run", &run_auto(source));
        assert_eq!(status, 200, "{auto_body}");
        let explicit = Json::obj(vec![
            ("source", Json::Str(source.into())),
            ("engine", Json::Str(engine.into())),
        ])
        .to_string();
        let (status, _, explicit_body) = http(explicit_server.addr(), "POST", "/v1/run", &explicit);
        assert_eq!(status, 200, "{explicit_body}");
        assert_eq!(
            auto_body, explicit_body,
            "auto and explicit {engine} diverged for {source:?}"
        );
    }
    auto_server.shutdown();
    explicit_server.shutdown();
}

/// A budget no engine can meet is rejected with a structured 422 *before*
/// any engine work: the error carries the planner's estimates and the
/// engine counters stay at zero.
#[test]
fn over_budget_auto_request_gets_structured_422_before_engine_work() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let body = Json::obj(vec![
        ("source", Json::Str(GOSSIP_K4.into())),
        ("engine", Json::Str("auto".into())),
        ("timeout_ms", Json::Num(1.0)),
    ])
    .to_string();
    let (status, _, payload) = http(addr, "POST", "/v1/run", &body);
    assert_eq!(status, 422, "{payload}");
    let doc = parse_json(&payload).expect("json body");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let error = doc.get("error").expect("error object");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("infeasible_deadline"),
        "{payload}"
    );
    assert_eq!(
        error.get("field").and_then(Json::as_str),
        Some("timeout_ms"),
        "{payload}"
    );
    let plan = error.get("plan").expect("plan object in 422");
    let needed = plan
        .get("needed_ms")
        .and_then(Json::as_f64)
        .expect("needed_ms");
    let budget = plan
        .get("budget_ms")
        .and_then(Json::as_f64)
        .expect("budget_ms");
    assert!(needed > budget, "{payload}");
    assert!(
        plan.get("est_expansions")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "{payload}"
    );

    let text = metrics(addr);
    assert_eq!(metric(&text, "bayonet_planner_rejections_total"), 1);
    assert_eq!(
        metric(&text, "bayonet_engine_expansions_total"),
        0,
        "rejection must happen before any engine work\n{text}"
    );
    assert!(
        !text.contains("bayonet_planner_decisions_total{"),
        "no decision may be recorded for a rejected request\n{text}"
    );
    handle.shutdown();
}

/// Regression test for the cache-key identity, in both orders: an
/// auto-routed result and the same program with the chosen engine explicit
/// must occupy one cache entry, whichever arrives first.
#[test]
fn auto_and_explicit_share_one_cache_entry_both_orders() {
    let explicit = Json::obj(vec![
        ("source", Json::Str(GOSSIP_K4.into())),
        ("engine", Json::Str("exact".into())),
    ])
    .to_string();

    // Order 1: auto first, explicit second.
    let handle = start(common::test_config()).expect("start server");
    let (status, _, first) = http(handle.addr(), "POST", "/v1/run", &run_auto(GOSSIP_K4));
    assert_eq!(status, 200, "{first}");
    let (status, _, second) = http(handle.addr(), "POST", "/v1/run", &explicit);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second);
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 1, "{text}");
    assert_eq!(metric(&text, "bayonet_cache_misses_total"), 1, "{text}");
    handle.shutdown();

    // Order 2: explicit first, auto second.
    let handle = start(common::test_config()).expect("start server");
    let (status, _, first) = http(handle.addr(), "POST", "/v1/run", &explicit);
    assert_eq!(status, 200, "{first}");
    let (status, _, second) = http(handle.addr(), "POST", "/v1/run", &run_auto(GOSSIP_K4));
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second);
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 1, "{text}");
    assert_eq!(metric(&text, "bayonet_cache_misses_total"), 1, "{text}");
    // The default engine IS exact, so a bare request and an auto-routed
    // tiny program also land on one entry.
    let (status, _, bare) = http(handle.addr(), "POST", "/v1/run", &common::run_body(TINY));
    assert_eq!(status, 200, "{bare}");
    let (status, _, auto) = http(handle.addr(), "POST", "/v1/run", &run_auto(TINY));
    assert_eq!(status, 200, "{auto}");
    assert_eq!(bare, auto);
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 2, "{text}");
    assert_eq!(metric(&text, "bayonet_cache_misses_total"), 2, "{text}");
    handle.shutdown();
}

/// `/v1/batch` items with `"engine": "auto"` plan **per item**: the shared
/// source compiles once, but a per-item source override routes on its own
/// signals, and an over-budget item is rejected with the same structured
/// 422 a single request gets — without sinking the rest of the batch.
#[test]
fn batch_auto_items_plan_independently() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    // A shared top-level `source` forbids per-item overrides, so every
    // item carries its own; the scan phase still compiles each distinct
    // canonical program exactly once.
    let gossip = Json::Str(GOSSIP_K4.into());
    let tiny = Json::Str(TINY.into());
    let batch = format!(
        r#"{{"items":[{{"source":{gossip},"engine":"auto"}},{{"source":{gossip},"engine":"exact"}},{{"source":{tiny},"engine":"auto"}},{{"source":{gossip},"engine":"auto","timeout_ms":1}}]}}"#,
    );
    let (status, payload) = post_batch(addr, &batch);
    assert_eq!(status, 200, "{payload}");
    let mut frames = parse_frames(&payload);
    assert_eq!(frames.len(), 4, "{payload}");
    frames.sort_by_key(|f| f.index);

    // Item 0 (auto) and item 1 (explicit exact) are the same cache entry.
    assert_eq!(frames[0].status, 200, "{}", frames[0].body);
    assert_eq!(frames[1].status, 200, "{}", frames[1].body);
    assert_eq!(frames[0].body, frames[1].body);
    assert_eq!(engine_of(&frames[0].body), "exact");

    // Item 2's per-item source is tiny: independent routing to exact.
    assert_eq!(frames[2].status, 200, "{}", frames[2].body);
    assert_eq!(engine_of(&frames[2].body), "exact");

    // Item 3's 1 ms budget is infeasible for gossip: structured 422 in its
    // frame, everything else unharmed.
    assert_eq!(frames[3].status, 422, "{}", frames[3].body);
    let doc = parse_json(&frames[3].body).expect("frame body json");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("infeasible_deadline"),
        "{}",
        frames[3].body
    );

    let text = metrics(addr);
    // Two distinct canonical programs, two compiles — the three gossip
    // items shared one.
    assert_eq!(metric(&text, "bayonet_batch_compiles_total"), 2, "{text}");
    // Three auto items planned: two routed to exact (gossip and tiny),
    // one rejected.
    assert_eq!(
        metric(&text, r#"bayonet_planner_decisions_total{engine="exact"}"#),
        2,
        "{text}"
    );
    assert_eq!(
        metric(&text, "bayonet_planner_rejections_total"),
        1,
        "{text}"
    );
    handle.shutdown();
}

/// The same auto-routed request plans identically whether it arrives on
/// `/v1/run` or as a `/v1/batch` item: both plan against the optimized,
/// bound model. Only `budget_ms` may differ, because a batch item's budget
/// is what remains of the batch's time.
#[test]
fn run_and_batch_items_plan_identically() {
    let plan_of = |path: &str, body: String| -> (u16, Json) {
        let service = Service::new(0);
        let resp = service.handle(&Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        });
        let text = String::from_utf8(resp.body).expect("utf-8 body");
        if path == "/v1/batch" {
            let frame = parse_frames(&text).remove(0);
            (frame.status, parse_json(&frame.body).expect("frame json"))
        } else {
            (resp.status, parse_json(&text).expect("json body"))
        }
    };
    let item = |source: &str| {
        Json::obj(vec![
            ("source", Json::Str(source.into())),
            ("engine", Json::Str("auto".into())),
            ("timeout_ms", Json::Num(1.0)),
        ])
    };
    let both = |source: &str| {
        let run = plan_of("/v1/run", item(source).to_string());
        let batch = plan_of(
            "/v1/batch",
            Json::obj(vec![("items", Json::Arr(vec![item(source)]))]).to_string(),
        );
        (run, batch)
    };
    let kind = |doc: &Json| {
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };

    let ((run_status, run), (batch_status, batch)) = both(GOSSIP_K4);
    assert_eq!(run_status, 422, "{run}");
    assert_eq!(batch_status, 422, "{batch}");
    assert_eq!(kind(&run).as_deref(), Some("infeasible_deadline"), "{run}");
    assert_eq!(kind(&batch), kind(&run), "{batch}");
    let plan = |doc: &Json, key: &str| {
        doc.get("error")
            .and_then(|e| e.get("plan"))
            .and_then(|p| p.get(key))
            .map(Json::to_string)
    };
    for key in ["needed_ms", "est_enum_ms", "est_smc_ms"] {
        assert!(plan(&run, key).is_some(), "{key} missing: {run}");
        assert_eq!(
            plan(&batch, key),
            plan(&run, key),
            "{key}: {batch} vs {run}"
        );
    }

    // The triangle is cheap enough for the budget on the optimized model,
    // so neither endpoint may refuse it up front.
    let ((_, run), (_, batch)) = both(TTL_TRIANGLE);
    for doc in [&run, &batch] {
        assert_ne!(kind(doc).as_deref(), Some("infeasible_deadline"), "{doc}");
    }
}

/// A fat-tree flow is one packet end to end, so the scheduler never
/// branches and the exact run is tiny (about a dozen expansions). A 50 ms
/// budget must admit it on the exact engine, not refuse it or fall back to
/// sampling.
#[test]
fn single_packet_fattree_fits_a_tight_deadline_exactly() {
    let body = Json::obj(vec![
        ("source", Json::Str(FATTREE_K4.into())),
        ("engine", Json::Str("auto".into())),
        (
            "bindings",
            Json::obj(vec![("P_LOSS", Json::Str("1/10".into()))]),
        ),
        ("timeout_ms", Json::Num(50.0)),
    ])
    .to_string();
    let resp = Service::new(0).handle(&Request {
        method: "POST".into(),
        path: "/v1/run".into(),
        headers: Vec::new(),
        body: body.into_bytes(),
    });
    let text = String::from_utf8(resp.body).expect("utf-8 body");
    assert_eq!(resp.status, 200, "{text}");
    assert_eq!(engine_of(&text), "exact");
}
