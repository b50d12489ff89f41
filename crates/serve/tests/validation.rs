//! Table-driven request-validation tests: malformed `threads` and
//! `timeout_ms` values, `particles` over its maximum, unknown fields, and malformed `/v1/batch` bodies
//! must all produce structured `400` responses — never a panic, never a
//! half-written chunked body, and never a silent fall-back to a default.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bayonet_serve::{
    parse_json, start, Json, ServerConfig, MAX_BATCH_ITEMS, MAX_BODY_BYTES, MAX_PARTICLES,
};

mod common;
use common::TINY;

fn http(addr: SocketAddr, body: &str) -> (u16, String) {
    let (status, _, payload) = common::http(addr, "POST", "/v1/run", body);
    (status, payload)
}

/// Raw request body with `source` set to the tiny program and one extra
/// field spliced in verbatim (so the table can express wrong types,
/// fractions, and negatives that `Json` builders would normalize away).
fn body_with(field: &str) -> String {
    let source = Json::Str(TINY.into()).to_string();
    format!("{{\"source\":{source},{field}}}")
}

#[test]
fn malformed_knobs_are_structured_400s() {
    #[rustfmt::skip]
    let cases: &[(&str, &str)] = &[
        // (raw field, expected message fragment)
        ("\"threads\":0",            "`threads` must be between 1 and 64, got 0"),
        ("\"threads\":65",           "`threads` must be between 1 and 64, got 65"),
        ("\"threads\":1000000000",   "`threads` must be between 1 and 64"),
        ("\"threads\":-1",           "`threads` must be a nonnegative integer"),
        ("\"threads\":1.5",          "`threads` must be a nonnegative integer"),
        ("\"threads\":\"four\"",     "`threads` must be a nonnegative integer"),
        ("\"threads\":true",         "`threads` must be a nonnegative integer"),
        ("\"threads\":[2]",          "`threads` must be a nonnegative integer"),
        ("\"timeout_ms\":0",         "`timeout_ms` must be between 1 and 600000, got 0"),
        ("\"timeout_ms\":600001",    "`timeout_ms` must be between 1 and 600000"),
        ("\"timeout_ms\":-5",        "`timeout_ms` must be a nonnegative integer"),
        ("\"timeout_ms\":0.25",      "`timeout_ms` must be a nonnegative integer"),
        ("\"timeout_ms\":\"1s\"",    "`timeout_ms` must be a nonnegative integer"),
        ("\"timeout_ms\":{}",        "`timeout_ms` must be a nonnegative integer"),
        ("\"thread\":2",             "unknown request field `thread`"),
        ("\"particles\":100001",     "`particles` is 100001; the maximum is 100000"),
        ("\"particles\":1e11",       "`particles` is 100000000000; the maximum is 100000"),
    ];

    assert_eq!(MAX_PARTICLES, 100_000, "the particles cases encode the cap");
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    for (field, expected) in cases {
        let (status, body) = http(addr, &body_with(field));
        assert_eq!(status, 400, "case {field}: expected 400, got body {body}");
        let doc =
            parse_json(&body).unwrap_or_else(|e| panic!("case {field}: bad json {e}: {body}"));
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(false),
            "case {field}: {body}"
        );
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {field}: no error object: {body}"));
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "case {field}: {body}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(
            message.contains(expected),
            "case {field}: message {message:?} does not mention {expected:?}"
        );
    }

    handle.shutdown();
}

/// Unknown top-level fields (typos like `"cache": false`) must be loud
/// structured 400s, never silently ignored: the error names the offending
/// key both in the message and machine-readably in `error.field`.
#[test]
fn unknown_fields_are_named_structured_400s() {
    #[rustfmt::skip]
    let cases: &[(&str, &str)] = &[
        // (raw extra field, expected `error.field`)
        ("\"cache\":false",        "cache"),
        ("\"Source\":\"x\"",       "Source"),
        ("\"time_out_ms\":5",      "time_out_ms"),
        ("\"particle\":100",       "particle"),
        ("\"binding\":{}",         "binding"),
        ("\"extra\":null",         "extra"),
    ];

    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    for (field, name) in cases {
        let (status, body) = http(addr, &body_with(field));
        assert_eq!(status, 400, "case {field}: expected 400, got body {body}");
        let doc = parse_json(&body).expect("json body");
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {field}: no error object: {body}"));
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "case {field}: {body}"
        );
        assert_eq!(
            error.get("field").and_then(Json::as_str),
            Some(*name),
            "case {field}: {body}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(
            message.contains(&format!("unknown request field `{name}`")),
            "case {field}: message {message:?}"
        );
        // The message also lists the accepted fields, so a typo is
        // self-correcting from the error alone.
        assert!(
            message.contains("known fields: source, engine"),
            "{message}"
        );
    }

    // Known fields with the error-producing values spliced *as values* are
    // not unknown-field errors; sanity-check one to pin the distinction.
    let (status, body) = http(addr, &body_with("\"engine\":\"warp\""));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown engine"), "{body}");

    handle.shutdown();
}

/// A key repeated within one JSON object is a structured 400 naming the
/// key, whichever object it sits in: otherwise `bindings` would take the
/// last value while `engine` took the first.
#[test]
fn duplicate_keys_are_named_structured_400s() {
    let source = Json::Str(TINY.into()).to_string();
    #[rustfmt::skip]
    let cases: Vec<(&str, String, &str)> = vec![
        // (path, body, duplicated key)
        ("/v1/run",   format!(r#"{{"source":{source},"engine":"exact","engine":"smc"}}"#), "engine"),
        ("/v1/run",   format!(r#"{{"source":{source},"bindings":{{"P_LOSS":"1/2","P_LOSS":"1/4"}}}}"#), "P_LOSS"),
        ("/v1/run",   format!(r#"{{"source":{source},"source":{source}}}"#), "source"),
        ("/v1/check", format!(r#"{{"source":{source},"sourc\u0065":{source}}}"#), "source"),
        ("/v1/batch", format!(r#"{{"items":[{{"source":{source},"seed":1,"seed":2}}]}}"#), "seed"),
        ("/v1/sweep", format!(r#"{{"source":{source},"sweep":{{"K":[1],"K":[2]}}}}"#), "K"),
    ];

    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    for (path, body, key) in &cases {
        let (status, _, payload) = common::http(addr, "POST", path, body);
        assert_eq!(status, 400, "{path} {body}: got {payload}");
        let doc = parse_json(&payload).expect("json body");
        let error = doc.get("error").expect("error object");
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "{payload}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(
            message.contains(&format!("duplicate key `{key}`")),
            "{path} {body}: message {message:?}"
        );
    }

    handle.shutdown();
}

/// Every way `engine` can be wrong — unknown names, case mismatches,
/// empty strings, and non-string JSON values — is a structured 400 with
/// `error.field == "engine"` and a message that lists the known engines,
/// so the caller can fix the request from the error alone. The same table
/// is replayed as `/v1/batch` items, where the rejection must arrive as a
/// per-item 400 frame with the identical error shape.
#[test]
fn engine_validation_is_table_driven_across_run_and_batch() {
    #[rustfmt::skip]
    let cases: &[&str] = &[
        // Unknown engine names.
        "\"engine\":\"warp\"",
        "\"engine\":\"exhaustive\"",
        // Known names are matched case-sensitively and unpadded.
        "\"engine\":\"BDD\"",
        "\"engine\":\"Enum\"",
        "\"engine\":\" bdd\"",
        "\"engine\":\"\"",
        // Wrong JSON types are the same error, not a type error.
        "\"engine\":5",
        "\"engine\":null",
        "\"engine\":true",
        "\"engine\":[\"bdd\"]",
        "\"engine\":{\"name\":\"bdd\"}",
    ];

    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let check_error = |case: &str, error: &Json, body: &str| {
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "case {case}: {body}"
        );
        assert_eq!(
            error.get("field").and_then(Json::as_str),
            Some("engine"),
            "case {case}: {body}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains("unknown engine"), "case {case}: {message}");
        assert!(
            message.contains("known engines: exact, enum, bdd, smc, rejection, auto"),
            "case {case}: {message}"
        );
    };

    for case in cases {
        // `/v1/run`: a buffered structured 400.
        let (status, body) = http(addr, &body_with(case));
        assert_eq!(status, 400, "case {case}: {body}");
        let doc = parse_json(&body).unwrap_or_else(|e| panic!("case {case}: bad json {e}: {body}"));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {case}: no error object: {body}"));
        check_error(case, error, &body);

        // `/v1/batch`: the same table entry as an item-level field becomes
        // a per-item 400 frame; the healthy sibling item still completes.
        let source = Json::Str(TINY.into()).to_string();
        let batch = format!(r#"{{"source":{source},"items":[{{{case}}},{{}}]}}"#);
        let (status, payload) = common::post_batch(addr, &batch);
        assert_eq!(status, 200, "case {case}: {payload}");
        let frames = common::parse_frames(&payload);
        assert_eq!(frames.len(), 2, "case {case}: {payload}");
        let bad = frames.iter().find(|f| f.index == 0).unwrap();
        assert_eq!(bad.status, 400, "case {case}: {}", bad.body);
        let doc = parse_json(&bad.body).expect("frame body json");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {case}: frame has no error: {}", bad.body));
        check_error(case, error, &bad.body);
        let good = frames.iter().find(|f| f.index == 1).unwrap();
        assert_eq!(good.status, 200, "case {case}: {}", good.body);
    }

    // The accepted spellings, for contrast: each runs and echoes its
    // canonical engine name back (`enum` is an alias for `exact`).
    for (spelling, echoed) in [
        ("\"engine\":\"exact\"", "exact"),
        ("\"engine\":\"enum\"", "exact"),
        ("\"engine\":\"bdd\"", "bdd"),
    ] {
        let (status, body) = http(addr, &body_with(spelling));
        assert_eq!(status, 200, "case {spelling}: {body}");
        let doc = parse_json(&body).expect("json body");
        assert_eq!(
            doc.get("engine").and_then(Json::as_str),
            Some(echoed),
            "case {spelling}: {body}"
        );
        let text = doc.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("1/3"), "case {spelling}: {text}");
    }

    handle.shutdown();
}

#[test]
fn edge_values_are_accepted_not_rejected() {
    let handle = start(ServerConfig {
        threads: 2,
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    // Boundary values inside the contract must work; `threads` beyond the
    // pool is clamped (not rejected), and `null` means "not provided".
    for field in [
        "\"threads\":1",
        "\"threads\":64",
        "\"threads\":null",
        "\"timeout_ms\":600000",
        "\"timeout_ms\":null",
    ] {
        let (status, body) = http(addr, &body_with(field));
        assert_eq!(status, 200, "case {field}: {body}");
        let doc = parse_json(&body).expect("json body");
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "case {field}: {body}"
        );
        let text = doc.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("1/3"), "case {field}: {text}");
    }

    handle.shutdown();
}

/// Malformed `/v1/batch` bodies are rejected *before* any chunk is
/// written: a buffered 400 naming the offending field in `error.field`.
#[test]
fn malformed_batches_are_structured_400s() {
    let source = Json::Str(TINY.into()).to_string();
    let over_cap = format!(
        r#"{{"source":{source},"items":[{}]}}"#,
        vec!["{}"; MAX_BATCH_ITEMS + 1].join(",")
    );
    #[rustfmt::skip]
    let cases: &[(String, &str, &str)] = &[
        // (raw body, expected `error.field`, expected message fragment)
        (r#"{"items":[]}"#.into(), "items",
         "`items` must contain between 1 and 256 items, got 0"),
        (over_cap, "items",
         "`items` must contain between 1 and 256 items, got 257"),
        (format!(r#"{{"source":{source}}}"#), "items",
         "missing required array field `items`"),
        (format!(r#"{{"source":{source},"items":{{}}}}"#), "items",
         "`items` must be an array"),
        (format!(r#"{{"source":{source},"items":[{{}},4]}}"#), "items[1]",
         "batch item 1 must be a JSON object"),
        (format!(r#"{{"source":{source},"items":[{{"source":"x"}}]}}"#), "items[0].source",
         "batch item 0 sets `source` while the batch has a shared top-level `source`"),
        (format!(r#"{{"source":{source},"items":[{{}}],"engine":"smc"}}"#), "engine",
         "unknown batch field `engine`"),
        (format!(r#"{{"source":{source},"items":[{{}}],"timeout_ms":0}}"#), "timeout_ms",
         "`timeout_ms` must be between 1 and 600000, got 0"),
        (r#"{"source":7,"items":[{}]}"#.into(), "source",
         "`source` must be a string"),
    ];

    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    for (body, field, expected) in cases {
        let (status, payload) = common::post_batch(addr, body);
        assert_eq!(status, 400, "case {field}: got {status}: {payload}");
        let doc = parse_json(&payload)
            .unwrap_or_else(|e| panic!("case {field}: bad json {e}: {payload}"));
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {field}: no error object: {payload}"));
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "case {field}: {payload}"
        );
        assert_eq!(
            error.get("field").and_then(Json::as_str),
            Some(*field),
            "case {field}: {payload}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(
            message.contains(expected),
            "case {field}: message {message:?} does not mention {expected:?}"
        );
    }

    // None of the rejected batches may have recorded batch work.
    let text = common::metrics(addr);
    assert_eq!(common::metric(&text, "bayonet_batch_requests_total"), 0);
    assert_eq!(common::metric(&text, "bayonet_batch_items_total"), 0);

    handle.shutdown();
}

/// Per-item problems — unknown item fields, bad item types, a missing
/// source — become per-item error frames with the exact `/v1/run` error
/// shape, and never abort sibling items.
#[test]
fn invalid_items_fail_individually_without_aborting_siblings() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let source = Json::Str(TINY.into()).to_string();
    let body = format!(
        r#"{{"source":{source},"items":[{{}},{{"fuel":1}},{{"threads":0}},{{"engine":"warp"}}]}}"#
    );
    let (status, payload) = common::post_batch(addr, &body);
    assert_eq!(status, 200, "{payload}");
    let frames = common::parse_frames(&payload);
    assert_eq!(frames.len(), 4, "{payload}");

    let by_index = |i: u64| frames.iter().find(|f| f.index == i).unwrap();
    assert_eq!(by_index(0).status, 200, "{}", by_index(0).body);
    assert!(by_index(0).body.contains("1/3"), "{}", by_index(0).body);

    for (i, fragment) in [
        (1, "unknown request field `fuel`"),
        (2, "`threads` must be between 1 and 64, got 0"),
        (3, "unknown engine"),
    ] {
        let frame = by_index(i);
        assert_eq!(frame.status, 400, "{}", frame.body);
        let doc = parse_json(&frame.body).expect("frame body json");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let message = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("");
        assert!(
            message.contains(fragment),
            "item {i}: message {message:?} does not mention {fragment:?}"
        );
    }

    // An item with no source at all (and no shared source) gets the same
    // missing-field error a bare `/v1/run` would.
    let (status, payload) = common::post_batch(addr, r#"{"items":[{"seed":1}]}"#);
    assert_eq!(status, 200, "{payload}");
    let frames = common::parse_frames(&payload);
    assert_eq!(frames[0].status, 400);
    assert!(
        frames[0]
            .body
            .contains("missing required string field `source`"),
        "{}",
        frames[0].body
    );

    let text = common::metrics(addr);
    assert_eq!(common::metric(&text, "bayonet_batch_requests_total"), 2);
    assert_eq!(common::metric(&text, "bayonet_batch_items_total"), 5);
    assert_eq!(common::metric(&text, "bayonet_batch_item_errors_total"), 4);

    handle.shutdown();
}

/// POSTs `body` to `/v1/run` and returns `(status, payload)`, failing the
/// test if the whole reply has not arrived within `limit`.
fn post_within(addr: SocketAddr, body: &str, limit: Duration, name: &str) -> (u16, String) {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /v1/run HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).expect("write head");
    conn.write_all(body.as_bytes()).expect("write body");
    conn.set_read_timeout(Some(limit)).unwrap();
    let mut raw = Vec::new();
    if let Err(e) = conn.read_to_end(&mut raw) {
        panic!("{name}: no reply within {limit:?}: {e}");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < limit, "{name}: took {elapsed:?}");
    let raw = String::from_utf8(raw).expect("utf-8 reply");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    (status, payload.to_string())
}

/// Hostile bodies at the size limit get a structured answer quickly and
/// leave the server serving. A `source` that is one string of almost
/// `MAX_BODY_BYTES` decodes in linear time (per-character decoding was
/// quadratic and held a worker for minutes on it), and a body of bare
/// `[`s is refused before it can overflow the decoding thread's stack.
#[test]
fn bodies_at_the_size_limit_are_answered_promptly() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let long_source = common::run_body(&"x".repeat(MAX_BODY_BYTES - 64));
    let nested = "[".repeat(MAX_BODY_BYTES - 64);
    for (name, body, status, kind) in [
        ("long source", long_source, 422, "parse_error"),
        ("deep nesting", nested, 400, "bad_request"),
    ] {
        assert!(body.len() <= MAX_BODY_BYTES, "{name}: body over the limit");
        // Generous: linear decoding takes tens of milliseconds here, the
        // quadratic decoder took minutes.
        let (got, payload) = post_within(addr, &body, Duration::from_secs(10), name);
        let head: String = payload.chars().take(300).collect();
        assert_eq!(got, status, "{name}: {head}");
        let doc = parse_json(&payload).unwrap_or_else(|e| panic!("{name}: bad json {e}: {head}"));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(kind),
            "{name}: {head}"
        );

        let (health, _, text) = common::http(addr, "GET", "/healthz", "");
        assert_eq!(health, 200, "{name}: server stopped serving: {text}");
    }

    handle.shutdown();
}

/// A `/v1/run` body for [`TINY`] with its query replaced by `query`.
fn tiny_query(query: &str) -> String {
    common::run_body(&TINY.replace("query probability(got@B == 1);", query))
}

/// [`TINY`]'s query with its comparison wrapped in `parens` parentheses;
/// the comparison itself is one more nesting level.
fn nested_query(parens: usize) -> String {
    let (open, close) = ("(".repeat(parens), ")".repeat(parens));
    tiny_query(&format!("query probability({open}got@B == 1{close});"))
}

/// `.bay` nesting is bounded before it can overflow a worker's stack: a
/// program at the bound runs end to end on a worker, and deeper ones — up to
/// a body-sized run of `(` — are structured parse errors that leave the
/// server serving.
#[test]
fn source_nesting_is_bounded_on_workers() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let (status, body) = http(addr, &nested_query(bayonet_lang::MAX_NESTING - 1));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("1/3"), "{body}");

    let parens = "(".repeat(MAX_BODY_BYTES - TINY.len() - 64);
    for (name, body) in [
        ("700 levels", nested_query(700)),
        (
            "a body of parens",
            tiny_query(&format!("query probability({parens}")),
        ),
    ] {
        assert!(body.len() <= MAX_BODY_BYTES, "{name}: body over the limit");
        let (status, payload) = post_within(addr, &body, Duration::from_secs(30), name);
        let head: String = payload.chars().take(300).collect();
        assert_eq!(status, 422, "{name}: {head}");
        let doc = parse_json(&payload).unwrap_or_else(|e| panic!("{name}: bad json {e}: {head}"));
        let error = doc.get("error").expect("error object");
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("parse_error"),
            "{name}: {head}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains("nesting deeper than"), "{name}: {message}");

        let (health, _, text) = common::http(addr, "GET", "/healthz", "");
        assert_eq!(health, 200, "{name}: server stopped serving: {text}");
    }

    handle.shutdown();
}

/// [`TINY`] whose sender forwards only if a chain of `operators` `and`s
/// holds, tested inside blocks nested to the nesting bound: the deepest
/// shape measured for operator chains.
fn chained_send(operators: usize) -> String {
    let chain = vec!["flip(p)"; operators + 1].join(" and ");
    let levels = bayonet_lang::MAX_NESTING - 2;
    let body = format!(
        "{}if {chain} {{ fwd(1); }} else {{ drop; }}{}",
        "if 1 == 1 { ".repeat(levels),
        " }".repeat(levels)
    );
    TINY.replace(
        "def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }",
        &format!("def send(pkt, pt) state p(1/3) {{ {body} }}"),
    )
}

/// Operator chains are bounded on their own: a chain at
/// `MAX_OPERATORS` under blocks at `MAX_NESTING` runs end to end on a
/// worker with an exact and a sampling engine, and one more operator is a
/// structured parse error.
#[test]
fn operator_chains_are_bounded_on_workers() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();
    let at_bound = chained_send(bayonet_lang::MAX_OPERATORS);
    for engine in [None, Some("smc")] {
        let mut fields = vec![("source", Json::Str(at_bound.clone()))];
        if let Some(engine) = engine {
            fields.push(("engine", Json::Str(engine.into())));
            fields.push(("seed", Json::Num(1.0)));
        }
        let (status, body) = http(addr, &Json::obj(fields).to_string());
        assert_eq!(status, 200, "{engine:?}: {body}");
    }

    let (status, body) = http(
        addr,
        &common::run_body(&chained_send(bayonet_lang::MAX_OPERATORS + 1)),
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("parse_error"), "{body}");
    assert!(
        body.contains(&format!(
            "more than {} binary operators",
            bayonet_lang::MAX_OPERATORS
        )),
        "{body}"
    );
    let (health, _, text) = common::http(addr, "GET", "/healthz", "");
    assert_eq!(health, 200, "{text}");
    handle.shutdown();
}
