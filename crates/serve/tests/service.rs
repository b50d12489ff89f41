//! End-to-end tests of the HTTP server: a real `TcpListener` on an
//! ephemeral port, real sockets, concurrent clients — plus the
//! batch/sequential differential: for every example program, a 10-item
//! `/v1/batch` must be byte-identical per item to 10 individual `/v1/run`
//! calls, with the metrics proving the shared source compiled exactly once.

use std::path::PathBuf;
use std::time::Duration;

use bayonet_serve::{start, Json, ServerConfig};

mod common;
use common::{http, run_body, GOSSIP_K4, RARE_EVIDENCE, TINY};

#[test]
fn concurrent_clients_all_get_exact_answers() {
    let handle = start(ServerConfig {
        threads: 4,
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, _, body) = http(addr, "POST", "/v1/run", &run_body(TINY));
                (status, body)
            })
        })
        .collect();
    for client in clients {
        let (status, body) = client.join().expect("client thread");
        assert_eq!(status, 200, "{body}");
        let doc = bayonet_serve::parse_json(&body).expect("json body");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        let text = doc.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("1/3"), "{text}");
    }
    handle.shutdown();
}

#[test]
fn repeat_requests_hit_the_cache_per_metrics() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let (status, _, first) = http(addr, "POST", "/v1/run", &run_body(TINY));
    assert_eq!(status, 200, "{first}");
    let (status, _, second) = http(addr, "POST", "/v1/run", &run_body(TINY));
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second);

    let (status, head, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus content type: {head}"
    );
    // The second run was a cache hit: the engine ran exactly once.
    assert!(metrics.contains("bayonet_cache_hits_total 1"), "{metrics}");
    assert!(
        metrics.contains("bayonet_cache_misses_total 1"),
        "{metrics}"
    );
    // Prometheus text sanity: TYPE lines and nonzero counters.
    assert!(
        metrics.contains("# TYPE bayonet_requests_total counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains(r#"bayonet_requests_total{endpoint="/v1/run",status="200"} 2"#),
        "{metrics}"
    );
    assert!(
        metrics.contains("bayonet_engine_expansions_total"),
        "{metrics}"
    );
    handle.shutdown();
}

/// A minimal symbolic program: the forwarding decision compares two unbound
/// parameters, so exact inference trichotomizes on sign(C1 - C2) and
/// synthesis picks among the resulting cells.
const SYMBOLIC_COSTS: &str = r#"
    packet_fields { dst }
    parameters { C1, C2 }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> recv }
    init { packet -> (A, pt1); }
    query probability(got@B == 1);
    def send(pkt, pt) state r1(0), r2(0) {
        r1 = C1;
        r2 = C2;
        if r1 < r2 { fwd(1); } else { drop; }
    }
    def recv(pkt, pt) state got(0) { got = 1; drop; }
"#;

#[test]
fn synthesize_moves_feasibility_cache_metrics() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let before = common::metrics(addr);
    assert_eq!(
        common::metric(&before, "bayonet_engine_feasibility_hits_total"),
        0
    );
    assert_eq!(
        common::metric(&before, "bayonet_engine_feasibility_misses_total"),
        0
    );

    let (status, _, body) = http(addr, "POST", "/v1/synthesize", &run_body(SYMBOLIC_COSTS));
    assert_eq!(status, 200, "{body}");
    let doc = bayonet_serve::parse_json(&body).expect("json body");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));

    // The analysis pays elimination misses; the query-answering and
    // cell-enumeration passes revisit those guards and must hit.
    let after = common::metrics(addr);
    let hits = common::metric(&after, "bayonet_engine_feasibility_hits_total");
    let misses = common::metric(&after, "bayonet_engine_feasibility_misses_total");
    assert!(misses > 0, "expected elimination misses:\n{after}");
    assert!(hits > 0, "expected memoized hits:\n{after}");
    handle.shutdown();
}

#[test]
fn expired_deadline_returns_structured_timeout() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let body = Json::obj(vec![
        ("source", Json::Str(GOSSIP_K4.into())),
        ("timeout_ms", Json::Num(1.0)),
    ])
    .to_string();
    let (status, _, payload) = http(addr, "POST", "/v1/run", &body);
    assert_eq!(status, 504, "{payload}");
    let doc = bayonet_serve::parse_json(&payload).expect("json body");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let error = doc.get("error").unwrap();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("timeout"));
    assert!(
        error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("interrupted by deadline"),
        "{payload}"
    );
    handle.shutdown();
}

#[test]
fn overloaded_queue_sheds_load_with_503() {
    // One worker and a one-slot queue. Idle connections no longer occupy
    // workers under the event loop, so saturation takes genuinely slow
    // jobs: rejection-sampling runs sized far past what the per-request
    // deadline allows, each pinning the worker until its 504.
    let handle = start(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        cache_entries: 0, // identical slow requests must not hit the cache
        io_timeout: Duration::from_secs(30),
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    let slow_body = |seed: u64| {
        Json::obj(vec![
            ("source", Json::Str(RARE_EVIDENCE.into())),
            ("engine", Json::Str("rejection".into())),
            ("particles", Json::Num(100_000.0)),
            ("seed", Json::Num(seed as f64)),
            ("timeout_ms", Json::Num(3_000.0)),
        ])
        .to_string()
    };
    // Occupy the worker, then fill the queue's single slot.
    let busy: Vec<_> = (0..2)
        .map(|seed| {
            let body = slow_body(seed);
            let client = std::thread::spawn(move || http(addr, "POST", "/v1/run", &body));
            std::thread::sleep(Duration::from_millis(400));
            client
        })
        .collect();

    // The next request is shed by the event loop the moment it parses:
    // a fully framed 503, not queued latency.
    let (status, head, payload) = http(addr, "POST", "/v1/run", &run_body(TINY));
    assert_eq!(status, 503, "{payload}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(payload.contains(r#""kind":"overloaded""#), "{payload}");

    // The slow jobs run to their deadline and answer 504: shed load never
    // cancels accepted work.
    for client in busy {
        let (status, _, payload) = client.join().expect("slow client");
        assert_eq!(status, 504, "{payload}");
    }
    handle.shutdown();
}

/// Every curated example program, read from `examples/bay/`.
fn example_programs() -> Vec<(String, String)> {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // repo root
    dir.push("examples/bay");
    let mut programs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            (path.extension().is_some_and(|e| e == "bay")).then(|| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let source = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
                (name, source)
            })
        })
        .collect();
    programs.sort();
    assert!(
        !programs.is_empty(),
        "no example programs in {}",
        dir.display()
    );
    programs
}

/// The differential: for every example program, a 10-item batch against
/// one server must be byte-identical, item for item, to 10 individual
/// `/v1/run` calls against an *independent* server — and the batch
/// server's metrics must show exactly one compile per batch, with a
/// replayed batch served entirely from the result cache.
#[test]
fn batch_is_byte_identical_to_sequential_runs_for_every_example() {
    let batch_server = start(ServerConfig {
        threads: common::test_threads(),
        ..common::test_config()
    })
    .expect("start batch server");
    let sequential_server = start(common::test_config()).expect("start sequential server");

    let programs = example_programs();
    let mut expected_items = 0u64;
    for (round, (name, source)) in programs.iter().enumerate() {
        // `lossy_link.bay` and `fattree_k4.bay` sample `flip(P_LOSS)`,
        // which the exact engine only accepts with a concrete binding;
        // everything else runs symbolically. Bindings are part of the
        // cache key, so all ten items carry the same ones.
        let bindings = matches!(name.as_str(), "lossy_link.bay" | "fattree_k4.bay")
            .then_some(r#""bindings":{"P_LOSS":"1/10"}"#);
        // Ten items sharing one source. Odd items carry extra per-item
        // knobs (`timeout_ms`, `threads`) that must not change a byte of
        // the result — both are deliberately excluded from the cache key.
        let item_fields = |k: usize| {
            let mut fields: Vec<&str> = bindings.into_iter().collect();
            if k % 2 == 1 {
                fields.push(r#""timeout_ms":600000,"threads":2"#);
            }
            fields.join(",")
        };
        let items: Vec<String> = (0..10).map(|k| format!("{{{}}}", item_fields(k))).collect();
        let batch_body = format!(
            r#"{{"source":{},"items":[{}]}}"#,
            Json::Str(source.clone()),
            items.join(",")
        );
        let (status, payload) = common::post_batch(batch_server.addr(), &batch_body);
        assert_eq!(status, 200, "{name}: {payload}");
        let mut frames = common::parse_frames(&payload);
        assert_eq!(frames.len(), 10, "{name}: {payload}");
        frames.sort_by_key(|f| f.index);

        for (k, frame) in frames.iter().enumerate() {
            assert_eq!(frame.index, k as u64, "{name}: indices must cover 0..10");
            assert_eq!(frame.status, 200, "{name} item {k}: {}", frame.body);
            // The sequential call carries the identical per-item fields,
            // with the shared source inlined.
            let fields = item_fields(k);
            let run = if fields.is_empty() {
                run_body(source)
            } else {
                format!(r#"{{"source":{},{fields}}}"#, Json::Str(source.clone()))
            };
            let (status, _, sequential) = http(sequential_server.addr(), "POST", "/v1/run", &run);
            assert_eq!(status, 200, "{name} item {k}: {sequential}");
            assert_eq!(
                frame.body, sequential,
                "{name} item {k}: batch and sequential bytes diverged"
            );
        }

        // The shared source compiled exactly once per batch and the other
        // nine items reused it. Parallel lanes may race identical cache
        // keys (several items can miss before the first result lands), so
        // hit/miss counts are asserted by conservation, not exact split.
        let text = common::metrics(batch_server.addr());
        let rounds = (round + 1) as u64;
        expected_items += 10;
        assert_eq!(
            common::metric(&text, "bayonet_batch_compiles_total"),
            2 * rounds - 1,
            "{name}: expected exactly one compile per batch\n{text}"
        );
        assert_eq!(
            common::metric(&text, "bayonet_batch_source_reuse_total"),
            9 * (2 * rounds - 1),
            "{name}\n{text}"
        );
        let hits = common::metric(&text, "bayonet_cache_hits_total");
        let misses = common::metric(&text, "bayonet_cache_misses_total");
        assert_eq!(
            hits + misses,
            expected_items,
            "{name}: every item must be a hit or a miss\n{text}"
        );
        assert!(misses >= rounds, "{name}: at least one engine run\n{text}");
        assert_eq!(
            common::metric(&text, "bayonet_batch_item_errors_total"),
            0,
            "{name}\n{text}"
        );

        // Replaying the identical batch must not rerun the engine at all:
        // every item is a cache hit, and the bytes are unchanged.
        let (status, replay) = common::post_batch(batch_server.addr(), &batch_body);
        assert_eq!(status, 200, "{name} replay: {replay}");
        let mut replayed = common::parse_frames(&replay);
        replayed.sort_by_key(|f| f.index);
        assert_eq!(replayed.len(), 10, "{name} replay: {replay}");
        for (first, again) in frames.iter().zip(&replayed) {
            assert_eq!(
                first.body, again.body,
                "{name}: replayed batch diverged on item {}",
                first.index
            );
        }
        expected_items += 10;
        let text = common::metrics(batch_server.addr());
        assert_eq!(
            common::metric(&text, "bayonet_cache_misses_total"),
            misses,
            "{name}: replay must be served from cache\n{text}"
        );
        assert_eq!(
            common::metric(&text, "bayonet_cache_hits_total"),
            hits + 10,
            "{name}: replay must hit on all ten items\n{text}"
        );
        assert_eq!(
            common::metric(&text, "bayonet_batch_compiles_total"),
            2 * rounds,
            "{name}: replay still compiles its shared source once\n{text}"
        );
    }

    batch_server.shutdown();
    sequential_server.shutdown();
}

/// Mixed-engine batches also match their sequential counterparts and
/// stream distinct results per item.
#[test]
fn mixed_engine_batch_matches_sequential_runs() {
    let batch_server = start(common::test_config()).expect("start batch server");
    let sequential_server = start(common::test_config()).expect("start sequential server");

    let item_fields = [
        String::new(),
        r#""engine":"smc","particles":80,"seed":1"#.to_string(),
        r#""engine":"smc","particles":80,"seed":2"#.to_string(),
        r#""engine":"rejection","particles":80,"seed":1"#.to_string(),
    ];
    let items: Vec<String> = item_fields.iter().map(|f| format!("{{{f}}}")).collect();
    let batch_body = format!(
        r#"{{"source":{},"items":[{}]}}"#,
        Json::Str(TINY.into()),
        items.join(",")
    );
    let (status, payload) = common::post_batch(batch_server.addr(), &batch_body);
    assert_eq!(status, 200, "{payload}");
    let mut frames = common::parse_frames(&payload);
    frames.sort_by_key(|f| f.index);
    assert_eq!(frames.len(), 4);

    for (k, frame) in frames.iter().enumerate() {
        assert_eq!(frame.status, 200, "item {k}: {}", frame.body);
        let run = if item_fields[k].is_empty() {
            run_body(TINY)
        } else {
            format!(
                r#"{{"source":{},{}}}"#,
                Json::Str(TINY.into()),
                item_fields[k]
            )
        };
        let (status, _, sequential) = http(sequential_server.addr(), "POST", "/v1/run", &run);
        assert_eq!(status, 200, "item {k}: {sequential}");
        assert_eq!(frame.body, sequential, "item {k} diverged");
    }

    // Four distinct cache keys, one shared compile.
    let text = common::metrics(batch_server.addr());
    assert_eq!(common::metric(&text, "bayonet_batch_compiles_total"), 1);
    assert_eq!(common::metric(&text, "bayonet_batch_source_reuse_total"), 3);
    assert_eq!(common::metric(&text, "bayonet_cache_misses_total"), 4);

    batch_server.shutdown();
    sequential_server.shutdown();
}

#[test]
fn optimization_metrics_prove_symmetry_reduction() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    // Passes default on: the gossip run folds through the pipeline, and
    // its three interchangeable peers make the frontier canonicalization
    // actually merge states — the orbit counter must move.
    let (status, optimized) = common::post_run(addr, GOSSIP_K4);
    assert_eq!(status, 200, "{optimized}");
    let text = common::metrics(addr);
    assert!(
        common::metric(&text, "bayonet_opt_pass_runs_total") >= 1,
        "{text}"
    );
    let merged = common::metric(&text, "bayonet_opt_orbit_states_merged_total");
    assert!(merged > 0, "symmetry reduction merged no states:\n{text}");

    // Opting out answers identically but records no optimization work.
    let body = Json::obj(vec![
        ("source", Json::Str(GOSSIP_K4.into())),
        ("passes", Json::Bool(false)),
    ])
    .to_string();
    let (status, _, plain) = http(addr, "POST", "/v1/run", &body);
    assert_eq!(status, 200, "{plain}");
    // Identical up to the engine-stats bracket (which *should* shrink:
    // fewer expansions and a smaller peak under canonicalization).
    let posterior = |payload: &str| -> String {
        let doc = bayonet_serve::parse_json(payload).expect("json");
        let text = doc.get("text").and_then(Json::as_str).unwrap();
        text.lines()
            .filter(|l| !l.starts_with('['))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(posterior(&optimized), posterior(&plain));
    let after = common::metrics(addr);
    assert_eq!(
        common::metric(&after, "bayonet_opt_orbit_states_merged_total"),
        merged,
        "{after}"
    );
    handle.shutdown();
}
