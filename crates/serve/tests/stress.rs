//! Stress tests for the event-loop serve core.
//!
//! Four legs: a big parallel request sharing the pool with a burst of
//! small requests; whole-batch shedding against a saturated worker pool;
//! connection-cap shedding with byte-clean 503 framing; and a
//! high-concurrency sweep against a real out-of-process server — 256
//! concurrent connections by default, the full 10 000 when
//! `BAYONET_STRESS_10K` is set (CI runs it in a dedicated job with a
//! raised fd limit). The sweep's contract: below the shed thresholds not
//! one response is dropped, and afterwards the
//! `bayonet_http_open_connections` gauge drains back down — the loop
//! reclaimed every fd.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bayonet_serve::{parse_json, start, Json, ServerConfig};

mod common;
use common::{metric_value, GOSSIP_K4, RARE_EVIDENCE, TINY};

/// A small two-node program, parameterized by the flip weight so each
/// burst request is a distinct cache entry (forcing real engine work).
fn small_program(k: u64) -> String {
    format!(
        r#"
        packet_fields {{ dst }}
        topology {{ nodes {{ A, B }} links {{ (A, pt1) <-> (B, pt1) }} }}
        programs {{ A -> send, B -> recv }}
        init {{ packet -> (A, pt1); }}
        query probability(got@B == 1);
        def send(pkt, pt) {{ if flip(1/{k}) {{ fwd(1); }} else {{ drop; }} }}
        def recv(pkt, pt) state got(0) {{ got = 1; drop; }}
    "#
    )
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, payload) = common::http(addr, method, path, body);
    (status, payload)
}

/// A `/v1/run` body that reliably pins a worker for ~3 s: rejection
/// sampling polls the deadline once per sample, so `timeout_ms` is
/// honored closely, while the particle budget alone would run far longer.
fn slow_body(seed: u64) -> String {
    format!(
        r#"{{"source":{},"engine":"rejection","particles":100000,"seed":{seed},"timeout_ms":3000}}"#,
        Json::Str(RARE_EVIDENCE.into())
    )
}

#[test]
fn big_parallel_request_and_small_burst_coexist() {
    let handle = start(ServerConfig {
        threads: 4,
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    // The big request asks for 8 workers; the server clamps it to the
    // 4-slot pool and lets it borrow whatever is idle.
    let big = std::thread::spawn(move || {
        let body = Json::obj(vec![
            ("source", Json::Str(GOSSIP_K4.into())),
            ("threads", Json::Num(8.0)),
        ])
        .to_string();
        http(addr, "POST", "/v1/run", &body)
    });

    // A burst of distinct small requests racing the big one.
    let burst: Vec<_> = (0..12)
        .map(|k| {
            std::thread::spawn(move || {
                let body = Json::obj(vec![("source", Json::Str(small_program(k + 2)))]).to_string();
                http(addr, "POST", "/v1/run", &body)
            })
        })
        .collect();

    for (k, client) in burst.into_iter().enumerate() {
        let (status, body) = client.join().expect("small client");
        // Small requests must never be shed or starved by the big one:
        // the queue is deep enough and the pool lease never blocks.
        assert_eq!(status, 200, "small request {k} failed: {body}");
        let doc = parse_json(&body).expect("json body");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }
    let (status, body) = big.join().expect("big client");
    assert_eq!(status, 200, "big request failed: {body}");
    let doc = parse_json(&body).expect("json body");
    let text = doc.get("text").and_then(Json::as_str).unwrap();
    assert!(text.contains("94/27"), "wrong posterior: {text}");

    // The pool saw the action: the big request was granted workers (only
    // leases that grant a slot count) and every slot was returned.
    let metrics = common::metrics(addr);
    assert_eq!(metric_value(&metrics, "bayonet_pool_workers_total"), 4.0);
    assert_eq!(metric_value(&metrics, "bayonet_pool_workers_busy"), 0.0);
    assert!(
        metric_value(&metrics, "bayonet_pool_leases_total") >= 1.0,
        "the big request never engaged parallel expansion:\n{metrics}"
    );

    handle.shutdown();
}

/// Concurrent batches against a saturated pool: every shed batch gets a
/// complete, buffered `503` (never chunked, never truncated), and after
/// the pool frees up a batch completes with well-formed chunked framing
/// all the way to the terminal zero chunk.
#[test]
fn saturated_pool_sheds_whole_batches_then_recovers() {
    // One worker and a one-slot queue make saturation deterministic even
    // on a loaded host; `BAYONET_TEST_THREADS` instead drives the per-item
    // `threads` knob of the recovery batch below.
    let handle = start(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        cache_entries: 0,
        io_timeout: Duration::from_secs(30),
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    // Saturate: one slow rejection job pins the single worker; a second
    // fills the queue's only slot. Distinct seeds keep them apart even if
    // a result cache were in play.
    let worker_job = std::thread::spawn(move || http(addr, "POST", "/v1/run", &slow_body(1)));
    std::thread::sleep(Duration::from_millis(500));
    let queued_job = std::thread::spawn(move || http(addr, "POST", "/v1/run", &slow_body(2)));
    std::thread::sleep(Duration::from_millis(300));

    // Three concurrent batch clients hit the saturated server. The event
    // loop parses each request, finds the job queue full at dispatch, and
    // sheds — *before any worker is involved*, so a rejected batch can
    // never have started a chunked body. Each client must see a complete
    // buffered 503: a Content-Length, no Transfer-Encoding, and a JSON
    // body that parses whole.
    let batch_body = format!(
        r#"{{"source":{},"items":[{{}},{{}},{{}}]}}"#,
        Json::Str(TINY.into())
    );
    let shed: Vec<_> = (0..3)
        .map(|_| {
            let body = batch_body.clone();
            std::thread::spawn(move || common::http(addr, "POST", "/v1/batch", &body))
        })
        .collect();
    for client in shed {
        let (status, head, payload) = client.join().expect("shed client");
        assert_eq!(status, 503, "{head}\n{payload}");
        assert!(head.contains("Content-Length:"), "{head}");
        assert!(head.contains("Retry-After: 1"), "{head}");
        assert!(
            !head.contains("Transfer-Encoding"),
            "a shed batch must never start a chunked body: {head}"
        );
        let doc = parse_json(&payload).expect("shed body parses whole");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded"),
            "{head}\n{payload}"
        );
    }

    // The saturating jobs run to their 3 s deadline and come back 504 —
    // they were never cut off by the shedding around them.
    for client in [worker_job, queued_job] {
        let (status, body) = client.join().expect("slow client");
        assert_eq!(status, 504, "{body}");
    }

    // A batch now completes — with `BAYONET_TEST_THREADS` driving the
    // items' exact-engine parallelism — and the raw wire bytes are
    // verified as well-formed chunked framing ending in the terminal zero
    // chunk (decode_chunked panics on any truncated or malformed chunk).
    // Worker drain is asynchronous, so poll through any residual 503s.
    let recovery_body = format!(
        r#"{{"source":{},"items":[{{"threads":{t}}},{{"threads":{t}}},{{"threads":{t}}}]}}"#,
        Json::Str(TINY.into()),
        t = common::test_threads().min(64)
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let (status, head, payload) = loop {
        let resp = common::http(addr, "POST", "/v1/batch", &recovery_body);
        if resp.0 != 503 || std::time::Instant::now() >= deadline {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status, 200, "{payload}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(
        payload.ends_with("0\r\n\r\n"),
        "missing terminal chunk: {payload:?}"
    );
    let frames = common::parse_frames(&common::decode_chunked(&payload));
    assert_eq!(frames.len(), 3, "{payload}");
    for frame in &frames {
        assert_eq!(frame.status, 200, "{}", frame.body);
        assert!(frame.body.contains("1/3"), "{}", frame.body);
    }

    // Shed batches recorded no batch work; the successful one recorded
    // exactly one. The loop counted each shed.
    let metrics = common::metrics(addr);
    assert_eq!(metric_value(&metrics, "bayonet_batch_requests_total"), 1.0);
    assert_eq!(metric_value(&metrics, "bayonet_batch_items_total"), 3.0);
    assert!(
        metric_value(&metrics, "bayonet_http_conn_shed_total") >= 3.0,
        "{metrics}"
    );

    handle.shutdown();
}

/// Above the connection cap the loop sheds *at accept* with the same
/// byte-clean buffered 503 framing as a queue shed, and recovers the
/// moment held connections drain.
#[test]
fn connection_cap_sheds_with_clean_503_framing() {
    let handle = start(ServerConfig {
        max_connections: 8,
        io_timeout: Duration::from_secs(10),
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    // Fill the cap with idle held connections.
    let held: Vec<TcpStream> = (0..8)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("held connect {i}: {e}")))
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    // Every connection above the cap gets a complete buffered 503 and a
    // clean close — without sending a single request byte.
    for k in 0..4 {
        let mut conn = TcpStream::connect(addr).expect("overflow connection");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw)
            .unwrap_or_else(|e| panic!("overflow read {k}: {e}"));
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
        assert!(raw.contains("Content-Length:"), "{raw}");
        assert!(raw.contains("Retry-After: 1"), "{raw}");
        assert!(!raw.contains("Transfer-Encoding"), "{raw}");
        let (_, payload) = raw.split_once("\r\n\r\n").expect("head/body split");
        let doc = parse_json(payload).expect("shed body parses whole");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded"),
            "{raw}"
        );
    }

    // Release the held slots; the loop reaps the EOFs and admits work
    // again.
    drop(held);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (status, body) = loop {
        let resp = common::post_run(addr, TINY);
        if resp.0 != 503 || std::time::Instant::now() >= deadline {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status, 200, "server never recovered from the cap: {body}");

    let metrics = common::metrics(addr);
    assert!(
        metric_value(&metrics, "bayonet_http_conn_shed_total") >= 4.0,
        "{metrics}"
    );

    handle.shutdown();
}

/// The headline sweep: N concurrent connections against a real
/// out-of-process server, every one answered, every fd reclaimed.
/// N = 256 by default; `BAYONET_STRESS_10K` raises it to 10 000 (run in
/// CI with `ulimit -n` raised on both sides).
#[test]
fn high_concurrency_sweep_no_drops_no_leaks() {
    let n: usize = match std::env::var("BAYONET_STRESS_10K") {
        Ok(v) if !v.is_empty() && v != "0" => 10_000,
        _ => 256,
    };
    // The client side holds N sockets too: lift our own fd ceiling.
    let _ = bayonet_net::raise_nofile_limit();

    let served = common::Served::spawn(
        env!("CARGO_BIN_EXE_bayonet-served"),
        &[
            "--threads",
            "2",
            "--queue",
            "20000",
            "--io-timeout-ms",
            "120000",
            "--max-connections",
            "16384",
        ],
    );
    let addr = served.addr;

    // Phase 1: open all N connections, each immediately sending its
    // request so the read deadline never bites a socket we dawdled on.
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        let mut conn =
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i} of {n}: {e}"));
        conn.set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: stress\r\n\r\n")
            .unwrap_or_else(|e| panic!("write {i} of {n}: {e}"));
        conns.push(conn);
    }

    // Phase 2: collect. Below the shed thresholds (cap 16384, queue
    // 20000) the server owes every single connection a complete 200 —
    // zero drops, zero resets, zero truncations.
    for (i, mut conn) in conns.into_iter().enumerate() {
        let mut raw = String::new();
        conn.read_to_string(&mut raw)
            .unwrap_or_else(|e| panic!("response {i} of {n} dropped: {e}"));
        assert!(raw.starts_with("HTTP/1.1 200"), "response {i}: {raw}");
        assert!(raw.contains(r#""status":"ok""#), "response {i}: {raw}");
    }

    // Phase 3: the fd-leak check. Every client socket is gone; the gauge
    // must drain to exactly the one connection doing the scraping.
    common::await_open_connections(addr, 1.0, Duration::from_secs(30));
    let metrics = common::metrics(addr);
    assert!(
        metric_value(&metrics, "bayonet_http_accepted_total") >= n as f64,
        "{metrics}"
    );
    assert!(
        metric_value(&metrics, "bayonet_http_loop_wakeups_total") > 0.0,
        "{metrics}"
    );

    served.stop();
}
