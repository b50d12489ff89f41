//! Slow-loris and torn-request hardening for the event loop.
//!
//! The read deadline is fixed at accept — trickling bytes cannot extend
//! it — so a loris connection is killed with a `408` no matter how
//! diligently it drips. A half-closed connection with a truncated head
//! gets a `400`. A client that vanishes mid-streamed-batch cancels the
//! batch via the producer's `BrokenPipe` instead of wedging a worker. A
//! client still streaming an oversized body reads the whole `413` and a
//! clean EOF, not a reset.
//! After each abuse the suite proves the loop is still alive (a normal
//! request round-trips) and that no fd leaked (the
//! `bayonet_http_open_connections` gauge drains to the scraper's own 1).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use bayonet_serve::{start, Json, ServerConfig};

mod common;
use common::{metric_value, RARE_EVIDENCE, TINY};

#[test]
fn slow_loris_trickle_times_out_without_wedging_the_loop() {
    let handle = start(ServerConfig {
        io_timeout: Duration::from_millis(600),
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    // The loris: dribble one header byte at a time, forever. The writer
    // thread keeps dripping until the server hangs up on it.
    let mut conn = TcpStream::connect(addr).expect("loris connection");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = conn.try_clone().expect("clone for writer");
    let dripper = std::thread::spawn(move || {
        for byte in b"POST /v1/run HTTP/1.1\r\nHost: loris\r\nContent-Length: 999\r\nX-Drip: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
        {
            if writer.write_all(&[*byte]).is_err() {
                return; // server gave up on us — mission accomplished
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    // The read deadline is anchored at accept, so the 408 arrives after
    // ~600 ms regardless of the dripping.
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 408 response");
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");
    assert!(raw.contains(r#""kind":"timeout""#), "{raw}");
    dripper.join().expect("dripper thread");

    // The loop is alive and the kill was accounted for.
    let (status, body) = common::post_run(addr, TINY);
    assert_eq!(status, 200, "loop wedged after loris: {body}");
    let metrics = common::metrics(addr);
    assert!(
        metric_value(&metrics, "bayonet_http_read_timeouts_total") >= 1.0,
        "{metrics}"
    );
    common::await_open_connections(addr, 1.0, Duration::from_secs(10));

    handle.shutdown();
}

#[test]
fn torn_request_head_answered_400_and_fd_reclaimed() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    // Send half a request head, then half-close: the server sees EOF with
    // an incomplete parse and must answer a clean 400, not hang waiting
    // for bytes that will never come (the default read deadline is 30 s —
    // far beyond this test's patience).
    let mut conn = TcpStream::connect(addr).expect("torn connection");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"POST /v1/run HTTP/1.1\r\nHost: torn\r\nContent-Le")
        .expect("write torn head");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 400 response");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("truncated request head"), "{raw}");
    drop(conn);

    // Same for a complete head whose body never fully arrives.
    let mut conn = TcpStream::connect(addr).expect("torn body connection");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"POST /v1/run HTTP/1.1\r\nHost: torn\r\nContent-Length: 50\r\n\r\n{\"sou")
        .expect("write torn body");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 400 response");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    drop(conn);

    // A bare probe (connect, say nothing, hang up) is not an error at
    // all — just a reclaimed fd.
    drop(TcpStream::connect(addr).expect("probe connection"));

    let (status, body) = common::post_run(addr, TINY);
    assert_eq!(status, 200, "loop wedged after torn requests: {body}");
    common::await_open_connections(addr, 1.0, Duration::from_secs(10));

    handle.shutdown();
}

#[test]
fn oversized_body_gets_a_whole_413_then_a_clean_eof() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    // Each client declares a body past `MAX_BODY_BYTES` and keeps streaming
    // it while the server answers 413 from the head alone, so the server
    // closes with unread input pending. It must half-close first: a bare
    // close of such a socket sends a reset, and the client would see
    // `ECONNRESET` instead of the end of the response.
    const BODY: usize = 5 * 1024 * 1024;
    for client in 0..10 {
        let mut conn = TcpStream::connect(addr).expect("streaming connection");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = conn.try_clone().expect("clone for writer");
        let streamer = std::thread::spawn(move || {
            let head =
                format!("POST /v1/run HTTP/1.1\r\nHost: big\r\nContent-Length: {BODY}\r\n\r\n");
            if writer.write_all(head.as_bytes()).is_err() {
                return;
            }
            let chunk = [b' '; 64 * 1024];
            for _ in 0..BODY / chunk.len() {
                if writer.write_all(&chunk).is_err() {
                    return; // the server hung up, as it should
                }
            }
        });

        let mut raw = Vec::new();
        let read = conn.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw);
        assert!(
            read.is_ok(),
            "client {client}: {read:?} after reading {text:?}"
        );
        assert!(text.starts_with("HTTP/1.1 413"), "client {client}: {text}");
        assert!(
            text.contains(r#""kind":"too_large""#),
            "client {client}: {text}"
        );
        drop(conn);
        streamer.join().expect("streamer thread");
    }

    let (status, body) = common::post_run(addr, TINY);
    assert_eq!(status, 200, "loop wedged after oversized bodies: {body}");
    common::await_open_connections(addr, 1.0, Duration::from_secs(10));

    handle.shutdown();
}

#[test]
fn client_disconnect_mid_batch_cancels_cleanly() {
    let handle = start(ServerConfig {
        threads: 1,
        io_timeout: Duration::from_secs(30),
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    // A streamed batch of slow items. The first item pins the worker for
    // ~3 s; the client vanishes long before the first frame is ready, so
    // the loop tears the connection down and the worker's next frame
    // write fails with `BrokenPipe` — cancelling the remaining items
    // instead of grinding through them for a dead client.
    let slow_item = |seed: u64| {
        format!(r#"{{"engine":"rejection","particles":100000,"seed":{seed},"timeout_ms":3000}}"#)
    };
    let batch = format!(
        r#"{{"source":{},"items":[{},{},{}]}}"#,
        Json::Str(RARE_EVIDENCE.into()),
        slow_item(1),
        slow_item(2),
        slow_item(3)
    );
    let request = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: gone\r\nContent-Length: {}\r\n\r\n{batch}",
        batch.len()
    );
    let mut conn = TcpStream::connect(addr).expect("batch connection");
    conn.write_all(request.as_bytes()).expect("write batch");
    std::thread::sleep(Duration::from_millis(500)); // let it dispatch
    drop(conn); // vanish

    // The worker must come free once the in-flight item's deadline fires:
    // a normal request succeeds well before three more items' worth of
    // grinding (~9 s) could have elapsed.
    let deadline = std::time::Instant::now() + Duration::from_secs(7);
    let (status, body) = loop {
        let resp = common::post_run(addr, TINY);
        if resp.0 == 200 || std::time::Instant::now() >= deadline {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(status, 200, "worker never came back: {body}");
    common::await_open_connections(addr, 1.0, Duration::from_secs(10));

    handle.shutdown();
}
