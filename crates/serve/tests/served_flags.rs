//! `bayonet-served` flag handling. The binary parses through the same
//! `ServerConfig::parse_flags` as `bayonet serve`: a bad flag exits with
//! status 2 and the shared message before any socket is bound.

use std::process::{Command, Stdio};

/// Runs `bayonet-served` with `args` and stdin closed, so a server that
/// does start shuts down at once. Returns `(exit code, stdout, stderr)`.
fn served(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bayonet-served"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn bayonet-served");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_sized_limits_are_rejected() {
    for (flag, message) in [
        ("--queue", "--queue must be at least 1"),
        ("--max-connections", "--max-connections must be at least 1"),
    ] {
        let (code, stdout, stderr) = served(&[flag, "0"]);
        assert_eq!(code, Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(message), "{stderr}");
        assert!(!stdout.contains("BAYONET_SERVE_ADDR"), "{stdout}");
    }
}

#[test]
fn the_smallest_limits_start_a_server() {
    let (code, stdout, stderr) = served(&[
        "--threads",
        "1",
        "--queue",
        "1",
        "--max-connections",
        "1",
        "--io-timeout-ms",
        "1000",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.starts_with("BAYONET_SERVE_ADDR 127.0.0.1:"),
        "{stdout}"
    );
}
