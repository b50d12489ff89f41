//! `bayonet-served`: a standalone server binary.
//!
//! The `bayonet serve` CLI subcommand is the user-facing entry point;
//! this thin binary exists so the serve crate's own tests (and the bench
//! harness) can spawn a real out-of-process server via
//! `CARGO_BIN_EXE_bayonet-served` — a 10k-connection stress run needs the
//! client and server fd budgets in separate processes.
//!
//! It takes the same flags as `bayonet serve` (see
//! [`ServerConfig::parse_flags`]), but binds an ephemeral port by default:
//!
//! ```text
//! bayonet-served --addr 127.0.0.1:0 --threads 4 --queue 64 \
//!     --io-timeout-ms 30000 --max-connections 16384
//! ```
//!
//! On startup the bound address is announced on stdout as
//! `BAYONET_SERVE_ADDR <addr>` so spawners can scrape it; EOF on stdin
//! shuts the server down, so an exiting parent never leaks a server.

use std::io::{Read, Write};
use std::process::ExitCode;

use bayonet_serve::{start, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let config = match defaults.parse_flags(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("bayonet-served: {e}");
            return ExitCode::from(2);
        }
    };

    let handle = match start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bayonet-served: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("BAYONET_SERVE_ADDR {}", handle.addr());
    let _ = std::io::stdout().flush();

    // Block until the spawner closes our stdin (or exits), then shut down
    // gracefully so fd and connection gauges drain to zero.
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    handle.shutdown();
    ExitCode::SUCCESS
}
