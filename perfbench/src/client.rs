//! The out-of-process server, a one-connection-at-a-time HTTP client, and
//! the host readings a noisy run is attributed with.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `bayonet-served --threads 1`.
pub struct Server {
    child: Child,
    /// Held open: the server would fail writing to a closed stdout.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits until it announces its address.
    pub fn spawn(exe: &Path) -> io::Result<Server> {
        let mut child = Command::new(exe)
            .args(["--threads", "1", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot spawn {}: {e}", exe.display()))
            })?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("BAYONET_SERVE_ADDR ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "bad server announcement {line:?}"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the server's stdin (its shutdown signal) and waits for it to
    /// exit, killing it after ten seconds.
    pub fn stop(mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on an early error return; `stop` consumed the
        // handle otherwise.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One HTTP response, chunked framing removed.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends one request on a fresh connection and reads the reply to EOF
/// (the server closes every connection).
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut request = head.into_bytes();
    request.extend_from_slice(body.as_bytes());
    conn.write_all(&request)?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no end of headers"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 head"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status"))?;
    let chunked = head.lines().any(|l| {
        l.to_ascii_lowercase()
            .starts_with("transfer-encoding: chunked")
    });
    let mut rest = &raw[split + 4..];
    if !chunked {
        return Ok(Reply {
            status,
            body: rest.to_vec(),
        });
    }
    let mut body = Vec::new();
    loop {
        let eol = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| bad("truncated chunk size"))?;
        let size = std::str::from_utf8(&rest[..eol])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .ok_or_else(|| bad("bad chunk size"))?;
        rest = &rest[eol + 2..];
        if size == 0 {
            return Ok(Reply { status, body });
        }
        if rest.len() < size + 2 {
            return Err(bad("truncated chunk"));
        }
        body.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

/// A `/metrics` scrape: unlabelled series by name.
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn take(addr: SocketAddr) -> io::Result<Scrape> {
        let reply = exchange(addr, "GET", "/metrics", "")?;
        let text = String::from_utf8_lossy(&reply.body);
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        Ok(Scrape(series))
    }

    /// How far series `name` moved since `before`.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        let get = |s: &Scrape| s.0.get(name).copied().unwrap_or(0.0);
        get(self) - get(before)
    }
}

/// The server's peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cumulative CPU steal time of the host, in milliseconds.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    // /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
    steal * 10.0
}

/// TCP sockets in TIME_WAIT on this host (IPv4 and IPv6).
pub fn time_wait_count() -> u64 {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|t| {
            t.lines()
                .skip(1)
                .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                .count() as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_replies_are_reassembled() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, b"abcde");
        assert!(
            parse_reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab").is_err()
        );
    }

    #[test]
    fn plain_replies_keep_their_body() {
        let reply =
            parse_reply(b"HTTP/1.1 422 Unprocessable\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(reply.status, 422);
        assert_eq!(reply.body, b"{}");
    }
}
