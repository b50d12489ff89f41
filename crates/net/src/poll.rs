//! Readiness polling and file-descriptor utilities for the serve layer.
//!
//! The HTTP server's event loop needs three things the standard library
//! does not expose: `epoll` readiness notification, a way to raise the
//! process's open-file limit, and a cheap count of the fds currently open
//! (for leak assertions in tests). All three are thin wrappers over raw
//! Linux syscalls, declared here directly so the workspace stays free of
//! external dependencies.
//!
//! This is the only module in the crate that uses `unsafe`; every unsafe
//! block is a single FFI call whose arguments are owned, live, and sized
//! by the safe wrapper around it. Everything above this module — the event
//! loop, the connection state machines — is safe code driving [`Poller`].
#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

// Raw syscall surface. These symbols live in libc, which is always linked
// on the platforms this crate targets (std itself depends on it).
mod sys {
    use std::os::raw::c_int;

    /// Mirror of the kernel's `struct epoll_event`. The x86_64 syscall ABI
    /// declares it packed; other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    pub const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }
}

/// Which readiness events a registration asks for. Registrations are
/// always edge-triggered: the poller reports a transition once and the
/// caller is expected to read/write until `WouldBlock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer half-closes).
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Readable and writable — the usual registration for a connection
    /// whose state machine both reads requests and flushes responses.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut bits = sys::EPOLLET | sys::EPOLLRDHUP;
        if self.readable {
            bits |= sys::EPOLLIN;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (data, or EOF, pending).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer closed its end (or the fd errored); the connection should
    /// be read to EOF and torn down.
    pub hangup: bool,
}

/// An edge-triggered `epoll` instance.
///
/// Tokens are caller-chosen `u64`s carried back verbatim in events; the
/// poller itself keeps no per-fd state beyond the kernel's interest list.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure (fd exhaustion, mostly).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers; returns an owned fd or -1.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<sys::EpollEvent>) -> io::Result<()> {
        let mut event = event;
        let ptr = event
            .as_mut()
            .map_or(std::ptr::null_mut(), |e| e as *mut sys::EpollEvent);
        // SAFETY: `ptr` is null (DEL) or points at a live, properly laid
        // out EpollEvent for the duration of the call; `fd` validity is
        // the kernel's to check (EBADF comes back as an error).
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with `token` for edge-triggered `interest`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (e.g. the fd is already registered).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            fd,
            Some(sys::EpollEvent {
                events: interest.bits(),
                data: token,
            }),
        )
    }

    /// Changes the registration of an already-added `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            fd,
            Some(sys::EpollEvent {
                events: interest.bits(),
                data: token,
            }),
        )
    }

    /// Removes `fd` from the interest list. Removal of an fd that was
    /// already closed (and therefore auto-deregistered) is not an error at
    /// this layer; callers tearing down connections should close the
    /// socket *after* calling this.
    pub fn remove(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, None);
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely), appending the ready events to
    /// `out`. Returns the number of events delivered; `0` means the wait
    /// timed out.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure. `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<usize> {
        const MAX_EVENTS: usize = 1024;
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs timeout still sleeps instead of spinning.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        let n = loop {
            // SAFETY: `buf` is a live array of MAX_EVENTS properly laid out
            // events; the kernel writes at most `maxevents` entries.
            let rc = unsafe {
                sys::epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms)
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &buf[..n] {
            let events = ev.events;
            out.push(PollEvent {
                token: ev.data,
                readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: events & sys::EPOLLOUT != 0,
                hangup: events & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned by this Poller and closed exactly once.
        unsafe { sys::close(self.epfd) };
    }
}

/// The process's open-file limit as `(soft, hard)`.
///
/// # Errors
///
/// Propagates `getrlimit` failure.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut rlim = sys::Rlimit { cur: 0, max: 0 };
    // SAFETY: `rlim` is a live, properly laid out Rlimit the kernel fills.
    let rc = unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut rlim) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((rlim.cur, rlim.max))
}

/// Raises the soft open-file limit to the hard limit and returns the new
/// `(soft, hard)` pair. A server holding tens of thousands of concurrent
/// connections calls this at startup so the distribution default of 1024
/// fds does not masquerade as load shedding.
///
/// # Errors
///
/// Propagates `getrlimit`/`setrlimit` failure; the limit is unchanged on
/// error.
pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
    let (soft, hard) = nofile_limit()?;
    if soft >= hard {
        return Ok((soft, hard));
    }
    let rlim = sys::Rlimit {
        cur: hard,
        max: hard,
    };
    // SAFETY: `rlim` is a live, properly laid out Rlimit read by the kernel.
    let rc = unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &rlim) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((hard, hard))
}

/// The number of file descriptors this process currently has open, read
/// from `/proc/self/fd`. Test suites assert this returns to its baseline
/// after a stress run — the cheapest possible fd-leak detector.
///
/// # Errors
///
/// Propagates the directory read failure (non-Linux systems without
/// `/proc`, mostly).
pub fn open_fd_count() -> io::Result<usize> {
    // The readdir itself holds one fd; exclude it.
    Ok(std::fs::read_dir("/proc/self/fd")?
        .count()
        .saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poller_reports_accept_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a short wait times out with zero events.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn poller_is_edge_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 1, Interest::BOTH).unwrap();

        (&client).write_all(b"hello").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        // Edge triggering: without draining the socket, a second wait does
        // not re-report the same readable edge.
        let mut events2 = Vec::new();
        let before = std::time::Instant::now();
        let n = poller
            .wait(&mut events2, Some(Duration::from_millis(50)))
            .unwrap();
        let readable_again = events2.iter().any(|e| e.token == 1 && e.readable);
        assert!(
            n == 0 || !readable_again || before.elapsed() >= Duration::from_millis(50),
            "level-triggered behavior detected: {events2:?}"
        );

        // Draining to WouldBlock re-arms the edge.
        let mut buf = [0u8; 16];
        let mut server_ref = &server;
        assert_eq!(server_ref.read(&mut buf).unwrap(), 5);
        (&client).write_all(b"again").unwrap();
        let mut events3 = Vec::new();
        poller
            .wait(&mut events3, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events3.iter().any(|e| e.token == 1 && e.readable));
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.hangup));
    }

    #[test]
    fn limits_are_readable_and_raisable() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
        let (new_soft, new_hard) = raise_nofile_limit().unwrap();
        assert_eq!(new_soft, new_hard);
        assert!(new_soft >= soft);
    }
}
