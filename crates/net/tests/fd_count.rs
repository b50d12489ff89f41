//! `open_fd_count` counts the whole process's `/proc/self/fd`, so this
//! test lives alone in its own test binary: no other test can open or
//! close an fd between its two counts.

use std::net::TcpListener;

use bayonet_net::open_fd_count;

#[test]
fn fd_count_tracks_opens() {
    let before = open_fd_count().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let after = open_fd_count().unwrap();
    assert!(after > before, "{before} -> {after}");
    drop(listener);
    assert!(open_fd_count().unwrap() < after);
}
