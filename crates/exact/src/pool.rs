//! Parallel fan-out and the shared compute pool that bounds it.
//!
//! [`fan_out`] is the one way this workspace runs independent tasks on
//! several threads: the exact engine expands frontier chunks through it
//! ([`crate::ExactOptions::threads`]) and `bayonet-serve` runs batch items
//! through it. When many requests run concurrently, unbounded per-request
//! parallelism would oversubscribe the machine, so requests share one
//! [`ComputePool`]: a request asks for extra lanes and is *granted up to as
//! many slots as are currently free* ([`ComputePool::lease`]). A big
//! request alone on the server gets the whole pool; once the pool is
//! leased out, later requests run on their own thread only. Results are
//! byte-identical either way, only wall-clock time changes.
//!
//! The pool also reports how many slots are leased right now and how many
//! leases granted at least one slot, which the serve layer exposes as
//! Prometheus metrics.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs `task(0)` through `task(tasks - 1)` on up to `lanes` threads and
/// returns the results in task order.
///
/// The calling thread is lane zero; the other lanes are scoped threads.
/// Every lane takes the next unclaimed index from one shared counter, so
/// a slow task never holds up the rest. With one lane (or at most one
/// task) everything runs inline and no thread is spawned. A panicking
/// task resurfaces on the caller once every lane has stopped.
///
/// # Examples
///
/// ```
/// use bayonet_exact::fan_out;
///
/// let squares = fan_out(4, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn fan_out<R, F>(lanes: usize, tasks: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let lanes = lanes.min(tasks);
    if lanes <= 1 {
        return (0..tasks).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let lane = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= tasks {
                return done;
            }
            done.push((index, task(index)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
        let mut done = lane();
        for other in others {
            done.extend(
                other
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// A cloneable handle to a shared pool of compute slots.
///
/// The pool does not own threads; it is an admission controller. The exact
/// engine spawns scoped worker threads itself and uses the pool only to
/// decide *how many* it may spawn, so slots are never blocked on and a
/// lease can never deadlock.
///
/// # Examples
///
/// ```
/// use bayonet_exact::ComputePool;
///
/// let pool = ComputePool::new(4);
/// let big = pool.lease(3); // wants 3 extra workers, all idle -> granted 3
/// assert_eq!(big.granted(), 3);
/// let small = pool.lease(3); // only 1 slot left
/// assert_eq!(small.granted(), 1);
/// drop(big);
/// assert_eq!(pool.busy(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ComputePool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    capacity: usize,
    busy: AtomicUsize,
    leases: AtomicU64,
}

/// A point-in-time snapshot of pool telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total compute slots.
    pub capacity: usize,
    /// Slots currently leased.
    pub busy: usize,
    /// Cumulative leases that granted at least one slot.
    pub leases: u64,
}

impl ComputePool {
    /// Creates a pool with `capacity` slots (clamped to at least 1).
    pub fn new(capacity: usize) -> ComputePool {
        ComputePool {
            inner: Arc::new(PoolInner {
                capacity: capacity.max(1),
                busy: AtomicUsize::new(0),
                leases: AtomicU64::new(0),
            }),
        }
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Slots currently leased.
    pub fn busy(&self) -> usize {
        self.inner.busy.load(Ordering::Relaxed)
    }

    /// A telemetry snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity: self.inner.capacity,
            busy: self.busy(),
            leases: self.inner.leases.load(Ordering::Relaxed),
        }
    }

    /// Grants up to `requested` idle slots, never blocking: the grant is
    /// `min(requested, capacity - busy)` at the moment of the call and may
    /// be zero. The slots return to the pool when the lease is dropped.
    /// Only grants of at least one slot count towards [`PoolStats::leases`].
    pub fn lease(&self, requested: usize) -> PoolLease {
        let mut granted;
        let mut current = self.inner.busy.load(Ordering::Relaxed);
        loop {
            granted = requested.min(self.inner.capacity.saturating_sub(current));
            if granted == 0 {
                break;
            }
            match self.inner.busy.compare_exchange_weak(
                current,
                current + granted,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.leases.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(seen) => current = seen,
            }
        }
        PoolLease {
            pool: self.clone(),
            granted,
        }
    }
}

/// An in-flight grant of compute slots; returns them on drop.
pub struct PoolLease {
    pool: ComputePool,
    granted: usize,
}

impl PoolLease {
    /// Number of extra workers this lease allows.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        if self.granted > 0 {
            self.pool
                .inner
                .busy
                .fetch_sub(self.granted, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_never_exceed_capacity() {
        let pool = ComputePool::new(3);
        let a = pool.lease(2);
        let b = pool.lease(2);
        let c = pool.lease(2);
        assert_eq!(a.granted(), 2);
        assert_eq!(b.granted(), 1);
        assert_eq!(c.granted(), 0);
        assert_eq!(pool.busy(), 3);
        drop(b);
        assert_eq!(pool.busy(), 2);
        assert_eq!(pool.lease(5).granted(), 1);
        drop(a);
        drop(c);
        assert_eq!(pool.busy(), 0);
        // `c` was granted nothing, so it does not count.
        assert_eq!(pool.stats().leases, 3);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let pool = ComputePool::new(0);
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.lease(8).granted(), 1);
    }

    #[test]
    fn fan_out_returns_results_in_task_order() {
        for lanes in [1, 2, 8] {
            for tasks in [0, 1, 37] {
                let got = fan_out(lanes, tasks, |i| i * 3);
                let want: Vec<usize> = (0..tasks).map(|i| i * 3).collect();
                assert_eq!(got, want, "{lanes} lanes, {tasks} tasks");
            }
        }
    }

    #[test]
    fn one_lane_runs_every_task_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = fan_out(1, 37, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn a_panicking_task_resurfaces_on_the_caller() {
        for lanes in [1, 2, 8] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(lanes, 37, |i| {
                    if i == 20 {
                        panic!("task {i} failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("task 20 failed"),
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn concurrent_leases_stay_bounded() {
        let pool = ComputePool::new(4);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let lease = pool.lease(3);
                        assert!(pool.busy() <= pool.capacity());
                        drop(lease);
                    }
                });
            }
        });
        assert_eq!(pool.busy(), 0);
    }
}
