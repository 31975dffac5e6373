//! A timed wrapper around the engine's `RwLock` for contention accounting.
//!
//! The serving benchmarks flatten with rising concurrency, and the working
//! hypothesis blames the single `RwLock<Inner>` in [`crate::db`]. Before
//! paying for lock striping we quantify it: [`TimedRwLock`] counts
//! acquisitions and accumulates wait/hold nanoseconds per *path* —
//! [`LockPath::Read`], [`Write`](LockPath::Write),
//! [`Flush`](LockPath::Flush), [`Compaction`](LockPath::Compaction) —
//! surfaced as `engine.lock.{path}.{acquisitions,wait_ns,hold_ns}`
//! registry counters.
//!
//! Costs: timing is off until [`TimedRwLock::attach_obs`] enables it, and
//! the off path adds exactly one relaxed atomic load per acquisition (no
//! `Instant::now()` calls), keeping the telemetry-disabled server at its
//! old speed. Flush/compaction work that runs *inside* a write guard is
//! attributed to the guard's acquisition path; the `Flush`/`Compaction`
//! rows count explicit `flush()`/`maybe_compact_once()` acquisitions.
//!
//! A thread-local probe ([`reset_lock_probe`]/[`lock_probe`]) accumulates
//! the calling thread's wait and hold nanoseconds, letting the server —
//! which executes each request synchronously on a worker thread — split a
//! request's engine time into lock-wait vs in-lock execution without
//! plumbing timings through every engine return type.

use adcache_obs::{Counter, Obs};
use parking_lot::RwLock;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// The vendored parking_lot shim's read()/write() hand back std guards.
use std::sync::OnceLock;
use std::sync::{RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Which engine path acquired the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPath {
    /// Shared acquisitions: gets, scans, stats probes.
    Read = 0,
    /// Exclusive acquisitions by the write path (put/delete/batch).
    Write = 1,
    /// Exclusive acquisitions by explicit flushes.
    Flush = 2,
    /// Exclusive acquisitions by the compaction driver.
    Compaction = 3,
}

/// Number of [`LockPath`] variants.
pub const LOCK_PATHS: usize = 4;

impl LockPath {
    /// All paths, index order.
    pub const ALL: [LockPath; LOCK_PATHS] = [
        LockPath::Read,
        LockPath::Write,
        LockPath::Flush,
        LockPath::Compaction,
    ];

    /// Stable label used in metric names and `LockContention` events.
    pub fn label(self) -> &'static str {
        match self {
            LockPath::Read => "read",
            LockPath::Write => "write",
            LockPath::Flush => "flush",
            LockPath::Compaction => "compaction",
        }
    }
}

#[derive(Default)]
struct PathStats {
    acquisitions: AtomicU64,
    wait_ns: AtomicU64,
    hold_ns: AtomicU64,
    max_wait_ns: AtomicU64,
}

struct PathCounters {
    acquisitions: Counter,
    wait_ns: Counter,
    hold_ns: Counter,
}

thread_local! {
    static PROBE_WAIT_NS: Cell<u64> = const { Cell::new(0) };
    static PROBE_HOLD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Zeroes the calling thread's lock probe. Call before dispatching one
/// request into the engine.
pub fn reset_lock_probe() {
    PROBE_WAIT_NS.with(|c| c.set(0));
    PROBE_HOLD_NS.with(|c| c.set(0));
}

/// `(wait_ns, hold_ns)` accumulated on the calling thread since the last
/// [`reset_lock_probe`]. Both are 0 when timing is disabled.
pub fn lock_probe() -> (u64, u64) {
    (
        PROBE_WAIT_NS.with(|c| c.get()),
        PROBE_HOLD_NS.with(|c| c.get()),
    )
}

/// Point-in-time counters for one acquisition path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockPathSnapshot {
    /// Completed acquisitions.
    pub acquisitions: u64,
    /// Total nanoseconds spent blocked acquiring.
    pub wait_ns: u64,
    /// Total nanoseconds the guard was held.
    pub hold_ns: u64,
    /// Longest single acquisition wait.
    pub max_wait_ns: u64,
}

/// An `RwLock` that accounts wait/hold time per [`LockPath`].
pub struct TimedRwLock<T> {
    lock: RwLock<T>,
    timing: AtomicBool,
    stats: [PathStats; LOCK_PATHS],
    counters: OnceLock<Vec<[PathCounters; LOCK_PATHS]>>,
}

impl<T> TimedRwLock<T> {
    /// Wraps `value`; timing starts disabled.
    pub fn new(value: T) -> Self {
        TimedRwLock {
            lock: RwLock::new(value),
            timing: AtomicBool::new(false),
            stats: Default::default(),
            counters: OnceLock::new(),
        }
    }

    /// Registers `{prefix}.{path}.{acquisitions,wait_ns,hold_ns}` counters
    /// and enables timing when `obs` is live. Safe to call more than once;
    /// the first live registration wins.
    pub fn attach_obs(&self, obs: &Obs, prefix: &str) {
        self.attach_obs_prefixes(obs, &[prefix]);
    }

    /// Like [`attach_obs`](Self::attach_obs) but exports the same per-path
    /// counters under several prefixes at once — e.g. a striped engine
    /// registering both the aggregate `engine.lock` set and its own
    /// `engine.stripe.<i>.lock` set. Registry counters are shared by name,
    /// so the aggregate prefix accumulates across every stripe. One timing
    /// read feeds all sets; the per-acquisition cost stays a handful of
    /// relaxed atomics and is still gated on the cached timing flag.
    pub fn attach_obs_prefixes(&self, obs: &Obs, prefixes: &[&str]) {
        if !obs.is_enabled() {
            return;
        }
        let mk = |prefix: &str, path: &str| PathCounters {
            acquisitions: obs.counter(&format!("{prefix}.{path}.acquisitions")),
            wait_ns: obs.counter(&format!("{prefix}.{path}.wait_ns")),
            hold_ns: obs.counter(&format!("{prefix}.{path}.hold_ns")),
        };
        let sets = prefixes
            .iter()
            .map(|prefix| LockPath::ALL.map(|p| mk(prefix, p.label())))
            .collect();
        let _ = self.counters.set(sets);
        self.timing.store(true, Ordering::Release);
    }

    /// Whether acquisitions are being timed.
    pub fn timing_enabled(&self) -> bool {
        self.timing.load(Ordering::Relaxed)
    }

    /// Force timing on/off (tests; normally [`attach_obs`](Self::attach_obs)
    /// enables it).
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Release);
    }

    /// Acquires shared, attributing wait/hold to `path`.
    pub fn read(&self, path: LockPath) -> TimedReadGuard<'_, T> {
        if !self.timing.load(Ordering::Relaxed) {
            return TimedReadGuard {
                guard: self.lock.read(),
                timing: None,
            };
        }
        let t0 = Instant::now();
        let guard = self.lock.read();
        let wait_ns = t0.elapsed().as_nanos() as u64;
        self.note_acquire(path, wait_ns);
        TimedReadGuard {
            guard,
            timing: Some(GuardTiming {
                owner: self,
                path,
                acquired: Instant::now(),
                wait_ns,
            }),
        }
    }

    /// Acquires exclusive, attributing wait/hold to `path`.
    pub fn write(&self, path: LockPath) -> TimedWriteGuard<'_, T> {
        if !self.timing.load(Ordering::Relaxed) {
            return TimedWriteGuard {
                guard: self.lock.write(),
                timing: None,
            };
        }
        let t0 = Instant::now();
        let guard = self.lock.write();
        let wait_ns = t0.elapsed().as_nanos() as u64;
        self.note_acquire(path, wait_ns);
        TimedWriteGuard {
            guard,
            timing: Some(GuardTiming {
                owner: self,
                path,
                acquired: Instant::now(),
                wait_ns,
            }),
        }
    }

    /// Per-path counter snapshot, [`LockPath::ALL`] order.
    pub fn stats(&self) -> [LockPathSnapshot; LOCK_PATHS] {
        LockPath::ALL.map(|p| {
            let s = &self.stats[p as usize];
            LockPathSnapshot {
                acquisitions: s.acquisitions.load(Ordering::Relaxed),
                wait_ns: s.wait_ns.load(Ordering::Relaxed),
                hold_ns: s.hold_ns.load(Ordering::Relaxed),
                max_wait_ns: s.max_wait_ns.load(Ordering::Relaxed),
            }
        })
    }

    fn note_acquire(&self, path: LockPath, wait_ns: u64) {
        let s = &self.stats[path as usize];
        s.acquisitions.fetch_add(1, Ordering::Relaxed);
        s.wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        s.max_wait_ns.fetch_max(wait_ns, Ordering::Relaxed);
        if let Some(sets) = self.counters.get() {
            for counters in sets {
                let c = &counters[path as usize];
                c.acquisitions.inc();
                c.wait_ns.add(wait_ns);
            }
        }
        PROBE_WAIT_NS.with(|c| c.set(c.get().saturating_add(wait_ns)));
    }

    fn note_release(&self, path: LockPath, hold_ns: u64) {
        self.stats[path as usize]
            .hold_ns
            .fetch_add(hold_ns, Ordering::Relaxed);
        if let Some(sets) = self.counters.get() {
            for counters in sets {
                counters[path as usize].hold_ns.add(hold_ns);
            }
        }
        PROBE_HOLD_NS.with(|c| c.set(c.get().saturating_add(hold_ns)));
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TimedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedRwLock")
            .field("timing", &self.timing_enabled())
            .finish_non_exhaustive()
    }
}

struct GuardTiming<'a, T> {
    owner: &'a TimedRwLock<T>,
    path: LockPath,
    acquired: Instant,
    wait_ns: u64,
}

/// Shared guard; accumulates hold time on drop.
pub struct TimedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    timing: Option<GuardTiming<'a, T>>,
}

/// Exclusive guard; accumulates hold time on drop.
pub struct TimedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    timing: Option<GuardTiming<'a, T>>,
}

impl<T> TimedReadGuard<'_, T> {
    /// Nanoseconds this acquisition waited (0 when timing is off).
    pub fn wait_ns(&self) -> u64 {
        self.timing.as_ref().map_or(0, |t| t.wait_ns)
    }
}

impl<T> TimedWriteGuard<'_, T> {
    /// Nanoseconds this acquisition waited (0 when timing is off).
    pub fn wait_ns(&self) -> u64 {
        self.timing.as_ref().map_or(0, |t| t.wait_ns)
    }
}

impl<T> Deref for TimedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Deref for TimedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TimedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

// Drop runs before the inner guard field drops, so hold time is measured
// while the lock is still held (excludes the release itself — fine).
impl<T> Drop for TimedReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = &self.timing {
            t.owner
                .note_release(t.path, t.acquired.elapsed().as_nanos() as u64);
        }
    }
}

impl<T> Drop for TimedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = &self.timing {
            t.owner
                .note_release(t.path, t.acquired.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn untimed_lock_records_nothing() {
        let l = TimedRwLock::new(1u32);
        reset_lock_probe();
        {
            let g = l.read(LockPath::Read);
            assert_eq!(*g, 1);
            assert_eq!(g.wait_ns(), 0);
        }
        *l.write(LockPath::Write) = 2;
        assert_eq!(*l.read(LockPath::Read), 2);
        assert_eq!(lock_probe(), (0, 0));
        for s in l.stats() {
            assert_eq!(s, LockPathSnapshot::default());
        }
    }

    #[test]
    fn timed_lock_accumulates_per_path() {
        let l = TimedRwLock::new(0u32);
        l.set_timing(true);
        reset_lock_probe();
        {
            let mut g = l.write(LockPath::Write);
            *g += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = *l.read(LockPath::Read);
        let _ = *l.read(LockPath::Read);
        let stats = l.stats();
        assert_eq!(stats[LockPath::Write as usize].acquisitions, 1);
        assert!(stats[LockPath::Write as usize].hold_ns >= 2_000_000);
        assert_eq!(stats[LockPath::Read as usize].acquisitions, 2);
        assert_eq!(stats[LockPath::Flush as usize].acquisitions, 0);
        let (_wait, hold) = lock_probe();
        assert!(hold >= 2_000_000, "probe hold {hold}");
    }

    #[test]
    fn contended_write_measures_wait() {
        let l = Arc::new(TimedRwLock::new(0u32));
        l.set_timing(true);
        // The barrier releases this thread only once the holder owns the
        // lock, so the write below always contends.
        let held = Arc::new(std::sync::Barrier::new(2));
        let holder = {
            let (l, held) = (l.clone(), held.clone());
            std::thread::spawn(move || {
                let _g = l.write(LockPath::Flush);
                held.wait();
                std::thread::sleep(Duration::from_millis(10));
            })
        };
        held.wait();
        let g = l.write(LockPath::Write);
        assert!(
            g.wait_ns() >= 1_000_000,
            "expected measurable wait, got {}ns",
            g.wait_ns()
        );
        drop(g);
        holder.join().unwrap();
        let stats = l.stats();
        assert!(stats[LockPath::Write as usize].max_wait_ns >= 1_000_000);
    }

    #[test]
    fn attach_obs_exports_counters() {
        let obs = Obs::enabled();
        let l = TimedRwLock::new(());
        l.attach_obs(&obs, "engine.lock");
        assert!(l.timing_enabled());
        drop(l.read(LockPath::Read));
        drop(l.write(LockPath::Compaction));
        assert_eq!(obs.counter("engine.lock.read.acquisitions").get(), 1);
        assert_eq!(obs.counter("engine.lock.compaction.acquisitions").get(), 1);
        // Disabled obs leaves timing off.
        let l2 = TimedRwLock::new(());
        l2.attach_obs(&Obs::disabled(), "engine.lock");
        assert!(!l2.timing_enabled());
    }
}
