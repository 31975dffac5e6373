//! Multi-threaded engine smoke/stress tests.
//!
//! The serving layer hammers one shared [`CachedDb`] from many OS threads,
//! so engine concurrency must hold up outside the single-threaded harness:
//! results stay correct under interleaved get/put/scan traffic, and the
//! shared [`Counters`] never lose an increment (totals equal the sum of
//! what each thread actually issued).

use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_lsm::{MemStorage, Options};
use adcache_workload::{render_key, Mix, WorkloadConfig, WorkloadGen};
use bytes::Bytes;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 2_500;

/// Per-thread tallies of what was actually issued.
#[derive(Default)]
struct Issued {
    points: u64,
    scans: u64,
    scan_len_sum: u64,
    writes: u64,
    hits_or_misses_ok: u64,
}

fn build_shared(strategy: Strategy) -> Arc<CachedDb> {
    let db = CachedDb::new(
        Options::small(),
        Arc::new(MemStorage::new()),
        EngineConfig::new(strategy, 1 << 20),
    )
    .unwrap();
    for i in 0..4_000u64 {
        db.load(render_key(i), Bytes::from(format!("seed-{i:05}")))
            .unwrap();
    }
    db.db().flush().unwrap();
    while db.db().maybe_compact_once().unwrap() {}
    Arc::new(db)
}

/// 8 threads of mixed traffic against one engine: every operation must
/// succeed, and the engine's shared counters must equal the per-thread
/// sums exactly — a lost or double-counted increment here would silently
/// corrupt every window summary the controller trains on.
#[test]
fn eight_threads_of_mixed_traffic_keep_counters_consistent() {
    for strategy in [Strategy::AdCache, Strategy::RocksDbBlock] {
        let db = build_shared(strategy);
        let mix = Mix::new(40.0, 25.0, 5.0, 30.0);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let mut gen = WorkloadGen::new(WorkloadConfig {
                        num_keys: 4_000,
                        value_size: 64,
                        seed: 0xC0FFEE + t as u64,
                        ..Default::default()
                    });
                    let mut issued = Issued::default();
                    for _ in 0..OPS_PER_THREAD {
                        match gen.next_op(&mix) {
                            adcache_workload::Operation::Get { key } => {
                                db.get(&key).unwrap();
                                issued.points += 1;
                            }
                            adcache_workload::Operation::Scan { from, len } => {
                                let page = db.scan(&from, len).unwrap();
                                assert!(page.len() <= len);
                                // Returned keys are sorted and start at or
                                // after the requested origin.
                                for w in page.windows(2) {
                                    assert!(w[0].0 < w[1].0, "scan out of order");
                                }
                                if let Some((k, _)) = page.first() {
                                    assert!(*k >= from);
                                }
                                issued.scans += 1;
                                issued.scan_len_sum += len as u64;
                            }
                            adcache_workload::Operation::Put { key, value } => {
                                db.put(key, value).unwrap();
                                issued.writes += 1;
                            }
                            adcache_workload::Operation::Delete { key } => {
                                db.delete(key).unwrap();
                                issued.writes += 1;
                            }
                        }
                        issued.hits_or_misses_ok += 1;
                    }
                    issued
                })
            })
            .collect();

        let mut total = Issued::default();
        for h in handles {
            let issued = h.join().expect("worker thread panicked");
            total.points += issued.points;
            total.scans += issued.scans;
            total.scan_len_sum += issued.scan_len_sum;
            total.writes += issued.writes;
            total.hits_or_misses_ok += issued.hits_or_misses_ok;
        }
        assert_eq!(total.hits_or_misses_ok, THREADS as u64 * OPS_PER_THREAD);

        let c = db.counters();
        assert_eq!(
            c.points.load(Ordering::Relaxed),
            total.points,
            "{strategy:?}: point counter diverged from per-thread sums"
        );
        assert_eq!(
            c.scans.load(Ordering::Relaxed),
            total.scans,
            "{strategy:?}: scan counter diverged"
        );
        assert_eq!(
            c.scan_len_sum.load(Ordering::Relaxed),
            total.scan_len_sum,
            "{strategy:?}: scan length sum diverged"
        );
        assert_eq!(
            c.writes.load(Ordering::Relaxed),
            total.writes,
            "{strategy:?}: write counter diverged"
        );
        assert_eq!(c.total_ops(), THREADS as u64 * OPS_PER_THREAD);

        // Every query either hit a result cache or consulted the engine —
        // the disjoint outcome counters must partition the reads.
        let reads = total.points + total.scans;
        let outcomes = c.range_hits.load(Ordering::Relaxed)
            + c.kv_hits.load(Ordering::Relaxed)
            + c.cache_misses.load(Ordering::Relaxed);
        assert_eq!(
            outcomes, reads,
            "{strategy:?}: hit/miss outcomes must partition the reads"
        );

        // The report rolls up the same counters.
        let report = db.stats_report();
        assert_eq!(report.points, total.points);
        assert_eq!(report.scans, total.scans);
        assert_eq!(report.writes, total.writes);
        assert_eq!(report.strategy, strategy.name());
    }
}

/// Writers and readers race on the same keys; reads must always see either
/// the seed value or some thread's overwrite — never garbage, never a
/// phantom deletion.
#[test]
fn racing_overwrites_never_yield_torn_values() {
    let db = build_shared(Strategy::AdCache);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                // All threads fight over the same 64 keys.
                for i in 0..1_500u64 {
                    let k = render_key(i % 64);
                    if t % 2 == 0 {
                        db.put(k, Bytes::from(format!("w{t}-{i:05}"))).unwrap();
                    } else {
                        if let Some(v) = db.get(&k).unwrap() {
                            let s = std::str::from_utf8(&v).expect("utf8 value");
                            assert!(
                                s.starts_with("seed-") || s.starts_with('w'),
                                "torn value {s:?}"
                            );
                        } else {
                            panic!("key {i} vanished without a delete");
                        }
                        let page = db.scan(&render_key(0), 16).unwrap();
                        assert!(!page.is_empty());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
}

/// Regression (stale cache fill): a reader's point-cache fill must never
/// land after a writer's write-through and shadow the write. The reader
/// reads the tree, the writer then puts and writes through, and only then
/// does the reader fill the old value, which stays until the key is next
/// written. The writer here is the only one writing its keys, so after
/// each acked put every one of them must read back exactly its last
/// value. Readers hammer the same keys while churning a cache too small
/// to hold them, so the keys keep missing and refilling.
#[test]
fn acked_put_is_never_shadowed_by_a_concurrent_fill() {
    const HOT: u64 = 4;
    const ROUNDS: u64 = 20_000;
    for strategy in [Strategy::KvCache, Strategy::RangeCache] {
        let db = CachedDb::new(
            Options::small(),
            Arc::new(MemStorage::new()),
            EngineConfig::new(strategy, 4 << 10),
        )
        .unwrap();
        for i in 0..512u64 {
            db.load(render_key(i), Bytes::from(format!("seed-{i:05}")))
                .unwrap();
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let (db, done) = (&db, &done);
                s.spawn(move || {
                    let mut i = t;
                    while !done.load(Ordering::Relaxed) {
                        db.get(&render_key(i % HOT)).unwrap();
                        // A cold key evicts the hot ones now and then.
                        db.get(&render_key(HOT + i % 500)).unwrap();
                        i += 1;
                    }
                });
            }
            let writer = s.spawn(|| {
                let mut last: Vec<Bytes> = (0..HOT)
                    .map(|i| Bytes::from(format!("seed-{i:05}")))
                    .collect();
                for round in 0..ROUNDS {
                    let k = (round % HOT) as usize;
                    last[k] = Bytes::from(format!("w-{round:06}"));
                    db.put(render_key(k as u64), last[k].clone()).unwrap();
                    for (i, want) in last.iter().enumerate() {
                        let got = db.get(&render_key(i as u64)).unwrap();
                        assert_eq!(
                            got.as_ref(),
                            Some(want),
                            "{strategy:?}: round {round}, key {i} read an older value than its acked put"
                        );
                    }
                }
            });
            let result = writer.join();
            done.store(true, Ordering::Relaxed);
            if let Err(p) = result {
                std::panic::resume_unwind(p);
            }
        });
    }
}
