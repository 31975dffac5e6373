//! `ingest`: a durable store (`CachedDb::with_durability` over real files,
//! `SyncPolicy::Always`, `Options::small()`) under one closed-loop writer
//! thread, 85% put / 10% get / 5% short scan, no controller. The preload
//! runs without fsync and the store is then reopened with
//! `SyncPolicy::Always`, so set-up time prices building the tree rather
//! than the device's fsync latency. After the run the store is dropped,
//! reopened from its directories, and every acknowledged write is read
//! back.
//!
//! One writer, not two: two closed-loop writers under `SyncPolicy::Always`
//! settle, for minutes at a time, into one of two phases. Either their puts
//! share a group commit and one fsync, or each waits out the other's fsync
//! under the write lock. Every timing then moves by 1.3–3x between runs of
//! the same code, more than any usable regression bound.

use crate::inproc::{self, Call, CallMark, CoreSpans, Probe};
use crate::report::{
    fastest, median, peak_rss_above, quiet_rounds, ratio, rss_baseline_mb, Metrics, OpLatencies,
};
use crate::{Outcome, Params};
use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_lsm::{FileStorage, Options, SyncPolicy};
use adcache_obs::Obs;
use adcache_workload::{render_key, Mix, Operation, WorkloadConfig, WorkloadGen};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys preloaded and then overwritten.
const KEYS: u64 = 50_000;
const VALUE_SIZE: usize = 100;
const CACHE_SHARE: f64 = 0.10;
const MIX: Mix = Mix::new(10.0, 5.0, 0.0, 85.0);
/// Keys per write batch while preloading.
const LOAD_BATCH: u64 = 1_000;
/// Time slices of the run; timings pool the fastest half of the quiet ones
/// (see `quiet_rounds` and `fastest`).
const ROUNDS: usize = 10;
/// Slices a run may grow to while it waits out a spell of host steal.
const MAX_ROUNDS: usize = 2 * ROUNDS;
/// Preloads per untraced run; `setup_s` is the median of the quietest
/// ones.
const SETUPS: usize = 3;

fn round_length(p: &Params) -> Duration {
    Duration::from_secs_f64(p.seconds as f64 / ROUNDS as f64)
}

fn options(sync: SyncPolicy) -> Options {
    Options {
        sync,
        ..Options::small()
    }
}

fn num_keys(p: &Params) -> u64 {
    ((KEYS as f64 * p.scale) as u64).max(1_000)
}

fn cache_bytes(p: &Params) -> usize {
    (num_keys(p) as f64 * (24 + VALUE_SIZE) as f64 * CACHE_SHARE) as usize
}

fn open(p: &Params, dir: &Path, sync: SyncPolicy) -> CachedDb {
    let storage = Arc::new(FileStorage::open(dir.join("sst")).expect("ingest: open sst dir"));
    CachedDb::with_durability(
        options(sync),
        storage,
        dir.join("meta"),
        EngineConfig::new(Strategy::AdCache, cache_bytes(p)),
    )
    .expect("ingest: open store")
}

/// Value of the writer's `seq`-th write (0 for the preload).
fn value(seq: u64) -> Bytes {
    let mut v = format!("v{seq:016}-").into_bytes();
    v.resize(VALUE_SIZE, b'.');
    Bytes::from(v)
}

/// Creates a store in `dir`, preloads every key without fsync, settles it,
/// and reopens it with `SyncPolicy::Always` for the measured run.
fn load(p: &Params, dir: &Path) -> CachedDb {
    let _ = std::fs::remove_dir_all(dir);
    let db = open(p, dir, SyncPolicy::Never);
    let n = num_keys(p);
    for chunk in (0..n).collect::<Vec<_>>().chunks(LOAD_BATCH as usize) {
        let batch = chunk.iter().map(|&k| (render_key(k), value(0))).collect();
        db.write_batch(batch).expect("ingest: preload");
    }
    db.db().flush().expect("ingest: flush");
    while db.db().maybe_compact_once().expect("ingest: settle") {}
    drop(db);
    let db = open(p, dir, SyncPolicy::Always);
    db.refresh_shape();
    db
}

/// The last acknowledged value of each key.
type Model = BTreeMap<Bytes, Bytes>;

/// The model of the preloaded store.
fn preloaded_model(p: &Params) -> Model {
    (0..num_keys(p))
        .map(|k| (render_key(k), value(0)))
        .collect()
}

/// The writer's timings within one round of the run.
#[derive(Default)]
struct Round {
    lat: OpLatencies,
    ops: u64,
    /// Time spent drawing and executing ops (checks excluded).
    busy_s: f64,
}

struct WriterResult {
    rounds: Vec<Round>,
    spans: CoreSpans,
    model: Model,
    ops: u64,
    puts: u64,
    failed: u64,
    wrong: u64,
}

fn writer(
    p: &Params,
    db: &CachedDb,
    mut model: Model,
    traced: bool,
    stop: &AtomicBool,
) -> WriterResult {
    let mut gen = WorkloadGen::new(WorkloadConfig {
        num_keys: num_keys(p),
        value_size: VALUE_SIZE,
        seed: p.seed,
        ..WorkloadConfig::default()
    });
    let mut r = WriterResult {
        rounds: (0..MAX_ROUNDS).map(|_| Round::default()).collect(),
        spans: CoreSpans::default(),
        model: Model::new(),
        ops: 0,
        puts: 0,
        failed: 0,
        wrong: 0,
    };
    let round_s = round_length(p).as_secs_f64();
    let t_run = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let t_gen = Instant::now();
        let i = ((t_gen - t_run).as_secs_f64() / round_s) as usize;
        let round = &mut r.rounds[i.min(MAX_ROUNDS - 1)];
        let op = match gen.next_op(&MIX) {
            Operation::Put { key, .. } => Operation::Put {
                key,
                value: value(r.ops + 1),
            },
            other => other,
        };
        if traced {
            r.spans.record_gen(t_gen.elapsed().as_nanos() as u64);
        }
        let before = traced.then(|| CallMark::take(db));
        let t0 = Instant::now();
        let (call, res) = match &op {
            Operation::Get { key } => (Call::Get, db.get(key).map(|v| (v, Vec::new()))),
            Operation::Scan { from, len } => (Call::Scan, db.scan(from, *len).map(|es| (None, es))),
            Operation::Put { key, value } => (
                Call::Put,
                db.put(key.clone(), value.clone())
                    .map(|_| (None, Vec::new())),
            ),
            Operation::Delete { .. } => unreachable!("the mix has no deletes"),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        round.busy_s += t_gen.elapsed().as_secs_f64();
        round.ops += 1;
        match call {
            Call::Get => round.lat.get.push(ns),
            Call::Scan => round.lat.scan.push(ns),
            Call::Put => round.lat.put.push(ns),
        }
        if let Some(before) = before {
            r.spans.record(call, ns, &before, &CallMark::take(db));
        }
        r.ops += 1;

        let ok = match (&op, res) {
            (_, Err(e)) => {
                r.failed += 1;
                eprintln!("ingest: op failed: {e}");
                true
            }
            (Operation::Get { key }, Ok((v, _))) => model.get(key) == v.as_ref(),
            (Operation::Scan { from, len }, Ok((_, es))) => {
                let want = model.range(from.clone()..).take(*len);
                es.len() == want.clone().count()
                    && es.iter().zip(want).all(|(a, (k, v))| a.0 == k && a.1 == v)
            }
            (Operation::Put { key, value }, Ok(_)) => {
                r.puts += 1;
                model.insert(key.clone(), value.clone());
                true
            }
            _ => false,
        };
        if !ok {
            r.wrong += 1;
            if r.wrong <= 5 {
                eprintln!("ingest: {op:?} returned a wrong result");
            }
        }
    }
    r.model = model;
    r
}

struct Pass {
    /// Latency quantiles and throughput over the kept rounds.
    timings: Metrics,
    attempted: u64,
    failed: u64,
    wrong: u64,
    model: Model,
}

fn run_pass(p: &Params, db: &CachedDb, model: Model, traced: bool, out: &mut Metrics) -> Pass {
    if traced {
        db.set_obs(Obs::enabled());
    }
    let start = Probe::take(db);
    let cpu0 = crate::report::process_cpu_s("self");
    let stop = AtomicBool::new(false);
    let mut kept = Vec::new();
    let t = Instant::now();
    let r: WriterResult = std::thread::scope(|s| {
        let stop = &stop;
        let h = s.spawn(move || writer(p, db, model, traced, stop));
        // The writer runs until the quietest rounds are in.
        let mut next = 0u32;
        kept = quiet_rounds(ROUNDS, ROUNDS, MAX_ROUNDS, || {
            next += 1;
            std::thread::sleep(
                (t + round_length(p) * next).saturating_duration_since(Instant::now()),
            );
            next as usize - 1
        });
        stop.store(true, Ordering::Relaxed);
        h.join().expect("writer panicked")
    });
    let wall = t.elapsed().as_secs_f64();
    let rate = |&i: &usize| ratio(r.rounds[i].ops as f64, r.rounds[i].busy_s);
    let kept = fastest(kept, ROUNDS / 2, rate);
    // The kept rounds are pooled: all their samples and all their time.
    let mut timings = Metrics::default();
    let mut lat = OpLatencies::default();
    for &i in &kept {
        lat.merge(&r.rounds[i].lat);
    }
    lat.emit(&mut timings);
    let ops: u64 = kept.iter().map(|&i| r.rounds[i].ops).sum();
    let busy_s: f64 = kept.iter().map(|&i| r.rounds[i].busy_s).sum();
    timings.set("throughput_ops", ratio(ops as f64, busy_s));
    let live: u64 = r
        .model
        .iter()
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum();
    inproc::outcomes(db, &start, live, out);
    if traced {
        r.spans.emit(db, &start, out);
        inproc::layers(db, &start, r.puts, out);
        out.set(
            "proc.cpu_util",
            ratio(crate::report::process_cpu_s("self") - cpu0, wall),
        );
    }
    Pass {
        timings,
        attempted: r.ops,
        failed: r.failed,
        wrong: r.wrong,
        model: r.model,
    }
}

/// Reopens the store in `dir` and reads back every acknowledged write.
/// Returns the reopen time and the count of keys that came back wrong.
fn recover_and_verify(p: &Params, dir: &Path, model: &Model) -> (f64, u64, u64) {
    let t = Instant::now();
    let db = open(p, dir, SyncPolicy::Always);
    let recovery_s = t.elapsed().as_secs_f64();
    let (mut checked, mut lost) = (0u64, 0u64);
    for (k, v) in model {
        checked += 1;
        match db.get(k) {
            Ok(Some(got)) if got == *v => {}
            other => {
                lost += 1;
                if lost <= 5 {
                    eprintln!("ingest: acked write to {k:?} lost after reopen: {other:?}");
                }
            }
        }
    }
    (recovery_s, checked, lost)
}

fn store_dir(p: &Params, i: usize) -> PathBuf {
    p.work_dir
        .join(format!("ingest-{}-{i}", std::process::id()))
}

/// Loads at least `n` fresh stores, more while the host is disturbed (see
/// `quiet_rounds`); returns the last with its directory and the median load
/// time of the quietest half.
fn setup(p: &Params, n: usize) -> (CachedDb, PathBuf, f64) {
    let mut last: Option<(CachedDb, PathBuf)> = None;
    let mut i = 0;
    let times = quiet_rounds(n, n.div_ceil(2), 2 * n, || {
        if let Some((db, dir)) = last.take() {
            drop(db);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = store_dir(p, i);
        i += 1;
        let t = Instant::now();
        let db = load(p, &dir);
        let load_s = t.elapsed().as_secs_f64();
        last = Some((db, dir));
        load_s
    });
    let (db, dir) = last.expect("at least one setup");
    (db, dir, median(times))
}

pub fn run(p: &Params) -> Outcome {
    std::fs::create_dir_all(&p.work_dir).expect("ingest: create work dir");
    let mut out = Metrics::default();
    let mut o = Outcome::new(vec![
        (
            "data_bytes",
            (num_keys(p) * (24 + VALUE_SIZE as u64)).into(),
        ),
        ("cache_bytes", cache_bytes(p).into()),
        (
            "flush_policy",
            "SyncPolicy::Always (fsync per acked write); preload unsynced".into(),
        ),
    ]);

    // The model exists before the store, so the peak resident set above
    // this baseline is the engine's.
    let model = preloaded_model(p);
    let rss_baseline = rss_baseline_mb();
    let (db, dir, setup_s) = setup(p, if p.trace { 1 } else { SETUPS });
    let plain = run_pass(p, &db, model, false, &mut out);
    let peak_rss = peak_rss_above(rss_baseline);
    drop(db);
    let (recovery_s, checked, lost) = recover_and_verify(p, &dir, &plain.model);
    let _ = std::fs::remove_dir_all(&dir);
    o.absorb(plain.attempted + checked, plain.failed, plain.wrong + lost);

    if p.trace {
        let (db, dir, _) = setup(p, 1);
        let mut traced_out = Metrics::default();
        let traced = run_pass(p, &db, preloaded_model(p), true, &mut traced_out);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        o.absorb(traced.attempted, traced.failed, traced.wrong);
        for (k, m) in traced_out.0 {
            out.0.entry(k).or_insert(m);
        }
        out.set("lsm.recovery_s", recovery_s);
        let tp = |pass: &Pass| pass.timings.get("throughput_ops");
        out.set("obs.overhead_frac", 1.0 - ratio(tp(&traced), tp(&plain)));
        out.0.extend(plain.timings.0);
    } else {
        out.0.extend(plain.timings.0);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", peak_rss);
    }
    let _ = std::fs::remove_dir(&p.work_dir);
    o.metrics = out;
    o
}
