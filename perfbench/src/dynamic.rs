//! `dynamic`: the paper's Table 3 phases A→F against `Strategy::AdCache`
//! over `MemStorage` with `Options::small()`, one client thread, closed
//! loop, with the online controller stepped synchronously every window as
//! `run_schedule_on` steps it. The data set is ten times the cache.

use crate::inproc::{self, Call, CallMark, CoreSpans, Probe};
use crate::report::{
    fastest, median, peak_rss_above, quiet_rounds, ratio, rss_baseline_mb, Metrics, OpLatencies,
    Samples,
};
use crate::{Outcome, Params};
use adcache_core::{prepare_db, CachedDb, Controller, RunConfig, Strategy};
use adcache_obs::Obs;
use adcache_workload::{paper_dynamic_schedule, Operation, WorkloadConfig, WorkloadGen};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::time::Instant;

/// Keys loaded before measuring (×100 B values ≈ 13 MB of user data).
const KEYS: u64 = 100_000;
/// Operations per second of `--seconds` the schedule is sized to. The op
/// count is fixed by `--seconds`, not by the clock, so the I/O counts of
/// a seed repeat exactly.
const OPS_PER_SECOND: u64 = 10_000;
/// Cache budget as a share of the user data.
const CACHE_SHARE: f64 = 0.10;
/// Set-ups per untraced run, each with a pass of its own; the op budget is
/// split evenly over them, and timings pool the fastest half of the passes.
const PASSES: usize = 6;

type Model = BTreeMap<Bytes, Bytes>;

fn config(p: &Params) -> RunConfig {
    let workload = WorkloadConfig {
        num_keys: ((KEYS as f64 * p.scale) as u64).max(1_000),
        seed: p.seed,
        ..WorkloadConfig::default()
    };
    let data = workload.num_keys * (24 + workload.value_size as u64);
    RunConfig::new(
        Strategy::AdCache,
        (data as f64 * CACHE_SHARE) as usize,
        workload,
    )
}

/// The benchmark's model of the loaded store.
fn loaded_model(cfg: &RunConfig) -> Model {
    let mut model = Model::new();
    for op in WorkloadGen::new(cfg.workload.clone()).load_ops() {
        if let Operation::Put { key, value } = op {
            model.insert(key, value);
        }
    }
    model
}

/// One measured pass over the schedule.
struct Pass {
    lat: OpLatencies,
    ops: u64,
    busy_s: f64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    cpu_s: f64,
}

fn run_pass(
    p: &Params,
    cfg: &RunConfig,
    db: &CachedDb,
    mut model: Model,
    traced: bool,
    out: &mut Metrics,
) -> Pass {
    if traced {
        db.set_obs(Obs::enabled());
    }
    let ops = p.seconds as f64 * OPS_PER_SECOND as f64 * p.scale / PASSES as f64;
    let ops_per_phase = (ops as u64 / 6).max(1_000);
    let schedule = paper_dynamic_schedule(ops_per_phase);
    let total = schedule.total_ops();
    let mut gen = WorkloadGen::new(cfg.workload.clone());
    let mut controller = Controller::new(cfg.controller.clone());
    if traced {
        controller.set_obs(db.obs());
    }
    let window = cfg.controller.window.max(1);

    let mut pass = Pass {
        lat: OpLatencies::default(),
        ops: total,
        busy_s: 0.0,
        attempted: 0,
        failed: 0,
        wrong: 0,
        cpu_s: 0.0,
    };
    let mut spans = CoreSpans::default();
    let (mut window_ns, mut eow) = (Samples::default(), Samples::default());
    // The boundary in force: the controller's last decision.
    let mut range_ratio = controller.decision().range_ratio;
    let mut range_ratio_at_phase_end = Vec::new();
    let mut puts = 0u64;
    let start = Probe::take(db);
    let cpu0 = crate::report::process_cpu_s("self");
    let mut check_s = 0.0;
    let t_run = Instant::now();
    let mut win_start = db.snapshot();

    for executed in 0..total {
        let (phase, offset) = schedule.phase_at(executed).expect("within schedule");
        let t_gen = Instant::now();
        let op = gen.next_op(&phase.mix);
        if traced {
            spans.record_gen(t_gen.elapsed().as_nanos() as u64);
        }
        let before = traced.then(|| CallMark::take(db));
        let t0 = Instant::now();
        let (call, got) = match &op {
            Operation::Get { key } => (Call::Get, db.get(key).map(Got::Value)),
            Operation::Scan { from, len } => (Call::Scan, db.scan(from, *len).map(Got::Entries)),
            Operation::Put { key, value } => (
                Call::Put,
                db.put(key.clone(), value.clone()).map(|_| Got::Done),
            ),
            Operation::Delete { key } => (Call::Put, db.delete(key.clone()).map(|_| Got::Done)),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(before) = before {
            spans.record(call, ns, &before, &CallMark::take(db));
        }
        pass.attempted += 1;

        let t_check = Instant::now();
        match call {
            Call::Get => pass.lat.get.push(ns),
            Call::Scan => pass.lat.scan.push(ns),
            Call::Put => {
                pass.lat.put.push(ns);
                puts += 1;
            }
        }
        match got {
            Err(e) => {
                pass.failed += 1;
                eprintln!("dynamic: op {executed} failed: {e}");
            }
            Ok(got) => {
                if !check(&mut model, &op, got) {
                    pass.wrong += 1;
                    if pass.wrong <= 5 {
                        eprintln!("dynamic: op {executed} ({op:?}) returned a wrong result");
                    }
                }
            }
        }
        check_s += t_check.elapsed().as_secs_f64();

        if (executed + 1) % window == 0 {
            let t_w = Instant::now();
            let w = db.window_summary(&win_start);
            let t_rl = Instant::now();
            let d = controller.end_of_window(&w);
            let rl_ns = t_rl.elapsed().as_nanos() as u64;
            db.apply_decision(&d);
            win_start = db.snapshot();
            if traced {
                eow.push(rl_ns);
                window_ns.push(t_w.elapsed().as_nanos() as u64 - rl_ns);
            }
            range_ratio = d.range_ratio;
        }
        if offset + 1 == phase.ops {
            range_ratio_at_phase_end.push((phase.name.clone(), range_ratio));
        }
    }
    pass.busy_s = t_run.elapsed().as_secs_f64() - check_s;
    pass.cpu_s = crate::report::process_cpu_s("self") - cpu0;

    let live: u64 = model.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
    inproc::outcomes(db, &start, live, out);
    if traced {
        spans.emit(db, &start, out);
        inproc::layers(db, &start, puts, out);
        out.set("core.window_ns", window_ns.mean_ns());
        out.set("rl.end_of_window_ns", eow.mean_ns());
        out.set("rl.windows", eow.len() as f64);
        for (name, r) in range_ratio_at_phase_end {
            out.set(&format!("rl.range_ratio.{name}"), r);
        }
        out.set(
            "proc.cpu_util",
            ratio(pass.cpu_s, t_run.elapsed().as_secs_f64()),
        );
    }
    pass
}

/// What an engine call returned.
enum Got {
    Value(Option<Bytes>),
    Entries(Vec<(Bytes, Bytes)>),
    Done,
}

/// Checks `got` against the model and applies writes to it.
fn check(model: &mut Model, op: &Operation, got: Got) -> bool {
    match (op, got) {
        (Operation::Get { key }, Got::Value(v)) => model.get(key) == v.as_ref(),
        (Operation::Scan { from, len }, Got::Entries(es)) => {
            let want = model.range(from.clone()..).take(*len);
            es.len() == want.clone().count()
                && es.iter().zip(want).all(|(a, (k, v))| a.0 == k && a.1 == v)
        }
        (Operation::Put { key, value }, Got::Done) => {
            model.insert(key.clone(), value.clone());
            true
        }
        (Operation::Delete { key }, Got::Done) => {
            model.remove(key);
            true
        }
        _ => false,
    }
}

/// Builds and loads a fresh engine; returns it with the build time.
fn setup(cfg: &RunConfig) -> (CachedDb, f64) {
    let t = Instant::now();
    let db = prepare_db(cfg).expect("dynamic: load failed");
    (db, t.elapsed().as_secs_f64())
}

impl Pass {
    fn throughput(&self) -> f64 {
        ratio(self.ops as f64, self.busy_s)
    }
}

pub fn run(p: &Params) -> Outcome {
    let cfg = config(p);
    let mut out = Metrics::default();
    let data_bytes = cfg.workload.num_keys * (24 + cfg.workload.value_size as u64);
    let mut o = Outcome::new(vec![
        ("data_bytes", data_bytes.into()),
        ("cache_bytes", cfg.total_cache_bytes.into()),
        ("flush_policy", "none (MemStorage, no WAL)".into()),
    ]);

    if p.trace {
        let (db, _) = setup(&cfg);
        let mut plain = run_pass(p, &cfg, &db, loaded_model(&cfg), false, &mut out);
        drop(db);
        o.absorb(plain.attempted, plain.failed, plain.wrong);
        plain.lat.emit(&mut out);
        let (db, _) = setup(&cfg);
        let mut traced_out = Metrics::default();
        let traced = run_pass(p, &cfg, &db, loaded_model(&cfg), true, &mut traced_out);
        o.absorb(traced.attempted, traced.failed, traced.wrong);
        for (k, m) in traced_out.0 {
            out.0.entry(k).or_insert(m);
        }
        out.set(
            "obs.overhead_frac",
            1.0 - ratio(traced.throughput(), plain.throughput()),
        );
    } else {
        // Each set-up gets a pass of its own; timings pool the fastest of
        // the quiet passes, the I/O outcomes are the same in every pass.
        let (mut setups, mut outcomes, mut peak_rss) = (Vec::new(), Vec::new(), 0.0);
        let passes = quiet_rounds(PASSES, PASSES, 2 * PASSES, || {
            // The model exists before the engine, so the peak resident set
            // above this baseline is the engine's.
            let model = loaded_model(&cfg);
            let rss_baseline = rss_baseline_mb();
            let (db, setup_s) = setup(&cfg);
            setups.push(setup_s);
            let mut pass_outcomes = Metrics::default();
            let pass = run_pass(p, &cfg, &db, model, false, &mut pass_outcomes);
            if outcomes.is_empty() {
                // One engine's peak; later passes only add allocator reuse.
                peak_rss = peak_rss_above(rss_baseline);
            }
            drop(db);
            o.absorb(pass.attempted, pass.failed, pass.wrong);
            outcomes.push(pass_outcomes);
            pass
        });
        let reads: Vec<f64> = outcomes.iter().map(|m| m.get("sst_reads_per_op")).collect();
        if reads.iter().any(|r| *r != reads[0]) {
            eprintln!("dynamic: passes read different numbers of SST blocks: {reads:?}");
        }
        out = outcomes.swap_remove(0);
        let passes = fastest(passes, PASSES / 2, Pass::throughput);
        // The kept passes are pooled: all their samples and all their time.
        let mut lat = OpLatencies::default();
        for pass in &passes {
            lat.merge(&pass.lat);
        }
        lat.emit(&mut out);
        let ops: u64 = passes.iter().map(|pass| pass.ops).sum();
        out.set(
            "throughput_ops",
            ratio(ops as f64, passes.iter().map(|pass| pass.busy_s).sum()),
        );
        out.set("setup_s", median(setups));
        out.set("peak_rss_mb", peak_rss);
    }
    o.metrics = out;
    o
}
