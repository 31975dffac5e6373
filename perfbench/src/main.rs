//! The repository benchmark: three workloads driven through the program's
//! public entry points, printing end-to-end metrics (untraced run) or
//! per-layer metrics (traced run). See `README.md` for the workload and
//! metric map.
//!
//! ```text
//! perfbench --workload dynamic|ingest|serve --seed N --seconds S --trace 0|1
//!           [--scale F] [--adcache-bin PATH] [--work-dir DIR]
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when
//! any output check failed.

mod dynamic;
mod ingest;
mod inproc;
mod report;
mod serve;

use report::{metrics_json, object, provenance, Metrics};
use serde_json::Value;
use std::path::PathBuf;

/// End-to-end metrics: `(name, unit, better)`. Every workload reports
/// every one of them, from its untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("throughput_ops", "ops/s", "higher"),
    ("get_p50_us", "us", "lower"),
    ("scan_p50_us", "us", "lower"),
    ("put_p50_us", "us", "lower"),
    ("sst_reads_per_op", "reads/op", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: `(name, unit)`, reported by the traced run. A layer
/// a workload does not cross reports 0. The workload outcomes at the top
/// come from the run's untraced half: tail latencies (too host-sensitive
/// to gate on a shared machine) and metrics only some workloads have.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("get_p99_us", "us"),
    ("scan_p99_us", "us"),
    ("put_p99_us", "us"),
    ("hit_rate", "frac"),
    ("sim_throughput_ops", "ops/s"),
    ("write_amp", "x"),
    ("space_amp", "x"),
    ("slo_qps", "ops/s"),
    ("error_rate", "frac"),
    ("workload.gen_ns", "ns"),
    ("core.get_hit_ns", "ns"),
    ("core.get_miss_ns", "ns"),
    ("core.scan_hit_ns", "ns"),
    ("core.scan_tail_ns", "ns"),
    ("core.put_ns", "ns"),
    ("core.put_maint_ns", "ns"),
    ("core.result_hits_per_read", "frac"),
    ("core.entries_per_scan", "entries"),
    ("core.window_ns", "ns"),
    ("rl.end_of_window_ns", "ns"),
    ("rl.windows", "count"),
    ("rl.range_ratio.A", "frac"),
    ("rl.range_ratio.B", "frac"),
    ("rl.range_ratio.C", "frac"),
    ("rl.range_ratio.D", "frac"),
    ("rl.range_ratio.E", "frac"),
    ("rl.range_ratio.F", "frac"),
    ("cache.block.hit_ratio", "frac"),
    ("cache.block.evictions_per_kop", "1/kop"),
    ("cache.block.invalidations_per_kop", "1/kop"),
    ("cache.range.hit_ratio", "frac"),
    ("cache.range.evictions_per_kop", "1/kop"),
    ("cache.admission.accept_ratio", "frac"),
    ("cache.admission.partial_ratio", "frac"),
    ("cache.range.segments", "count"),
    ("cache.boundary.resizes", "count"),
    ("cache.sketch.resets", "count"),
    ("lsm.read.hold_ns", "ns"),
    ("lsm.read.wait_ns", "ns"),
    ("lsm.write.hold_ns", "ns"),
    ("lsm.write.wait_ns", "ns"),
    ("lsm.syncs_per_put", "syncs/put"),
    ("lsm.group_commit.mean_batch", "batches"),
    ("lsm.flush.hold_ns", "ns"),
    ("lsm.compaction.hold_ns", "ns"),
    ("lsm.seals", "count"),
    ("lsm.write_stalls", "count"),
    ("lsm.flushes_per_kput", "1/kput"),
    ("lsm.compactions_per_kput", "1/kput"),
    ("lsm.compaction_block_reads_per_kput", "1/kput"),
    ("lsm.blocks_per_get_miss", "blocks"),
    ("lsm.blocks_per_scan_tail", "blocks"),
    ("lsm.runs", "count"),
    ("lsm.levels", "count"),
    ("lsm.device_ns_per_op", "ns"),
    ("lsm.recovery_s", "s"),
    ("server.worker_cpu_us_per_req", "us"),
    ("server.other_cpu_us_per_req", "us"),
    ("server.stage.parse_ns", "ns"),
    ("server.stage.queue_wait_ns", "ns"),
    ("server.stage.lock_wait_ns", "ns"),
    ("server.stage.engine_exec_ns", "ns"),
    ("server.stage.cache_layer_ns", "ns"),
    ("server.stage.reply_flush_ns", "ns"),
    ("server.result_hit_ratio", "frac"),
    ("server.bytes_per_req", "B"),
    ("loadgen.late_us", "us"),
    ("loadgen.cpu_us_per_req", "us"),
    ("obs.overhead_frac", "frac"),
    ("proc.cpu_util", "frac"),
];

/// Benchmark arguments. The seed shapes the generated inputs only; the
/// program under test never sees it.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Multiplier on data sizes and op counts (1.0 = the defined benchmark;
    /// the benchmark's own tests use a small one).
    pub scale: f64,
    pub adcache_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    /// Failed, refused or wrong operations.
    pub failed: u64,
    /// Workload-specific provenance fields.
    pub provenance: Vec<(&'static str, Value)>,
}

impl Outcome {
    pub fn new(provenance: Vec<(&'static str, Value)>) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            provenance,
        }
    }

    /// Counts a pass's operations and its failed, refused or wrong ones.
    pub fn absorb(&mut self, attempted: u64, failed: u64, wrong: u64) {
        self.attempted += attempted;
        self.failed += failed + wrong;
    }
}

fn parse_args() -> Result<Params, String> {
    let mut p = Params {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        scale: 1.0,
        adcache_bin: PathBuf::from("target/release/adcache"),
        work_dir: PathBuf::from(".perfbench_work"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => p.workload = val()?,
            "--seed" => p.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => p.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => p.trace = val()? == "1",
            "--scale" => p.scale = val()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--adcache-bin" => p.adcache_bin = val()?.into(),
            "--work-dir" => p.work_dir = val()?.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if p.seconds == 0 || p.scale <= 0.0 {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(p)
}

fn main() {
    let p = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal0 = report::steal_ticks();
    let outcome = match p.workload.as_str() {
        "dynamic" => dynamic::run(&p),
        "ingest" => ingest::run(&p),
        "serve" => serve::run(&p),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (dynamic, ingest, serve)");
            std::process::exit(2);
        }
    };
    let Outcome {
        mut metrics,
        attempted,
        failed,
        provenance: mut extra,
    } = outcome;
    // The share of CPU time the hypervisor gave to other guests while this
    // run wanted it: the main source of run-to-run noise on shared hosts.
    extra.push(("host_steal_frac", report::steal_since(steal0).into()));
    let error_rate = report::ratio(failed as f64, attempted as f64);
    let table: Vec<(&str, &str)> = if p.trace {
        metrics.set("error_rate", error_rate);
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect()
    };

    println!("{}", to_json(&provenance(p.seed, &p.workload, extra)));
    for (name, unit, better) in END_TO_END.iter().filter(|_| !p.trace) {
        let m = &metrics.0[*name];
        let n = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        println!(
            "{:<18} {:>14} {unit:<8} {better} is better{n}",
            name, m.value
        );
    }
    for (name, unit) in PER_LAYER.iter().filter(|_| p.trace) {
        println!("{:<36} {:>14} {unit}", name, metrics.get(name));
    }
    println!("error_rate {error_rate} ({failed} failed, refused or wrong of {attempted})");
    let correct = failed == 0;
    let result = object(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(&metrics, &table)),
    ]);
    println!("{}", to_json(&result));
    if !correct {
        eprintln!(
            "perfbench: {failed} output check(s) failed on {}",
            p.workload
        );
        std::process::exit(1);
    }
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value always encodes")
}
