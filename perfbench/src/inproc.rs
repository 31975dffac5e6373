//! Counter probes of an in-process [`CachedDb`], shared by the `dynamic`
//! and `ingest` workloads. A probe is a snapshot of every counter the
//! layers expose; two probes give a measured phase's deltas.

use crate::report::{ratio, Metrics, Samples};
use adcache_cache::CacheStats;
use adcache_core::{h_estimate, CachedDb, CpuModel, Snapshot};
use adcache_lsm::{LockPath, LockPathSnapshot, LOCK_PATHS};
use std::sync::atomic::Ordering;

/// One snapshot of the counters of every layer.
pub struct Probe {
    pub snap: Snapshot,
    entries_returned: u64,
    io_writes: u64,
    io_syncs: u64,
    flushes: u64,
    compactions: u64,
    compaction_block_reads: u64,
    flush_block_writes: u64,
    seals: u64,
    write_stalls: u64,
    gc_rounds: u64,
    gc_batches: u64,
    block: CacheStats,
    range: CacheStats,
    locks: [LockPathSnapshot; LOCK_PATHS],
    admission: [u64; 3],
    resizes: u64,
}

impl Probe {
    pub fn take(db: &CachedDb) -> Probe {
        let t = db.db();
        let io = t.storage().stats();
        let sum = |f: fn(&adcache_lsm::DbStats) -> &std::sync::atomic::AtomicU64| {
            t.stats_sum(|s| f(s).load(Ordering::Relaxed))
        };
        let mut locks = [LockPathSnapshot::default(); LOCK_PATHS];
        for i in 0..t.num_stripes() {
            for (acc, s) in locks.iter_mut().zip(t.stripe(i).lock_stats()) {
                acc.acquisitions += s.acquisitions;
                acc.wait_ns += s.wait_ns;
                acc.hold_ns += s.hold_ns;
            }
        }
        let obs = db.obs();
        let (gc_rounds, gc_batches) = t.group_commit();
        Probe {
            snap: db.snapshot(),
            entries_returned: db.counters().entries_returned.load(Ordering::Relaxed),
            io_writes: io.writes(),
            io_syncs: io.syncs(),
            flushes: sum(|s| &s.flushes),
            compactions: t.compactions(),
            compaction_block_reads: sum(|s| &s.compaction_block_reads),
            flush_block_writes: sum(|s| &s.flush_block_writes),
            seals: sum(|s| &s.seals),
            write_stalls: sum(|s| &s.write_stalls),
            gc_rounds,
            gc_batches,
            block: db.block_cache().map(|b| b.stats()).unwrap_or_default(),
            range: db.range_cache().map(|r| r.stats()).unwrap_or_default(),
            locks,
            admission: [
                obs.counter("core.admission.accepts").get(),
                obs.counter("core.admission.rejects").get(),
                obs.counter("core.admission.partials").get(),
            ],
            resizes: obs.counter("core.boundary.resizes").get(),
        }
    }
}

/// Workload outcomes of the phase `start..now`: the paper's estimated hit
/// rate, SST reads per op, simulated-device throughput, and write and
/// space amplification. `live_user_bytes` is the key + value bytes the
/// store holds by the benchmark's own model.
pub fn outcomes(db: &CachedDb, start: &Probe, live_user_bytes: u64, out: &mut Metrics) {
    let end = Probe::take(db);
    let w = db.window_summary(&start.snap);
    let ops = w.ops() as f64;
    let cpu = CpuModel::default();
    let entries = (end.entries_returned - start.entries_returned) as f64;
    let sim_ns =
        w.simulated_ns as f64 + ops * cpu.ns_per_op as f64 + entries * cpu.ns_per_entry as f64;
    out.set("hit_rate", h_estimate(&w));
    out.set("sst_reads_per_op", ratio(w.io_miss as f64, ops));
    out.set("sim_throughput_ops", ratio(ops * 1e9, sim_ns));
    out.set(
        "write_amp",
        ratio(
            (end.io_writes - start.io_writes) as f64,
            (end.flush_block_writes - start.flush_block_writes) as f64,
        ),
    );
    let stored: u64 = db.db().level_summary().iter().map(|(_, _, b)| b).sum();
    out.set("space_amp", ratio(stored as f64, live_user_bytes as f64));
}

/// Cache- and LSM-layer metrics of the phase `start..now`.
pub fn layers(db: &CachedDb, start: &Probe, puts: u64, out: &mut Metrics) {
    let end = Probe::take(db);
    let ops = (end.snap.points + end.snap.scans + end.snap.writes)
        - (start.snap.points + start.snap.scans + start.snap.writes);
    let kops = ops as f64 / 1e3;
    let kputs = puts as f64 / 1e3;
    let d = |a: u64, b: u64| (a - b) as f64;

    let (bh, bm) = (
        d(end.block.hits, start.block.hits),
        d(end.block.misses, start.block.misses),
    );
    out.set("cache.block.hit_ratio", ratio(bh, bh + bm));
    out.set(
        "cache.block.evictions_per_kop",
        ratio(d(end.block.evictions, start.block.evictions), kops),
    );
    out.set(
        "cache.block.invalidations_per_kop",
        ratio(d(end.block.invalidations, start.block.invalidations), kops),
    );
    let (rh, rm) = (
        d(end.range.hits, start.range.hits),
        d(end.range.misses, start.range.misses),
    );
    out.set("cache.range.hit_ratio", ratio(rh, rh + rm));
    out.set(
        "cache.range.evictions_per_kop",
        ratio(d(end.range.evictions, start.range.evictions), kops),
    );
    let adm: Vec<f64> = (0..3)
        .map(|i| d(end.admission[i], start.admission[i]))
        .collect();
    let decided = adm.iter().sum::<f64>();
    out.set("cache.admission.accept_ratio", ratio(adm[0], decided));
    out.set("cache.admission.partial_ratio", ratio(adm[2], decided));
    out.set(
        "cache.range.segments",
        db.range_cache().map_or(0, |r| r.segment_count()) as f64,
    );
    out.set("cache.boundary.resizes", d(end.resizes, start.resizes));
    out.set("cache.sketch.resets", db.sketch_resets() as f64);

    for (path, name) in [
        (LockPath::Read, "read"),
        (LockPath::Write, "write"),
        (LockPath::Flush, "flush"),
        (LockPath::Compaction, "compaction"),
    ] {
        let (e, s) = (&end.locks[path as usize], &start.locks[path as usize]);
        let acq = d(e.acquisitions, s.acquisitions);
        out.set(
            &format!("lsm.{name}.hold_ns"),
            ratio(d(e.hold_ns, s.hold_ns), acq),
        );
        if matches!(path, LockPath::Read | LockPath::Write) {
            out.set(
                &format!("lsm.{name}.wait_ns"),
                ratio(d(e.wait_ns, s.wait_ns), acq),
            );
        }
    }
    out.set(
        "lsm.syncs_per_put",
        ratio(d(end.io_syncs, start.io_syncs), puts as f64),
    );
    out.set(
        "lsm.group_commit.mean_batch",
        ratio(
            d(end.gc_batches, start.gc_batches),
            d(end.gc_rounds, start.gc_rounds),
        ),
    );
    out.set("lsm.seals", d(end.seals, start.seals));
    out.set("lsm.write_stalls", d(end.write_stalls, start.write_stalls));
    out.set(
        "lsm.flushes_per_kput",
        ratio(d(end.flushes, start.flushes), kputs),
    );
    out.set(
        "lsm.compactions_per_kput",
        ratio(d(end.compactions, start.compactions), kputs),
    );
    out.set(
        "lsm.compaction_block_reads_per_kput",
        ratio(
            d(end.compaction_block_reads, start.compaction_block_reads),
            kputs,
        ),
    );
    out.set("lsm.runs", db.db().num_runs() as f64);
    out.set("lsm.levels", db.db().num_levels() as f64);
    out.set(
        "lsm.device_ns_per_op",
        ratio(
            d(end.snap.simulated_ns, start.snap.simulated_ns),
            ops as f64,
        ),
    );
}

/// Cheap per-call counters that class one engine call (traced runs only).
#[derive(Clone, Copy)]
pub struct CallMark {
    result_hits: u64,
    block_reads: u64,
    maintenance: u64,
}

impl CallMark {
    pub fn take(db: &CachedDb) -> CallMark {
        let c = db.counters();
        let t = db.db();
        CallMark {
            result_hits: c.range_hits.load(Ordering::Relaxed) + c.kv_hits.load(Ordering::Relaxed),
            block_reads: t.query_block_reads(),
            maintenance: t.stats_sum(|s| s.flushes.load(Ordering::Relaxed)) + t.compactions(),
        }
    }

    /// Whether a result cache answered the call that ran since `self`.
    pub fn hit(&self, after: &CallMark) -> bool {
        after.result_hits > self.result_hits
    }

    pub fn block_reads(&self, after: &CallMark) -> u64 {
        after.block_reads - self.block_reads
    }

    /// Whether a flush or compaction completed during the call.
    pub fn maintained(&self, after: &CallMark) -> bool {
        after.maintenance > self.maintenance
    }
}

/// Engine call classes the `core.*` spans distinguish.
#[derive(Clone, Copy)]
pub enum Call {
    Get,
    Scan,
    Put,
}

/// `core.*` spans: wall time of each `CachedDb` call, classed by the
/// counter deltas the call produced.
#[derive(Default)]
pub struct CoreSpans {
    get_hit: Samples,
    get_miss: Samples,
    scan_hit: Samples,
    scan_tail: Samples,
    put: Samples,
    put_maint: Samples,
    get_miss_blocks: u64,
    scan_tail_blocks: u64,
    gen: Samples,
}

impl CoreSpans {
    pub fn record(&mut self, call: Call, ns: u64, before: &CallMark, after: &CallMark) {
        let hit = before.hit(after);
        let blocks = before.block_reads(after);
        match call {
            Call::Get if hit => self.get_hit.push(ns),
            Call::Get => {
                self.get_miss.push(ns);
                self.get_miss_blocks += blocks;
            }
            Call::Scan if hit => self.scan_hit.push(ns),
            Call::Scan => {
                self.scan_tail.push(ns);
                self.scan_tail_blocks += blocks;
            }
            Call::Put if before.maintained(after) => self.put_maint.push(ns),
            Call::Put => self.put.push(ns),
        }
    }

    /// Time spent drawing one operation from the generator.
    pub fn record_gen(&mut self, ns: u64) {
        self.gen.push(ns);
    }

    pub fn emit(&self, db: &CachedDb, start: &Probe, out: &mut Metrics) {
        out.set("workload.gen_ns", self.gen.mean_ns());
        out.set("core.get_hit_ns", self.get_hit.mean_ns());
        out.set("core.get_miss_ns", self.get_miss.mean_ns());
        out.set("core.scan_hit_ns", self.scan_hit.mean_ns());
        out.set("core.scan_tail_ns", self.scan_tail.mean_ns());
        out.set("core.put_ns", self.put.mean_ns());
        out.set("core.put_maint_ns", self.put_maint.mean_ns());
        out.set(
            "lsm.blocks_per_get_miss",
            ratio(self.get_miss_blocks as f64, self.get_miss.len() as f64),
        );
        out.set(
            "lsm.blocks_per_scan_tail",
            ratio(self.scan_tail_blocks as f64, self.scan_tail.len() as f64),
        );
        let end = Probe::take(db);
        let reads = (end.snap.points + end.snap.scans) - (start.snap.points + start.snap.scans);
        let hits =
            (end.snap.range_hits + end.snap.kv_hits) - (start.snap.range_hits + start.snap.kv_hits);
        let scans = end.snap.scans - start.snap.scans;
        out.set(
            "core.result_hits_per_read",
            ratio(hits as f64, reads as f64),
        );
        out.set(
            "core.entries_per_scan",
            ratio(
                (end.entries_returned - start.entries_returned) as f64,
                scans as f64,
            ),
        );
    }
}
