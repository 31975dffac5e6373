//! Result plumbing shared by the workloads: latency samples, the metric
//! list a run emits, host provenance, and `/proc` readers.

use serde_json::Value;
use std::collections::BTreeMap;

/// Latency samples of one operation class, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64
    }

    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    pub fn mean_ns(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<u64>() as f64 / self.0.len() as f64
    }
}

/// Per-class latency samples of one measured phase.
#[derive(Default, Clone)]
pub struct OpLatencies {
    pub get: Samples,
    pub scan: Samples,
    pub put: Samples,
}

impl OpLatencies {
    pub fn merge(&mut self, other: &OpLatencies) {
        self.get.extend(&other.get);
        self.scan.extend(&other.scan);
        self.put.extend(&other.put);
    }

    /// Adds `{get,scan,put}_{p50,p99}_us` to `out`.
    pub fn emit(&mut self, out: &mut Metrics) {
        for (name, s) in [
            ("get", &mut self.get),
            ("scan", &mut self.scan),
            ("put", &mut self.put),
        ] {
            let n = s.len();
            out.set_n(&format!("{name}_p50_us"), s.quantile_us(0.50), n);
            out.set_n(&format!("{name}_p99_us"), s.quantile_us(0.99), n);
        }
    }
}

/// One reported number.
pub struct Metric {
    pub value: f64,
    /// Samples behind a latency quantile (0 for everything else).
    pub samples: usize,
}

/// The metrics one run reports, by name. Units live in the metric tables
/// of `main.rs`, the single list the output is checked against.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 0);
    }

    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), Metric { value, samples });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.value)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `xs` (0 when empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `field` (a `kB` line such as `VmHWM:`) of process `pid`'s status ("self"
/// for this one), in MiB.
fn status_mb(pid: &str, field: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one), in
/// MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    status_mb(pid, "VmHWM:")
}

/// Resets this process's peak resident set to its current one and returns
/// that, in MiB: the baseline [`peak_rss_above`] measures from.
pub fn rss_baseline_mb() -> f64 {
    // Writing "5" resets `VmHWM` to `VmRSS` (proc(5), `clear_refs`).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mb("self", "VmRSS:")
}

/// MiB by which this process's peak resident set rose above `baseline`
/// (a [`rss_baseline_mb`] reading): the engine's share, when the baseline
/// was taken just before the engine was built.
pub fn peak_rss_above(baseline: f64) -> f64 {
    peak_rss_mb("self") - baseline
}

/// Clock ticks per second of `/proc` CPU times (USER_HZ, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/.../stat` line.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// `(steal, total)` clock ticks of all CPUs so far, from `/proc/stat`:
/// time the hypervisor ran something else while this machine's CPUs
/// wanted to run.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Steal share of the interval since `start` (a [`steal_ticks`] reading).
pub fn steal_since(start: (u64, u64)) -> f64 {
    let now = steal_ticks();
    ratio((now.0 - start.0) as f64, (now.1 - start.1) as f64)
}

/// Host steal above this share of CPU time marks a round as disturbed.
pub const QUIET_STEAL: f64 = 0.03;

/// Runs `round` until at least `min` rounds ran and `want` of them were
/// quiet (host steal at most [`QUIET_STEAL`]), or `max` rounds ran; returns
/// the `want` rounds with the least steal, in the order they ran.
///
/// On a shared host the hypervisor sometimes gives this machine's CPUs to
/// other guests for tens of seconds; a round measured then times the
/// neighbours, not the program. Extra rounds let a run outlast such a spell.
pub fn quiet_rounds<T>(
    min: usize,
    want: usize,
    max: usize,
    mut round: impl FnMut() -> T,
) -> Vec<T> {
    let mut done = Vec::new();
    while done.len() < max {
        let steal0 = steal_ticks();
        let r = round();
        done.push((steal_since(steal0), r));
        let quiet = done.iter().filter(|(s, _)| *s <= QUIET_STEAL).count();
        if done.len() >= min && quiet >= want {
            break;
        }
    }
    quietest(done, want)
}

/// The `keep` entries of `rounds` with the least steal, in their original
/// order.
pub fn quietest<T>(rounds: Vec<(f64, T)>, keep: usize) -> Vec<T> {
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by(|&a, &b| rounds[a].0.total_cmp(&rounds[b].0).then(a.cmp(&b)));
    let mut picked = vec![false; rounds.len()];
    for &i in order.iter().take(keep) {
        picked[i] = true;
    }
    rounds
        .into_iter()
        .zip(picked)
        .filter_map(|((_, r), keep)| keep.then_some(r))
        .collect()
}

/// The `keep` entries of `rounds` with the highest `speed`, in their
/// original order.
///
/// Other guests' work on a shared host only ever slows a round, and on the
/// reference host it does so without showing as steal (throughput moved by
/// 1.3x between rounds at zero steal), so the fastest rounds are the least
/// disturbed ones. A slower program slows every round and still shows.
pub fn fastest<T>(rounds: Vec<T>, keep: usize, speed: impl Fn(&T) -> f64) -> Vec<T> {
    let scored: Vec<(f64, T)> = rounds.into_iter().map(|r| (-speed(&r), r)).collect();
    quietest(scored, keep)
}

/// CPU seconds process `pid` has used so far.
pub fn process_cpu_s(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// CPU seconds per thread of process `pid`, keyed by thread id, with each
/// thread's name.
pub fn thread_cpu_s(pid: u32) -> BTreeMap<u32, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let path = e.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let cpu = std::fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| stat_cpu_s(&s))
            .unwrap_or(0.0);
        out.insert(tid, (name.trim().to_string(), cpu));
    }
    out
}

/// Host and build provenance recorded with every result.
pub fn provenance(seed: u64, workload: &str, extra: Vec<(&str, Value)>) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let env = |k: &str| Value::from(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let mut fields = vec![
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("nproc", nproc.into()),
        ("cpu_model", cpu_model.into()),
        ("build_profile", profile.into()),
        ("commit", env("PERFBENCH_COMMIT")),
        ("source_digest", env("PERFBENCH_SOURCE_DIGEST")),
        ("rustc", env("PERFBENCH_RUSTC")),
    ];
    fields.extend(extra);
    object(vec![("provenance", object(fields))])
}

/// `{"name": {"value": v, "unit": u}, ...}` over the `(name, unit)` table.
pub fn metrics_json(metrics: &Metrics, table: &[(&str, &str)]) -> Value {
    object(
        table
            .iter()
            .map(|(name, unit)| {
                let m = object(vec![
                    ("value", metrics.get(name).into()),
                    ("unit", (*unit).into()),
                ]);
                (*name, m)
            })
            .collect(),
    )
}

/// A JSON object with `fields` in order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_ns(0.5), 50_000.0);
        assert_eq!(s.quantile_ns(0.99), 99_000.0);
        assert_eq!(s.quantile_us(1.0), 100.0);
        assert_eq!(Samples::default().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn quietest_keeps_least_stolen_rounds_in_order() {
        let rounds = vec![(0.3, "a"), (0.0, "b"), (0.5, "c"), (0.1, "d"), (0.0, "e")];
        assert_eq!(quietest(rounds, 3), vec!["b", "d", "e"]);
        assert_eq!(quietest(vec![(0.9, 1)], 1), vec![1]);
    }

    #[test]
    fn fastest_keeps_highest_speed_in_order() {
        let rounds = vec![3.0, 9.0, 1.0, 7.0];
        assert_eq!(fastest(rounds, 2, |r| *r), vec![9.0, 7.0]);
    }

    #[test]
    fn quiet_rounds_stops_at_min_on_a_quiet_host_and_at_max_otherwise() {
        let mut n = 0;
        let got = quiet_rounds(4, 2, 8, || {
            n += 1;
            n
        });
        assert_eq!(got.len(), 2);
        assert!((4..=8).contains(&n));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn stat_line_with_spaces_in_name() {
        let line = "42 (a b) S 1 1 1 0 -1 0 0 0 0 0 250 50 0 0 20 0 1 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
    }
}
