//! `serve`: the real `adcache serve` binary as a child process, at its
//! defaults plus `--no-telemetry`, filled with 100k keys so the data fits
//! its cache. Two connections over loopback send a read-mostly mix (90%
//! get / 5% short scan / 5% put):
//!
//! - open loop at one fixed rate for the latency quantiles, each request
//!   timed from its due time;
//! - closed loop for `throughput_ops`;
//! - (traced run) open loop over a ladder of rates for `slo_qps`, and a
//!   second server with telemetry on for the `server.stage.*` breakdown.
//!
//! The open-loop load generator is the benchmark's own: one thread per connection
//! sends each request at its due time and, between sends, blocks in
//! `ppoll` until a reply arrives or the next send is due. It never spins,
//! never naps, and never caps requests in flight.

use crate::report::{
    median, peak_rss_mb, process_cpu_s, quiet_rounds, ratio, thread_cpu_s, Metrics, OpLatencies,
    Samples,
};
use crate::{Outcome, Params};
use adcache_server::{
    decode_response, encode_request, Client, Opcode, Progress, Request, Response,
};
use adcache_workload::{parse_key, render_key, Mix, Operation, WorkloadConfig, WorkloadGen};
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FILL: u64 = 100_000;
const CONNS: u64 = 2;
const MIX: Mix = Mix::new(90.0, 5.0, 0.0, 5.0);
const VALUE_SIZE: usize = 100;
/// Offered load of the latency phase, summed over both connections.
const FIXED_RATE: f64 = 4_000.0;
/// Offered loads of the `slo_qps` ladder, up to the closed-loop capacity
/// of the reference host (25k–70k ops/s, depending on its neighbours).
const LADDER: [f64; 10] = [
    2_000.0, 4_000.0, 8_000.0, 12_000.0, 16_000.0, 20_000.0, 24_000.0, 32_000.0, 40_000.0, 48_000.0,
];
/// p99 latency limit of a ladder step.
const P99_LIMIT_US: f64 = 1_000.0;
/// Time allowed to drain the replies still in flight after the last send;
/// a reply later than this counts as lost. Long enough that a stalled
/// host delays a reply rather than losing it.
const DRAIN: Duration = Duration::from_secs(10);
/// Share of a server's measured seconds spent warming its caches before
/// the rounds start.
const WARMUP_SHARE: f64 = 0.1;
/// Sweeps over the whole key space before the closed-loop warm-up, in
/// scans of `SWEEP_LEN` keys. Admission takes a range into the range cache
/// once it has been scanned often enough. Three sweeps leave about 70% of
/// the measured short scans covered, so `scan_p50_us` sits inside the fast
/// mode (covered scans take 120–350 µs, the rest 530–900 µs). Without them,
/// about 35% were covered, and the median sat at the boundary between the
/// modes. There it moved by 26% between sets of runs of the same code.
const WARM_SWEEPS: u64 = 3;
const SWEEP_LEN: u64 = 100;
/// Fixed-rate rounds per server; the quietest half is pooled (see
/// `quiet_rounds`).
const ROUNDS: usize = 10;
/// Closed-loop rounds per server. A round's rate moves by up to 2x with
/// background flushes and compactions and with where the scheduler puts
/// the four busy threads on the two CPUs; many short rounds, over several
/// servers, average that out.
const CLOSED_ROUNDS: usize = 20;
/// Share of the measured time spent at the fixed rate; the rest runs
/// closed loop.
const FIXED_SHARE: f64 = 0.7;
/// Servers per untraced run, each measured for its share of the run;
/// `setup_s` and `peak_rss_mb` are their medians.
const SERVERS: usize = 3;

/// A running `adcache serve` child; killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: String,
    /// Drains the child's stdout; ends when the child exits.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    fn start(p: &Params, fill: u64, telemetry: bool) -> ServerProc {
        let mut cmd = Command::new(&p.adcache_bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--fill",
            &fill.to_string(),
        ]);
        if !telemetry {
            cmd.arg("--no-telemetry");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("serve: cannot start {}: {e}", p.adcache_bin.display()));
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(l)) => {
                    if let Some(rest) = l.strip_prefix("serving on ") {
                        break rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("serve: server exited before listening");
                }
            }
        };
        // Keep draining the child's stdout so it never blocks on a full pipe.
        let drain = Some(std::thread::spawn(move || for _ in lines {}));
        let server = ServerProc { child, addr, drain };
        let mut c = server.client();
        assert_eq!(c.call(&Request::Ping).expect("serve: ping"), Response::Ok);
        server
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("serve: connect")
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stats(&self) -> serde_json::Value {
        let json = self.client().stats().expect("serve: STATS");
        serde_json::from_str(&json).expect("serve: STATS json")
    }

    /// Asks the server to drain and exit, and reaps it.
    fn stop(mut self) {
        let _ = self.client().shutdown_server();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Counter `k` of `STATS` section `section` ("engine" or "server").
fn stat_u64(v: &serde_json::Value, section: &str, k: &str) -> u64 {
    v.get(section)
        .and_then(|s| s.get(k))
        .and_then(|x| x.as_u64())
        .unwrap_or(0)
}

/// The value the server's `--fill` stored under key id `k`.
fn fill_value(k: u64) -> Bytes {
    Bytes::from(format!("value-{k}"))
}

/// Value `seq` written by connection `c`.
fn conn_value(c: u64, seq: u64) -> Bytes {
    let mut v = format!("c{c}-{seq:016}-").into_bytes();
    v.resize(VALUE_SIZE, b'.');
    Bytes::from(v)
}

/// One connection's generator and its model of the keys it owns (the key
/// ids of its parity); kept across phases against one server.
struct ConnState {
    conn: u64,
    fill: u64,
    gen: WorkloadGen,
    model: HashMap<u64, Bytes>,
    seq: u64,
}

impl ConnState {
    fn new(p: &Params, conn: u64, fill: u64) -> ConnState {
        let gen = WorkloadGen::new(WorkloadConfig {
            num_keys: fill,
            value_size: VALUE_SIZE,
            seed: p.seed.wrapping_mul(31).wrapping_add(conn),
            ..WorkloadConfig::default()
        });
        ConnState {
            conn,
            fill,
            gen,
            model: HashMap::new(),
            seq: 0,
        }
    }

    fn next_request(&mut self) -> Request {
        match self.gen.next_op(&MIX) {
            Operation::Get { key } => Request::Get { key },
            Operation::Scan { from, len } => Request::Scan {
                from,
                limit: len as u32,
            },
            Operation::Put { key, .. } | Operation::Delete { key } => {
                let k = parse_key(&key).expect("generated key");
                self.seq += 1;
                Request::Put {
                    key: render_key(k - k % CONNS + self.conn),
                    value: conn_value(self.conn, self.seq),
                }
            }
        }
    }

    /// Whether `v` may be the value of key id `k` right now: exact for
    /// the keys this connection owns, either the fill value or the owner's
    /// tag for the others.
    fn value_ok(&self, k: u64, v: &Bytes) -> bool {
        if k % CONNS == self.conn {
            *v == self.model.get(&k).cloned().unwrap_or_else(|| fill_value(k))
        } else {
            *v == fill_value(k) || v.starts_with(format!("c{}-", k % CONNS).as_bytes())
        }
    }

    /// Checks one reply against its request and applies acknowledged puts.
    fn check(&mut self, req: &Request, resp: &Response) -> bool {
        match (req, resp) {
            (Request::Get { key }, Response::Value(v)) => {
                parse_key(key).is_some_and(|k| self.value_ok(k, v))
            }
            (Request::Scan { from, limit }, Response::Entries(es)) => {
                let first = parse_key(from).expect("generated key");
                es.len() as u64 == (*limit as u64).min(self.fill - first)
                    && es.iter().enumerate().all(|(i, (k, v))| {
                        let id = first + i as u64;
                        *k == render_key(id) && self.value_ok(id, v)
                    })
            }
            (Request::Put { key, value }, Response::Ok) => {
                let k = parse_key(key).expect("generated key");
                self.model.insert(k, value.clone());
                true
            }
            _ => false,
        }
    }
}

/// How one phase paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Open loop: the connection's requests fall due at this rate.
    Open(f64),
    /// Closed loop: the next request goes out when the previous reply
    /// arrives.
    Closed,
}

#[derive(Default)]
struct PhaseResult {
    lat: OpLatencies,
    /// Send time minus due time, per request.
    late: Samples,
    sent: u64,
    completed: u64,
    failed: u64,
    wrong: u64,
    elapsed_s: f64,
}

impl PhaseResult {
    /// Folds in one connection's result of the same phase.
    fn merge(&mut self, o: PhaseResult) {
        self.lat.merge(&o.lat);
        self.late.extend(&o.late);
        self.count(&o);
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
    }

    /// Adds `o`'s request counts.
    fn count(&mut self, o: &PhaseResult) {
        self.sent += o.sent;
        self.completed += o.completed;
        self.failed += o.failed;
        self.wrong += o.wrong;
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Blocks until `fd` is ready for `events` or `timeout` passes. `ppoll`
/// sleeps on a high-resolution timer, unlike a socket read timeout, which
/// the kernel rounds up to scheduler ticks.
fn wait_ready(fd: i32, events: i16, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Drives one connection for `duration` at `pace`.
fn drive(addr: &str, st: &mut ConnState, pace: Pace, duration: Duration) -> PhaseResult {
    // Default timer slack (50 µs) would make every wake-up late by up to
    // that much; ask for the tightest the kernel gives.
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
    let mut r = PhaseResult::default();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: conn {}: connect failed: {e}", st.conn);
            r.failed += 1;
            return r;
        }
    };
    stream.set_nodelay(true).expect("nodelay");
    stream.set_nonblocking(true).expect("nonblocking");
    let fd = stream.as_raw_fd();

    let start = Instant::now();
    let end = start + duration;
    let interval = match pace {
        Pace::Open(rate) => Duration::from_secs_f64(1.0 / rate),
        Pace::Closed => Duration::ZERO,
    };
    // Stagger the connections so their sends interleave.
    let mut next_due = start + interval.mul_f64(st.conn as f64 / CONNS as f64);
    let mut next_id = 1u64;
    let mut inflight: VecDeque<(u64, Request, Instant)> = VecDeque::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut broken = false;

    loop {
        let now = Instant::now();
        let sending = now < end && !broken;
        // Issue every request that has fallen due.
        while sending && next_due <= now && (matches!(pace, Pace::Open(_)) || inflight.is_empty()) {
            let due = if matches!(pace, Pace::Closed) {
                now
            } else {
                next_due
            };
            let req = st.next_request();
            encode_request(&mut wbuf, next_id, &req);
            r.late
                .push(now.saturating_duration_since(due).as_nanos() as u64);
            inflight.push_back((next_id, req, due));
            next_id += 1;
            r.sent += 1;
            next_due = if matches!(pace, Pace::Closed) {
                now
            } else {
                next_due + interval
            };
        }
        while !wbuf.is_empty() {
            match stream.write(&wbuf) {
                Ok(n) => {
                    wbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("serve: conn {}: write failed: {e}", st.conn);
                    broken = true;
                    break;
                }
            }
        }
        // Read every reply that has arrived.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    eprintln!("serve: conn {}: server closed the connection", st.conn);
                    broken = true;
                    break;
                }
                Ok(n) => {
                    rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("serve: conn {}: read failed: {e}", st.conn);
                    broken = true;
                    break;
                }
            }
        }
        let got_at = Instant::now();
        while let Some((id, req, due)) = inflight.front() {
            let awaiting = req.opcode();
            match decode_response(&rbuf, adcache_server::protocol::DEFAULT_MAX_FRAME, awaiting) {
                Progress::Frame(res, consumed) => {
                    rbuf.drain(..consumed);
                    let ns = got_at.saturating_duration_since(*due).as_nanos() as u64;
                    let ok = match &res {
                        Ok((got, resp)) => *got == *id && st.check(req, resp),
                        Err(_) => false,
                    };
                    match awaiting {
                        Opcode::Get => r.lat.get.push(ns),
                        Opcode::Scan => r.lat.scan.push(ns),
                        _ => r.lat.put.push(ns),
                    }
                    if ok {
                        r.completed += 1;
                    } else {
                        r.wrong += 1;
                        if r.wrong <= 5 {
                            eprintln!("serve: conn {} request {id}: bad reply {res:?}", st.conn);
                        }
                    }
                    inflight.pop_front();
                }
                Progress::Incomplete => break,
                Progress::Fatal(e) => {
                    eprintln!("serve: conn {}: broken framing: {e}", st.conn);
                    broken = true;
                    break;
                }
            }
        }

        let now = Instant::now();
        if broken || (now >= end && inflight.is_empty()) || now >= end + DRAIN {
            break;
        }
        let wake = if now < end && matches!(pace, Pace::Open(_)) {
            next_due.min(end)
        } else {
            end + DRAIN
        };
        let mut events = POLLIN;
        if !wbuf.is_empty() {
            events |= POLLOUT;
        }
        if matches!(pace, Pace::Closed) && inflight.is_empty() && now < end {
            continue;
        }
        wait_ready(fd, events, wake.saturating_duration_since(now));
    }
    // Requests never answered count as failed (and over any latency limit).
    if !inflight.is_empty() {
        eprintln!(
            "serve: conn {}: {} request(s) unanswered{}",
            st.conn,
            inflight.len(),
            if broken {
                " on a broken connection"
            } else {
                " after the drain window"
            }
        );
    }
    r.failed += inflight.len() as u64;
    for (_, req, _) in &inflight {
        let never = u64::MAX / 2;
        match req.opcode() {
            Opcode::Get => r.lat.get.push(never),
            Opcode::Scan => r.lat.scan.push(never),
            _ => r.lat.put.push(never),
        }
    }
    r.elapsed_s = start.elapsed().as_secs_f64();
    r
}

/// Runs one phase on every connection at once; `rate` is the total
/// offered load of an open-loop phase.
fn phase(addr: &str, conns: &mut [ConnState], pace: Pace, duration: Duration) -> PhaseResult {
    let per_conn = match pace {
        Pace::Open(rate) => Pace::Open(rate / conns.len() as f64),
        Pace::Closed => Pace::Closed,
    };
    let mut total = PhaseResult::default();
    std::thread::scope(|s| {
        let hs: Vec<_> = conns
            .iter_mut()
            .map(|st| s.spawn(move || drive(addr, st, per_conn, duration)))
            .collect();
        for h in hs {
            total.merge(h.join().expect("connection thread panicked"));
        }
    });
    total
}

/// Starts a filled server; returns it with the time from spawn to the
/// first answered ping.
fn setup(p: &Params, fill: u64, telemetry: bool) -> (ServerProc, f64) {
    let t = Instant::now();
    let server = ServerProc::start(p, fill, telemetry);
    (server, t.elapsed().as_secs_f64())
}

/// The phases measured against one server: fixed-rate rounds for the
/// latencies, then closed-loop rounds for the throughput, and the
/// server-side deltas over all of them.
struct Measured {
    warmup: PhaseResult,
    /// Request counts of every measured round, kept or not.
    all: PhaseResult,
    /// The kept (quietest) rounds.
    fixed: Vec<PhaseResult>,
    closed: Vec<PhaseResult>,
    /// Engine block reads and operations over all measured rounds.
    block_reads: f64,
    ops: f64,
    stats_before: serde_json::Value,
    stats_after: serde_json::Value,
    worker_cpu_s: f64,
    other_cpu_s: f64,
    own_cpu_s: f64,
    wall_s: f64,
}

/// Scans the whole key space `WARM_SWEEPS` times in order, checking every
/// reply as `st` would.
fn sweep(server: &ServerProc, st: &mut ConnState) -> PhaseResult {
    let mut r = PhaseResult::default();
    let mut client = server.client();
    for from in (0..WARM_SWEEPS * st.fill).step_by(SWEEP_LEN as usize) {
        let req = Request::Scan {
            from: render_key(from % st.fill),
            limit: SWEEP_LEN as u32,
        };
        r.sent += 1;
        match client.call(&req) {
            Ok(resp) if st.check(&req, &resp) => r.completed += 1,
            Ok(resp) => {
                r.wrong += 1;
                eprintln!("serve: warm-up {req:?}: bad reply {resp:?}");
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("serve: warm-up {req:?} failed: {e}");
            }
        }
    }
    r
}

fn measure(server: &ServerProc, conns: &mut [ConnState], seconds: f64) -> Measured {
    let swept = sweep(server, &mut conns[0]);
    // Closed loop touches many more keys than the fixed rate would, so the
    // measured rounds see few first-touch block reads.
    let mut warmup = phase(
        &server.addr,
        conns,
        Pace::Closed,
        Duration::from_secs_f64(seconds * WARMUP_SHARE),
    );
    warmup.count(&swept);
    let measured_s = seconds * (1.0 - WARMUP_SHARE);
    let stats_before = server.stats();
    let threads0 = thread_cpu_s(server.pid());
    let own0 = process_cpu_s("self");
    let t = Instant::now();
    // Every round is checked; the quietest half of them is measured.
    let mut all = PhaseResult::default();
    let mut rounds = |pace: Pace, share: f64, n: usize| {
        let length = Duration::from_secs_f64(measured_s * share / n as f64);
        quiet_rounds(n, n / 2, 2 * n, || {
            let r = phase(&server.addr, conns, pace, length);
            all.count(&r);
            r
        })
    };
    let fixed = rounds(Pace::Open(FIXED_RATE), FIXED_SHARE, ROUNDS);
    let closed = rounds(Pace::Closed, 1.0 - FIXED_SHARE, CLOSED_ROUNDS);
    let wall_s = t.elapsed().as_secs_f64();
    let own_cpu_s = process_cpu_s("self") - own0;
    let (mut worker, mut other) = (0.0, 0.0);
    for (tid, (name, cpu)) in &thread_cpu_s(server.pid()) {
        let d = cpu - threads0.get(tid).map_or(0.0, |t| t.1);
        if name.starts_with("adcache-worker") {
            worker += d;
        } else {
            other += d;
        }
    }
    let stats_after = server.stats();
    let d = |a: &serde_json::Value, b: &serde_json::Value, k: &str| {
        stat_u64(b, "engine", k) as f64 - stat_u64(a, "engine", k) as f64
    };
    let ops = ["points", "scans", "writes"].map(|k| d(&stats_before, &stats_after, k));
    Measured {
        warmup,
        all,
        fixed,
        closed,
        block_reads: d(&stats_before, &stats_after, "query_block_reads"),
        ops: ops.iter().sum(),
        stats_before,
        stats_after,
        worker_cpu_s: worker,
        other_cpu_s: other,
        own_cpu_s,
        wall_s,
    }
}

impl Measured {
    /// Pools `o`'s rounds and counts into `self` (the server-side deltas
    /// stay `self`'s).
    fn absorb(&mut self, o: Measured) {
        self.warmup.count(&o.warmup);
        self.all.count(&o.all);
        self.fixed.extend(o.fixed);
        self.closed.extend(o.closed);
        self.block_reads += o.block_reads;
        self.ops += o.ops;
    }

    /// Requests sent over the measured rounds, kept or not.
    fn requests(&self) -> f64 {
        self.all.sent as f64
    }

    /// Closed-loop throughput over the pooled kept rounds.
    fn throughput(&self) -> f64 {
        let completed: u64 = self.closed.iter().map(|r| r.completed).sum();
        ratio(
            completed as f64,
            self.closed.iter().map(|r| r.elapsed_s).sum(),
        )
    }

    /// Growth of engine counter `k` over the measured rounds.
    fn stat_delta(&self, k: &str) -> f64 {
        self.delta_in("engine", k)
    }

    fn delta_in(&self, section: &str, k: &str) -> f64 {
        stat_u64(&self.stats_after, section, k) as f64
            - stat_u64(&self.stats_before, section, k) as f64
    }

    /// Sent, failed and wrong requests, warm-up included.
    fn attempted(&self) -> (u64, u64, u64) {
        let (a, w) = (&self.all, &self.warmup);
        (a.sent + w.sent, a.failed + w.failed, a.wrong + w.wrong)
    }

    /// Latency quantiles over the pooled samples of the kept fixed-rate
    /// rounds.
    fn emit_latencies(&self, out: &mut Metrics) {
        let mut lat = OpLatencies::default();
        for r in &self.fixed {
            lat.merge(&r.lat);
        }
        lat.emit(out);
    }

    /// Query-path SST block reads per op over all measured rounds.
    fn sst_reads_per_op(&self) -> f64 {
        ratio(self.block_reads, self.ops)
    }

    /// Send lateness of every fixed-rate request.
    fn late(&self) -> Samples {
        let mut late = Samples::default();
        for r in &self.fixed {
            late.extend(&r.late);
        }
        late
    }
}

/// The highest ladder rate whose p99 (from due time) meets the limit with
/// every request answered.
fn slo_ladder(
    server: &ServerProc,
    conns: &mut [ConnState],
    step: Duration,
) -> (f64, u64, u64, u64) {
    let (mut best, mut sent, mut failed, mut wrong) = (0.0, 0, 0, 0);
    for rate in LADDER {
        let mut r = phase(&server.addr, conns, Pace::Open(rate), step);
        sent += r.sent;
        failed += r.failed;
        wrong += r.wrong;
        let mut all = OpLatencies::default();
        all.merge(&r.lat);
        let mut merged = Samples::default();
        merged.extend(&all.get);
        merged.extend(&all.scan);
        merged.extend(&all.put);
        let p99 = merged.quantile_us(0.99);
        let lag = r.late.quantile_us(0.99);
        eprintln!("serve: ladder {rate} ops/s: p99 {p99:.1} us, send lag p99 {lag:.1} us");
        if r.failed > 0 || p99 > P99_LIMIT_US {
            break;
        }
        best = rate;
    }
    (best, sent, failed, wrong)
}

pub fn run(p: &Params) -> Outcome {
    let fill = ((FILL as f64 * p.scale) as u64).max(1_000) / CONNS * CONNS;
    let mut o = Outcome::new(vec![
        (
            "data_bytes",
            (0..fill)
                .map(|k| 24 + fill_value(k).len() as u64)
                .sum::<u64>()
                .into(),
        ),
        ("cache_bytes", (64u64 << 20).into()),
        ("flush_policy", "server default (in-memory, no WAL)".into()),
        (
            "server_controller",
            "none (only the tenant share arbiter ticks)".into(),
        ),
        ("fixed_rate_ops", FIXED_RATE.into()),
        ("slo_p99_limit_us", P99_LIMIT_US.into()),
    ]);
    let mut out = Metrics::default();
    let seconds = p.seconds as f64;
    let new_conns = || {
        (0..CONNS)
            .map(|c| ConnState::new(p, c, fill))
            .collect::<Vec<_>>()
    };

    if !p.trace {
        // Each set-up is a server of its own, measured for its share of the
        // run; the kept rounds of all of them are pooled.
        let (mut setups, mut peaks, mut pooled) = (Vec::new(), Vec::new(), None::<Measured>);
        for _ in 0..SERVERS {
            let (server, setup_s) = setup(p, fill, false);
            setups.push(setup_s);
            let m = measure(&server, &mut new_conns(), seconds / SERVERS as f64);
            peaks.push(peak_rss_mb(&server.pid().to_string()));
            server.stop();
            let (a, f, w) = m.attempted();
            o.absorb(a, f, w);
            match &mut pooled {
                Some(all) => all.absorb(m),
                None => pooled = Some(m),
            }
        }
        let m = pooled.expect("at least one set-up");
        m.emit_latencies(&mut out);
        out.set("setup_s", median(setups));
        out.set("throughput_ops", m.throughput());
        out.set("sst_reads_per_op", m.sst_reads_per_op());
        out.set("peak_rss_mb", median(peaks));
        o.metrics = out;
        return o;
    }

    let mut conns = new_conns();
    let (server, _) = setup(p, fill, false);
    let m = measure(&server, &mut conns, seconds);
    let (a, f, w) = m.attempted();
    o.absorb(a, f, w);
    let reqs = m.requests();
    m.emit_latencies(&mut out);
    {
        let (slo, a, f, w) = slo_ladder(
            &server,
            &mut conns,
            Duration::from_secs_f64(seconds / LADDER.len() as f64),
        );
        o.absorb(a, f, w);
        server.stop();
        out.set("slo_qps", slo);
        out.set(
            "server.worker_cpu_us_per_req",
            ratio(m.worker_cpu_s * 1e6, reqs),
        );
        out.set(
            "server.other_cpu_us_per_req",
            ratio(m.other_cpu_s * 1e6, reqs),
        );
        let reads = m.stat_delta("points") + m.stat_delta("scans");
        out.set(
            "server.result_hit_ratio",
            ratio(m.stat_delta("range_hits") + m.stat_delta("kv_hits"), reads),
        );
        out.set(
            "server.bytes_per_req",
            ratio(
                m.delta_in("server", "bytes_in") + m.delta_in("server", "bytes_out"),
                reqs,
            ),
        );
        out.set("loadgen.late_us", m.late().quantile_us(0.99));
        out.set("loadgen.cpu_us_per_req", ratio(m.own_cpu_s * 1e6, reqs));
        out.set(
            "proc.cpu_util",
            ratio(m.worker_cpu_s + m.other_cpu_s, m.wall_s),
        );
        out.set(
            "lsm.runs",
            stat_u64(&m.stats_after, "engine", "runs") as f64,
        );
        out.set(
            "lsm.levels",
            stat_u64(&m.stats_after, "engine", "levels") as f64,
        );
        out.set("lsm.seals", m.stat_delta("seals"));
        out.set("lsm.write_stalls", m.stat_delta("write_stalls"));
        let puts = m.stat_delta("writes") / 1e3;
        out.set("lsm.flushes_per_kput", ratio(m.stat_delta("flushes"), puts));
        out.set(
            "lsm.compactions_per_kput",
            ratio(m.stat_delta("compactions"), puts),
        );
        out.set(
            "lsm.group_commit.mean_batch",
            ratio(
                m.stat_delta("group_commit_batches"),
                m.stat_delta("group_commit_rounds"),
            ),
        );

        // A second server with telemetry on prices the tracing and breaks
        // each request into the server's own stages.
        let (traced_server, _) = setup(p, fill, true);
        let t = measure(&traced_server, &mut new_conns(), seconds);
        let (a, f, w) = t.attempted();
        o.absorb(a, f, w);
        let metrics: serde_json::Value = traced_server
            .client()
            .metrics(adcache_server::MetricsFormat::Json)
            .ok()
            .and_then(|j| serde_json::from_str(&j).ok())
            .expect("serve: METRICS json");
        traced_server.stop();
        for stage in [
            "parse",
            "queue_wait",
            "lock_wait",
            "engine_exec",
            "cache_layer",
            "reply_flush",
        ] {
            let mean = metrics
                .get("histograms")
                .and_then(|h| h.get(&format!("server.stage.{stage}")))
                .and_then(|h| h.get("mean_ns"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            out.set(&format!("server.stage.{stage}_ns"), mean);
        }
        out.set(
            "obs.overhead_frac",
            1.0 - ratio(t.throughput(), m.throughput()),
        );
    }
    o.metrics = out;
    o
}
