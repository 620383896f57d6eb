//! `perfbench` — the repository's benchmark. It drives the shipped
//! `nncell build` and `nncell serve` binaries over real HTTP through one
//! named workload and prints, as its last line, one JSON object with the
//! run's end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`). See `perfbench/README.md` for the workloads and what
//! each metric means.
//!
//! ```text
//! perfbench --nncell PATH --workdir DIR --workload nn_d8 --seed 1 --seconds 10 --trace 0
//! ```

mod http;
mod inproc;
mod load;
mod oracle;
mod procs;
mod spans;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use load::{Kind, Op, Outcome, Schedule, Target, Writer};
use oracle::{Checker, Inputs, Read, MAX_K};
use procs::Server;

/// One workload: its data, its query, and the load it runs at.
struct Spec {
    name: &'static str,
    n: usize,
    dim: usize,
    k: usize,
    /// Open-loop query rate, well below what the seed serves without a
    /// growing backlog.
    reads_per_s: f64,
    /// Write rate: beside the reads on the mixed workload, in a write
    /// phase of its own after the reads otherwise.
    writes_per_s: f64,
    mixed: bool,
    /// Shares of `--seconds` for the open loop, the closed loop and (on a
    /// read-only workload) the write phase.
    shares: [f64; 3],
    /// Set-ups per untraced run; `setup_s` is their median. knn_d16 sets
    /// up twice, not three times, because each set-up takes ~15 s.
    setup_reps: usize,
}

const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "nn_d8",
        n: 8_000,
        dim: 8,
        k: 1,
        reads_per_s: 1_000.0,
        writes_per_s: 200.0,
        mixed: false,
        shares: [0.3, 0.4, 0.3],
        setup_reps: 3,
    },
    Spec {
        name: "knn_d16",
        n: 4_000,
        dim: 16,
        k: 10,
        reads_per_s: 500.0,
        writes_per_s: 200.0,
        mixed: false,
        shares: [0.3, 0.4, 0.3],
        setup_reps: 2,
    },
    Spec {
        name: "mixed_d8",
        n: 8_000,
        dim: 8,
        k: 1,
        reads_per_s: 300.0,
        writes_per_s: 250.0,
        mixed: true,
        shares: [0.75, 0.25, 0.0],
        setup_reps: 3,
    },
];

/// Query points in the pool the reads cycle through.
const POOL: usize = 2_048;
/// Latency charged to a failed or wrong request: the client's timeout.
const FAILED_MS: f64 = 10_000.0;
/// The traced run's interleaved untraced/traced read slices.
const AB_SLICES: usize = 6;
const AB_SHARE: f64 = 0.06;
/// Windows a measured phase is split into (see `windowed`).
const WINDOWS: usize = 5;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    nncell: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let spec = WORKLOADS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        spec,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        nncell: PathBuf::from(get("--nncell")?),
        workdir: PathBuf::from(get("--workdir")?),
    })
}

/// What a run prints.
struct Report {
    attempted: usize,
    failed: usize,
    wrong: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line; an error if some metric could not be measured.
    fn json(&self) -> Result<String, String> {
        if let Some((name, _, _)) = self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("{name} could not be measured"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    set_timer_slack();
    let dir = args.workdir.join(format!(
        "{}-{}-{}",
        args.spec.name,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| {
            if args.trace {
                run_traced(&args, &dir)
            } else {
                run_untraced(&args, &dir)
            }
        });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&args.workdir);
    match result.and_then(|r| Ok((r.json()?, r.wrong))) {
        Ok((line, wrong)) => {
            println!("{line}");
            if wrong == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {wrong} wrong answer(s)");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Lets the open loop's sleeps end close to their due times (the default
/// 50 µs timer slack would add that much to every latency).
fn set_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (the slack in ns)
    // and only affects the calling thread and the threads it spawns.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

fn prepare(args: &Args, dir: &Path) -> Result<(Inputs, PathBuf), String> {
    let s = args.spec;
    let inputs = Inputs::generate(s.n, s.dim, POOL, args.seed);
    let csv = dir.join("points.csv");
    std::fs::write(&csv, inputs.base_csv()).map_err(|e| format!("writing points: {e}"))?;
    Ok((inputs, csv))
}

impl Spec {
    fn open_seconds(&self, seconds: f64) -> f64 {
        seconds * self.shares[0]
    }

    fn closed_seconds(&self, seconds: f64) -> f64 {
        seconds * self.shares[1]
    }

    fn write_seconds(&self, seconds: f64) -> f64 {
        seconds * self.shares[2]
    }

    fn read_threads(&self) -> usize {
        if self.mixed {
            1
        } else {
            2
        }
    }
}

fn writer_for(args: &Args, inputs: &Inputs) -> Mutex<Writer> {
    let s = args.spec;
    let write_s = if s.mixed {
        s.open_seconds(args.seconds)
    } else {
        s.write_seconds(args.seconds)
    };
    let capacity = (s.writes_per_s * write_s) as usize + 64;
    Mutex::new(Writer::new(inputs, args.seed, capacity))
}

/// Unmeasured queries that let the server's caches fill.
fn warm_up(t: &Target) -> Vec<Op> {
    load::closed_loop(t, 2, 0.3)
}

/// The open loop: reads, with the writes beside them on the mixed workload.
fn open_phase(args: &Args, t: &Target, writer: &Mutex<Writer>) -> Vec<Op> {
    let s = args.spec;
    let schedule = Schedule {
        seconds: s.open_seconds(args.seconds),
        reads_per_s: s.reads_per_s,
        read_threads: s.read_threads(),
        writes_per_s: if s.mixed { s.writes_per_s } else { 0.0 },
    };
    load::open_loop(t, writer, schedule)
}

/// The write phase of a read-only workload: writes alone, open loop.
fn write_phase(args: &Args, t: &Target, writer: &Mutex<Writer>) -> Vec<Op> {
    let s = args.spec;
    let schedule = Schedule {
        seconds: s.write_seconds(args.seconds),
        reads_per_s: 0.0,
        read_threads: 0,
        writes_per_s: s.writes_per_s,
    };
    load::open_loop(t, writer, schedule)
}

/// Queries sent with writes paused: pool points and the last points the
/// run inserted (some of them since removed), each asking for `MAX_K`.
fn probe_queries(inputs: &Inputs, writer: &Writer) -> Vec<(Vec<f64>, usize)> {
    let mut q: Vec<(Vec<f64>, usize)> = inputs.pool[..64]
        .iter()
        .map(|p| (p.clone(), MAX_K))
        .collect();
    let inserted = writer.log.writes.iter().rev().filter_map(|w| match w {
        oracle::Write::Insert { point, .. } => Some((point.clone(), MAX_K)),
        oracle::Write::Remove { .. } => None,
    });
    q.extend(inserted.take(32));
    q
}

/// Checks every answered query; marks wrong ones. Returns how many were wrong.
fn verify(
    inputs: &Inputs,
    writer: &Writer,
    k: usize,
    ops: &mut [&mut Op],
    probes: &mut [(Op, Vec<u8>)],
    probe_qs: &[(Vec<f64>, usize)],
) -> usize {
    let checker = Checker::new(inputs, &writer.log);
    let mut wrong = 0;
    let mut judge = |op: &mut Op, read: Option<Read>| {
        if op.outcome != Outcome::Ok {
            return;
        }
        if !read.is_some_and(|r| checker.check(&r)) {
            op.wrong = true;
            wrong += 1;
        }
    };
    for op in ops.iter_mut() {
        let Some(r) = op.read.take() else { continue };
        let read = oracle::parse_hits(&r.body).map(|got| Read {
            point: inputs.pool[r.pool].clone(),
            pool: Some(r.pool),
            k,
            writes_acked: r.writes_acked,
            writes_sent: r.writes_sent,
            got,
        });
        judge(op, read);
    }
    let all = writer.log.writes.len();
    for ((op, body), (q, qk)) in probes.iter_mut().zip(probe_qs) {
        let read = oracle::parse_hits(body).map(|got| Read {
            point: q.clone(),
            pool: None,
            k: *qk,
            writes_acked: all,
            writes_sent: all,
            got,
        });
        judge(op, read);
    }
    wrong
}

fn pct(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn latencies<'a>(ops: impl Iterator<Item = &'a Op>, kind: Kind) -> Vec<f64> {
    ops.filter(|o| o.kind == kind)
        .map(|o| {
            if o.ok() {
                o.latency_ms()
            } else {
                o.latency_ms().max(FAILED_MS)
            }
        })
        .collect()
}

/// Splits a phase into `WINDOWS` equal spans of time, by `at(op)`, and
/// returns the median over the spans of `f(span)`. A host stall of a
/// second or two then moves one or two spans, not the figure.
fn windowed(ops: &[&Op], at: fn(&Op) -> u64, f: impl Fn(&[&Op], f64) -> f64) -> f64 {
    let (Some(lo), Some(hi)) = (
        ops.iter().map(|o| at(o)).min(),
        ops.iter().map(|o| at(o)).max(),
    ) else {
        return f64::NAN;
    };
    let width = (hi - lo) / WINDOWS as u64 + 1;
    let mut spans: Vec<Vec<&Op>> = vec![Vec::new(); WINDOWS];
    for o in ops {
        spans[((at(o) - lo) / width) as usize].push(o);
    }
    let seconds = width as f64 / 1e9;
    pct(spans.iter().map(|w| f(w, seconds)).collect(), 0.5)
}

/// Median over the phase's windows of a latency percentile.
fn windowed_latency(ops: &[Op], kind: Kind, p: f64) -> f64 {
    let ops: Vec<&Op> = ops.iter().filter(|o| o.kind == kind).collect();
    windowed(
        &ops,
        |o| o.due_ns,
        |w, _| pct(latencies(w.iter().copied(), kind), p),
    )
}

fn ok_ratio<'a>(ops: impl Iterator<Item = &'a Op>, query: bool) -> f64 {
    let (mut ok, mut all) = (0usize, 0usize);
    for o in ops.filter(|o| (o.kind == Kind::Query) == query) {
        all += 1;
        ok += usize::from(o.ok());
    }
    if all == 0 {
        f64::NAN
    } else {
        ok as f64 / all as f64
    }
}

/// What one pass of the measured schedule sent, with every answer checked.
struct Measured {
    warm: Vec<Op>,
    open: Vec<Op>,
    closed: Vec<Op>,
    writes: Vec<Op>,
    probes: Vec<(Op, Vec<u8>)>,
    /// Server CPU over the open loop, closed loop and write phase.
    cpu: procs::Cpu,
    /// Wall time of the same phases.
    seconds: f64,
    wrong: usize,
}

impl Measured {
    /// The open loop, closed loop and write phase.
    fn measured(&self) -> impl Iterator<Item = &Op> {
        self.open.iter().chain(&self.closed).chain(&self.writes)
    }

    fn all(&self) -> impl Iterator<Item = &Op> {
        self.measured()
            .chain(&self.warm)
            .chain(self.probes.iter().map(|(op, _)| op))
    }

    /// The phase the workload's inserts ran in.
    fn inserts(&self, s: &Spec) -> &[Op] {
        if s.mixed {
            &self.open
        } else {
            &self.writes
        }
    }
}

/// Warm-up, open loop, closed loop and write phase, then the probe set
/// with writes paused. Checks every answer before returning.
fn measure(
    args: &Args,
    inputs: &Inputs,
    server: &Server,
    epoch: Instant,
) -> Result<Measured, String> {
    let s = args.spec;
    let t = Target::new(server.addr, inputs, s.k, epoch);
    let writer = writer_for(args, inputs);
    let awake = load::KeepAwake::start();
    let mut warm = warm_up(&t);
    let cpu0 = server.cpu_ms()?;
    let started = Instant::now();
    let mut open = open_phase(args, &t, &writer);
    let mut closed = load::closed_loop(&t, 2, s.closed_seconds(args.seconds));
    let mut writes = write_phase(args, &t, &writer);
    let cpu = server.cpu_ms()? - cpu0;
    let seconds = started.elapsed().as_secs_f64();
    let writer = writer.into_inner().unwrap_or_else(|p| p.into_inner());
    let probe_qs = probe_queries(inputs, &writer);
    let mut probes = load::probe(&t, &probe_qs);
    drop(awake);
    let mut checked: Vec<&mut Op> = warm
        .iter_mut()
        .chain(open.iter_mut())
        .chain(closed.iter_mut())
        .chain(writes.iter_mut())
        .collect();
    let wrong = verify(inputs, &writer, s.k, &mut checked, &mut probes, &probe_qs);
    Ok(Measured {
        warm,
        open,
        closed,
        writes,
        probes,
        cpu,
        seconds,
        wrong,
    })
}

fn run_untraced(args: &Args, dir: &Path) -> Result<Report, String> {
    let s = args.spec;
    let (inputs, csv) = prepare(args, dir)?;

    // Set-up: generated CSV to `/readyz` answering 200, several times.
    let mut setups = Vec::new();
    let mut served: Option<(Server, PathBuf)> = None;
    for rep in 0..s.setup_reps {
        if let Some((old, old_dir)) = served.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let index = dir.join(format!("index-{rep}"));
        let t = Instant::now();
        procs::build(&args.nncell, &csv, &index, None)?;
        let server = Server::start(&args.nncell, &index, 0)?;
        setups.push(t.elapsed().as_secs_f64());
        served = Some((server, index));
    }
    let (server, index) = served.ok_or("no set-up ran")?;
    let m = measure(args, &inputs, &server, Instant::now())?;
    let peak_rss_mb = server.peak_rss_mb()?;
    let disk_mb = procs::disk_mb(&index)?;
    drop(server);

    let metrics = vec![
        ("setup_s", pct(setups, 0.5), "s"),
        ("query_ok_ratio", ok_ratio(m.all(), true), "ratio"),
        ("write_ok_ratio", ok_ratio(m.all(), false), "ratio"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("disk_mb", disk_mb, "MiB"),
    ];
    Ok(Report {
        attempted: m.all().count(),
        failed: m.all().filter(|o| !o.ok()).count(),
        wrong: m.wrong,
        metrics,
    })
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn metrics_text(server: &Server) -> Result<String, String> {
    http::get_ok(server.addr, "/metrics")
}

/// One traced query: its server spans and what the client measured, in µs.
struct ServerSample {
    queue_wait_us: f64,
    read_us: f64,
    parse_us: f64,
    serialize_us: f64,
    handle_self_us: f64,
    /// Summed over the shards consulted.
    shard_us: f64,
    client_us: f64,
}

fn run_traced(args: &Args, dir: &Path) -> Result<Report, String> {
    let s = args.spec;
    let (inputs, csv) = prepare(args, dir)?;
    let built = dir.join("built");
    let plain = dir.join("plain");
    let profile = procs::build(&args.nncell, &csv, &built, Some(&plain))?;
    let (dir_a, dir_b) = (dir.join("a"), dir.join("b"));
    procs::copy_dir(&built, &dir_a)?;
    procs::copy_dir(&built, &dir_b)?;
    let t0 = Instant::now();
    let server_a = Server::start(&args.nncell, &dir_a, 0)?;
    let open_a = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let server_b = Server::start(&args.nncell, &dir_b, 1)?;
    let open_b = t0.elapsed().as_secs_f64();

    // Tracing overhead: the same reads, interleaved between an untraced
    // server (A) and one recording every request (B).
    let epoch = Instant::now();
    let ta = Target::new(server_a.addr, &inputs, s.k, epoch);
    let tb = ta.retarget(server_b.addr);
    let awake = load::KeepAwake::start();
    let mut warm = warm_up(&ta);
    warm.extend(warm_up(&tb));
    let unused = writer_for(args, &inputs);
    let slice = Schedule {
        seconds: args.seconds * AB_SHARE,
        reads_per_s: s.reads_per_s,
        read_threads: s.read_threads(),
        writes_per_s: 0.0,
    };
    let (mut ab_a, mut ab_b) = (Vec::new(), Vec::new());
    for i in 0..AB_SLICES {
        // A B B A A B: each side goes first equally often.
        if matches!(i % 4, 0 | 3) {
            ab_a.extend(load::open_loop(&ta, &unused, slice));
        } else {
            ab_b.extend(load::open_loop(&tb, &unused, slice));
        }
    }
    drop(awake);
    let overhead = pct(latencies(ab_b.iter(), Kind::Query), 0.5)
        / pct(latencies(ab_a.iter(), Kind::Query), 0.5)
        - 1.0;

    // What a client sees, untraced: the measured schedule on A.
    let a = measure(args, &inputs, &server_a, epoch)?;
    drop(server_a);

    // The traced run proper, on B, with the tail depth sampled beside it.
    let writer = writer_for(args, &inputs);
    let m0 = metrics_text(&server_b)?;
    let stop = AtomicBool::new(false);
    let depths = Mutex::new(Vec::new());
    let started = Instant::now();
    let awake = load::KeepAwake::start();
    let phases = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if let Ok(text) = metrics_text(&server_b) {
                    load::lock(&depths).push(spans::prom_sum(&text, "nncell_tail_depth"));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let run = || -> Result<_, String> {
            let open = open_phase(args, &tb, &writer);
            let h_open = spans::harvest(server_b.addr)?;
            let writes = write_phase(args, &tb, &writer);
            let h_writes = spans::harvest(server_b.addr)?;
            let w = load::lock(&writer);
            let probe_qs = probe_queries(&inputs, &w);
            drop(w);
            let probes = load::probe(&tb, &probe_qs);
            let h_probe = spans::harvest(server_b.addr)?;
            Ok((open, writes, probe_qs, probes, h_open, h_writes, h_probe))
        };
        let r = run();
        stop.store(true, Ordering::Relaxed);
        r
    });
    let elapsed = started.elapsed().as_secs_f64();
    drop(awake);
    let (mut open, mut writes, probe_qs, mut probes, h_open, h_writes, h_probe) = phases?;
    let m1 = metrics_text(&server_b)?;
    drop(server_b);
    let writer = writer.into_inner().unwrap_or_else(|p| p.into_inner());

    let mut checked: Vec<&mut Op> = open.iter_mut().chain(writes.iter_mut()).collect();
    let mut wrong = a.wrong + verify(&inputs, &writer, s.k, &mut checked, &mut probes, &probe_qs);
    // The A/B and warm-up reads saw no writes.
    let none = Writer::new(&inputs, args.seed, 0);
    let mut ab: Vec<&mut Op> = ab_a
        .iter_mut()
        .chain(ab_b.iter_mut())
        .chain(warm.iter_mut())
        .collect();
    wrong += verify(&inputs, &none, s.k, &mut ab, &mut [], &[]);

    let layers = inproc::measure(
        &plain,
        &inputs,
        s.k,
        &tb.bodies,
        Duration::from_secs_f64((args.seconds * 0.025).max(0.1)),
    )?;

    // Server layers, from the traces of the open-loop queries.
    let client: HashMap<u128, &Op> = open.iter().filter_map(|o| Some((o.trace?, o))).collect();
    let mut per_req: Vec<ServerSample> = Vec::new();
    for (id, sp) in &h_open {
        let Some(op) = client.get(id).filter(|o| o.kind == Kind::Query && o.ok()) else {
            continue;
        };
        per_req.push(ServerSample {
            queue_wait_us: spans::durations(sp, "server.queue_wait").sum(),
            read_us: spans::durations(sp, "server.read").sum(),
            parse_us: spans::durations(sp, "server.parse").sum(),
            serialize_us: spans::durations(sp, "server.serialize").sum(),
            handle_self_us: sp
                .iter()
                .filter(|x| x.name == "server.handle")
                .map(|x| spans::self_time_us(sp, x))
                .sum(),
            shard_us: spans::durations(sp, "shard.query").sum(),
            client_us: op.service_ms() * 1000.0,
        });
    }
    let server_ms = |f: fn(&ServerSample) -> f64| mean(per_req.iter().map(f)) / 1000.0;
    let client_us: f64 = per_req.iter().map(|r| r.client_us).sum();
    let shard_us: f64 = per_req.iter().map(|r| r.shard_us).sum();

    // Write path and tail merge, from every harvested trace.
    let mut all = h_open;
    all.extend(h_writes);
    all.extend(h_probe);
    let tail_merge_us = mean(all.values().filter_map(|sp| {
        let t: Vec<f64> = spans::durations(sp, "engine.tail_merge").collect();
        (!t.is_empty()).then(|| t.iter().sum())
    }));
    let write_ops: HashMap<u128, &Op> = open
        .iter()
        .chain(&writes)
        .filter(|o| o.kind != Kind::Query && o.ok())
        .filter_map(|o| Some((o.trace?, o)))
        .collect();
    let (mut wal_bytes, mut user_bytes, mut appends) = (0.0, 0.0, Vec::new());
    for (id, sp) in &all {
        let Some(op) = write_ops.get(id) else {
            continue;
        };
        for x in sp.iter().filter(|x| x.name == "wal.append") {
            appends.push(x.dur_us);
            wal_bytes += x.arg("bytes").unwrap_or(0.0);
            user_bytes += match op.kind {
                Kind::Insert => (s.dim * 8) as f64,
                _ => 8.0,
            };
        }
    }
    let acked_writes = open
        .iter()
        .chain(&writes)
        .filter(|o| o.kind != Kind::Query && o.ok())
        .count();
    let delta = |family: &str| spans::prom_sum(&m1, family) - spans::prom_sum(&m0, family);
    let depths = depths.into_inner().unwrap_or_else(|p| p.into_inner());
    let late: Vec<f64> = a.open.iter().chain(&a.writes).map(Op::late_ms).collect();
    let closed: Vec<&Op> = a.closed.iter().collect();
    let qps = windowed(
        &closed,
        |o| o.end_ns,
        |w, secs| w.iter().filter(|o| o.ok()).count() as f64 / secs,
    );

    let everything = || {
        open.iter()
            .chain(&writes)
            .chain(probes.iter().map(|(op, _)| op))
            .chain(&ab_a)
            .chain(&ab_b)
            .chain(&warm)
            .chain(a.all())
    };
    let attempted = everything().count();
    let failed = everything().filter(|o| !o.ok()).count();
    let resets = everything().filter(|o| o.outcome == Outcome::Reset).count();
    let l = &layers;
    let metrics = vec![
        ("server.queue_wait_ms", server_ms(|r| r.queue_wait_us), "ms"),
        ("server.read_ms", server_ms(|r| r.read_us), "ms"),
        ("server.parse_ms", server_ms(|r| r.parse_us), "ms"),
        ("server.serialize_ms", server_ms(|r| r.serialize_us), "ms"),
        (
            "server.handle_self_ms",
            server_ms(|r| r.handle_self_us),
            "ms",
        ),
        ("server.share", (client_us - shard_us) / client_us, "ratio"),
        ("server.traced_requests", per_req.len() as f64, "count"),
        (
            "server.shed_total",
            spans::prom_sum(&m1, "nncell_http_shed_total"),
            "count",
        ),
        (
            "server.deadline_total",
            spans::prom_sum(&m1, "nncell_http_deadline_exceeded_total"),
            "count",
        ),
        ("server.json_parse_us", l.json_parse_us, "us"),
        (
            "server.cpu_ms_per_op",
            a.cpu.total / a.measured().filter(|o| o.ok()).count().max(1) as f64,
            "ms",
        ),
        ("client.resets_total", resets as f64, "count"),
        ("shard.query_us", l.shard_query_us, "us"),
        ("shard.merge_us", l.shard_query_us - l.engine_query_us, "us"),
        ("engine.query_us", l.engine_query_us, "us"),
        ("engine.examined_per_query", l.examined, "count"),
        ("engine.completed_per_query", l.completed, "count"),
        ("engine.aborted_share", l.aborted / l.examined, "ratio"),
        ("engine.useful_ratio", s.k as f64 / l.completed, "ratio"),
        ("engine.tail_merge_us", tail_merge_us, "us"),
        ("index.pages_per_query", l.pages, "count"),
        ("index.nodes_pruned_per_query", l.nodes_pruned, "count"),
        (
            "index.examined_share",
            l.examined / l.live_points as f64,
            "ratio",
        ),
        ("geom.kernel_ns_per_eval", l.kernel_ns, "ns"),
        (
            "geom.kernel_share",
            l.examined * l.kernel_ns / (l.engine_query_us * 1000.0),
            "ratio",
        ),
        (
            "memtable.tail_depth_mean",
            mean(depths.iter().copied()),
            "count",
        ),
        (
            "memtable.tail_depth_max",
            depths.iter().copied().fold(0.0, f64::max),
            "count",
        ),
        (
            "memtable.backpressure_total",
            spans::prom_sum(&m1, "nncell_tail_backpressure_total"),
            "count",
        ),
        (
            "fold.records_per_s",
            delta("nncell_fold_records_total") / elapsed,
            "1/s",
        ),
        (
            "fold.busy_share",
            a.cpu.folder / (a.seconds * 1000.0),
            "ratio",
        ),
        ("wal.append_us", mean(appends.iter().copied()), "us"),
        (
            "wal.fsyncs_per_write",
            delta("nncell_wal_fsyncs_total") / acked_writes.max(1) as f64,
            "count",
        ),
        ("wal.bytes_per_user_byte", wal_bytes / user_bytes, "ratio"),
        ("build.constraints_s", profile.constraints_s, "s"),
        ("build.lp_s", profile.lp_s, "s"),
        ("build.bulk_load_s", profile.bulk_load_s, "s"),
        ("serve.open_s", (open_a + open_b) / 2.0, "s"),
        (
            "client.query_p50_ms",
            windowed_latency(&a.open, Kind::Query, 0.5),
            "ms",
        ),
        (
            "client.query_p99_ms",
            pct(latencies(a.open.iter(), Kind::Query), 0.99),
            "ms",
        ),
        ("client.query_qps", qps, "1/s"),
        (
            "client.insert_p50_ms",
            windowed_latency(a.inserts(s), Kind::Insert, 0.5),
            "ms",
        ),
        (
            "client.insert_p99_ms",
            pct(latencies(a.inserts(s).iter(), Kind::Insert), 0.99),
            "ms",
        ),
        ("client.late_p99_ms", pct(late, 0.99), "ms"),
        ("obs.trace_overhead", overhead, "ratio"),
    ];
    Ok(Report {
        attempted,
        failed,
        wrong,
        metrics,
    })
}
