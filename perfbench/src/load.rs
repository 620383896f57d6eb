//! The load generator: open-loop and closed-loop phases over real HTTP.
//!
//! An open loop sends on a fixed schedule whether or not earlier requests
//! have finished, and times each request from when it was due, so a stall
//! shows in the requests queued behind it. Arrivals are evenly spaced
//! rather than random, which keeps run-to-run spread low. A closed loop
//! sends each connection's next request when the previous one is answered.
//!
//! At most two client threads send load, each with one connection at a
//! time. Writes come from one thread, one at a time, so the server's state
//! is always a prefix of the write log (see `oracle`).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::{self, Transport};
use crate::oracle::{Inputs, Write, WriteLog};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Insert,
    Remove,
}

/// How a request ended.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered 200 (for a query: with a body still to be checked).
    Ok,
    /// Answered with another status.
    Status(u16),
    /// No answer: the connection was reset.
    Reset,
    /// No answer for another transport reason.
    Transport,
}

/// One request as the client saw it. Times are nanoseconds since the
/// run's epoch.
pub struct Op {
    pub kind: Kind,
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Outcome,
    /// Trace id from the response's `traceparent`, when the server sampled it.
    pub trace: Option<u128>,
    /// For queries: pool index, write window, and the raw answer.
    pub read: Option<ReadRec>,
    /// Set when the answer did not match the oracle.
    pub wrong: bool,
}

pub struct ReadRec {
    pub pool: usize,
    pub writes_acked: usize,
    pub writes_sent: usize,
    pub body: Vec<u8>,
}

impl Op {
    /// Answered 200 with a correct answer.
    pub fn ok(&self) -> bool {
        self.outcome == Outcome::Ok && !self.wrong
    }

    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.due_ns) as f64 / 1e6
    }

    pub fn service_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn late_ms(&self) -> f64 {
        self.start_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Writer-side state that persists across phases of a run.
pub struct Writer {
    fresh: Vec<Vec<f64>>,
    next_fresh: usize,
    /// Ids this run inserted and has not removed.
    live: Vec<usize>,
    rng: u64,
    /// The id the server will assign to the next accepted insert.
    next_id: usize,
    pub log: WriteLog,
    /// Set after a write of unknown fate; no further writes are sent.
    stopped: bool,
}

impl Writer {
    pub fn new(inputs: &Inputs, seed: u64, capacity: usize) -> Self {
        Self {
            fresh: inputs.fresh_points(capacity, seed),
            next_fresh: 0,
            live: Vec::new(),
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
            next_id: inputs.base.len(),
            log: WriteLog::default(),
            stopped: false,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next write of the mix: every eighth is a remove of a point this
    /// run inserted, the rest insert fresh points.
    fn next_write(&mut self) -> Option<Write> {
        if self.log.writes.len() % 8 == 7 && !self.live.is_empty() {
            let at = (self.next_rand() % self.live.len() as u64) as usize;
            return Some(Write::Remove {
                id: self.live.swap_remove(at),
            });
        }
        let point = self.fresh.get(self.next_fresh)?.clone();
        self.next_fresh += 1;
        Some(Write::Insert {
            id: self.next_id,
            point,
        })
    }
}

/// What a phase runs against.
pub struct Target<'a> {
    pub addr: SocketAddr,
    inputs: &'a Inputs,
    k: usize,
    epoch: Instant,
    /// Pre-rendered `/query` bodies, one per pool point.
    pub bodies: Vec<Vec<u8>>,
    next_query: AtomicUsize,
    /// Writes sent, and writes whose fate is known.
    writes_sent: AtomicUsize,
    writes_done: AtomicUsize,
}

impl<'a> Target<'a> {
    pub fn new(addr: SocketAddr, inputs: &'a Inputs, k: usize, epoch: Instant) -> Self {
        let bodies = inputs
            .pool
            .iter()
            .map(|q| query_body(q, k).into_bytes())
            .collect();
        Self {
            addr,
            inputs,
            k,
            epoch,
            bodies,
            next_query: AtomicUsize::new(0),
            writes_sent: AtomicUsize::new(0),
            writes_done: AtomicUsize::new(0),
        }
    }

    /// The same inputs against another server (fresh write state).
    pub fn retarget(&self, addr: SocketAddr) -> Target<'a> {
        Target::new(addr, self.inputs, self.k, self.epoch)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// One query from the pool.
    fn query(&self, due: Instant) -> Op {
        let pool = self.next_query.fetch_add(1, Ordering::Relaxed) % self.bodies.len();
        let writes_acked = self.writes_done.load(Ordering::SeqCst);
        let start = Instant::now();
        let res = http::request(self.addr, "POST", "/query", &self.bodies[pool]);
        let end = Instant::now();
        let writes_sent = self.writes_sent.load(Ordering::SeqCst);
        let (outcome, trace, body) = classify(res);
        Op {
            kind: Kind::Query,
            due_ns: self.ns(due),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            outcome,
            trace,
            read: Some(ReadRec {
                pool,
                writes_acked,
                writes_sent,
                body,
            }),
            wrong: false,
        }
    }

    /// The writer's next write; `None` once it has run out or stopped.
    fn write(&self, w: &mut Writer, due: Instant) -> Option<Op> {
        if w.stopped {
            return None;
        }
        let write = w.next_write()?;
        let (kind, path, body) = match &write {
            Write::Insert { point, .. } => (
                Kind::Insert,
                "/insert",
                format!("{{\"point\":[{}]}}", coords(point)),
            ),
            Write::Remove { id } => (Kind::Remove, "/remove", format!("{{\"id\":{id}}}")),
        };
        self.writes_sent.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        let res = http::request(self.addr, "POST", path, body.as_bytes());
        let end = Instant::now();
        let (mut outcome, trace, body) = classify(res);
        let applied = match outcome {
            Outcome::Ok => Some(true),
            Outcome::Status(_) => Some(false),
            Outcome::Reset | Outcome::Transport => None,
        };
        let write = match write {
            Write::Insert { id, point } if outcome == Outcome::Ok => {
                match reply_field(&body, "id") {
                    Some(got) if got == id => {
                        w.next_id += 1;
                        w.live.push(id);
                    }
                    // An unexpected id breaks the run's model of the
                    // server's state: count it and stop writing.
                    _ => {
                        outcome = Outcome::Status(200);
                        w.stopped = true;
                    }
                }
                Write::Insert { id, point }
            }
            Write::Remove { id } if outcome == Outcome::Ok => {
                if reply_field(&body, "removed") != Some(1) {
                    outcome = Outcome::Status(200);
                    w.stopped = true;
                }
                Write::Remove { id }
            }
            other => {
                if applied.is_none() {
                    w.stopped = true;
                    if let Write::Insert { id, .. } = &other {
                        w.next_id = id + 1;
                    }
                }
                other
            }
        };
        w.log.writes.push(write);
        w.log.applied.push(applied);
        if applied.is_some() {
            self.writes_done.fetch_add(1, Ordering::SeqCst);
        }
        Some(Op {
            kind,
            due_ns: self.ns(due),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            outcome,
            trace,
            read: None,
            wrong: false,
        })
    }
}

fn classify(res: Result<http::Response, Transport>) -> (Outcome, Option<u128>, Vec<u8>) {
    match res {
        Ok(r) => {
            let trace = r.traceparent.as_deref().and_then(trace_id);
            let outcome = if r.status == 200 {
                Outcome::Ok
            } else {
                Outcome::Status(r.status)
            };
            (outcome, trace, r.body)
        }
        Err(Transport::Reset) => (Outcome::Reset, None, Vec::new()),
        Err(_) => (Outcome::Transport, None, Vec::new()),
    }
}

/// The trace id of a `traceparent` header (`00-<32 hex>-<16 hex>-<flags>`).
pub fn trace_id(header: &str) -> Option<u128> {
    u128::from_str_radix(header.split('-').nth(1)?, 16).ok()
}

/// `{"id":7}` → 7, `{"removed":true}` → 1.
fn reply_field(body: &[u8], key: &str) -> Option<usize> {
    let v = nncell_server::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let f = v.get(key)?;
    if let nncell_server::json::Json::Bool(b) = f {
        return Some(usize::from(*b));
    }
    f.as_usize()
}

fn coords(p: &[f64]) -> String {
    p.iter()
        .map(|x| format!("{x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The `/query` body for `q`.
pub fn query_body(q: &[f64], k: usize) -> String {
    format!("{{\"point\":[{}],\"k\":{k}}}", coords(q))
}

/// The load of one open-loop phase.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub seconds: f64,
    pub reads_per_s: f64,
    /// Threads sharing the read schedule (1 or 2).
    pub read_threads: usize,
    pub writes_per_s: f64,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Runs an open-loop phase and returns every request it sent.
pub fn open_loop(t: &Target, writer: &Mutex<Writer>, s: Schedule) -> Vec<Op> {
    let start = Instant::now() + Duration::from_millis(2);
    let next = AtomicUsize::new(0);
    let ops = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        if s.reads_per_s > 0.0 {
            for _ in 0..s.read_threads {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = i as f64 / s.reads_per_s;
                        if due >= s.seconds {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(due);
                        sleep_until(due);
                        mine.push(t.query(due));
                    }
                    lock(&ops).extend(mine);
                });
            }
        }
        if s.writes_per_s > 0.0 {
            scope.spawn(|| {
                let mut w = lock(writer);
                let mut mine = Vec::new();
                for i in 0.. {
                    let due = f64::from(i) / s.writes_per_s;
                    if due >= s.seconds {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(due);
                    sleep_until(due);
                    match t.write(&mut w, due) {
                        Some(op) => mine.push(op),
                        None => break,
                    }
                }
                lock(&ops).extend(mine);
            });
        }
    });
    ops.into_inner().unwrap_or_else(|p| p.into_inner())
}

/// Runs a closed loop of queries on `threads` connections for `seconds`.
pub fn closed_loop(t: &Target, threads: usize, seconds: f64) -> Vec<Op> {
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let ops = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let due = Instant::now();
                    mine.push(t.query(due));
                    if due.duration_since(start).as_secs_f64() >= seconds {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                lock(&ops).extend(mine);
            });
        }
    });
    ops.into_inner().unwrap_or_else(|p| p.into_inner())
}

/// Sends `queries` one at a time, each with its own `k`, and returns
/// them as reads to check.
pub fn probe(t: &Target, queries: &[(Vec<f64>, usize)]) -> Vec<(Op, Vec<u8>)> {
    queries
        .iter()
        .map(|(q, k)| {
            let start = Instant::now();
            let res = http::request(t.addr, "POST", "/query", query_body(q, *k).as_bytes());
            let end = Instant::now();
            let (outcome, trace, body) = classify(res);
            let op = Op {
                kind: Kind::Query,
                due_ns: t.ns(start),
                start_ns: t.ns(start),
                end_ns: t.ns(end),
                outcome,
                trace,
                read: None,
                wrong: false,
            };
            (op, body)
        })
        .collect()
}

pub fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Keeps every CPU busy with lowest-priority spinning threads while it
/// lives. On a virtual machine an idle vCPU halts, and waking it costs the
/// hypervisor up to milliseconds; with the CPUs halting between requests,
/// that wake-up, not the program, set open-loop latency and its spread.
/// The spinners run under `SCHED_IDLE`, so any runnable thread of the
/// server or the client preempts them at once.
pub struct KeepAwake {
    stop: std::sync::Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cpus)
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !set_sched_idle() {
                        return; // never spin at normal priority
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`; false if the kernel refused.
fn set_sched_idle() -> bool {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let priority: i32 = 0; // struct sched_param { int sched_priority; }
                           // SAFETY: pid 0 names the calling thread and `param` points to a live
                           // sched_param, which for SCHED_IDLE must hold priority 0.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}
