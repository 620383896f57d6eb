//! HTTP serving-layer throughput and overload behaviour, written as
//! JSON for CI trend tracking (`BENCH_server.json`).
//!
//! Two passes against an in-process [`nncell_server::Server`] over real
//! TCP sockets:
//!
//! 1. **Capacity**: as many client threads as worker threads fire
//!    `/query` requests back-to-back with raw (no-retry) clients —
//!    reports end-to-end QPS and p99 latency, connection setup and
//!    JSON round trip included.
//! 2. **Overload**: offered concurrency is doubled past total capacity
//!    (workers + admission queue) for a fixed window, with clients that
//!    honor `Retry-After` under full-jitter backoff — the way a real
//!    well-behaved client responds to a shed. Accounting is per *offered
//!    request* (one logical request, however many retries it takes), so
//!    a retry storm can no longer inflate the denominator and launder
//!    the shed rate. Every non-200 must be a `429` carrying
//!    `Retry-After`; any other status (or a transport error) fails the
//!    bench, so this doubles as an end-to-end check that overload
//!    degrades *gracefully* rather than by dropped connections.
//!
//! Defaults are sized for real hardware; CI runs a smoke scale via the
//! usual env overrides (`NNCELL_N`, `NNCELL_DIM`, `NNCELL_QUERIES`,
//! `NNCELL_SERVER_THREADS`, `NNCELL_BENCH_OUT` for the JSON path).

use nncell_bench::{env_usize, timed};
use nncell_core::{BuildConfig, Registry, ShardedIndex};
use nncell_data::{Generator, UniformGenerator};
use nncell_server::{Client, Server, ServerConfig, ServeIndex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Starts an in-process server on a fresh port; returns the address,
/// the shutdown handle, and the join handle of the serving thread.
fn start(
    index: ShardedIndex,
    threads: usize,
    queue_depth: usize,
) -> (
    String,
    nncell_server::ServerHandle,
    std::thread::JoinHandle<()>,
) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        queue_depth,
        deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = Server::bind(config, ServeIndex::Sharded(Box::new(index)), Registry::new())
        .expect("bind bench server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("bench server run");
    });
    (addr, handle, join)
}

fn query_body(coords: &[f64]) -> String {
    let nums: Vec<String> = coords.iter().map(|c| format!("{c}")).collect();
    format!("{{\"point\":[{}],\"k\":3}}", nums.join(","))
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

fn main() {
    let n = env_usize("NNCELL_N", 40_000);
    let d = env_usize("NNCELL_DIM", 16);
    let n_q = env_usize("NNCELL_QUERIES", 4_000);
    let threads = env_usize("NNCELL_SERVER_THREADS", 2);
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json").to_string()
    });
    println!("# HTTP serving layer (N={n}, d={d}, {n_q} queries, {threads} server threads)");

    let points = UniformGenerator::new(d).generate(n, 7);
    let bodies: Vec<String> = UniformGenerator::new(d)
        .generate(n_q, 8)
        .iter()
        .map(|p| query_body(p.as_slice()))
        .collect();
    let cfg = BuildConfig::default();
    let index = ShardedIndex::build(points, 2, cfg.clone()).expect("build index");

    // ----- pass 1: capacity (client threads == worker threads) -------
    let (addr, handle, join) = start(index, threads, 64);
    let bodies = Arc::new(bodies);
    {
        // Warm-up outside the timed window.
        let c = Client::new(addr.clone());
        for b in bodies.iter().take(64) {
            assert_eq!(c.post("/query", b).expect("warm-up").status, 200);
        }
    }
    let (latencies, elapsed_s) = timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let addr = addr.clone();
                    let bodies = Arc::clone(&bodies);
                    s.spawn(move || {
                        let mut c = Client::new(addr);
                        c.max_attempts = 1;
                        let mut lat = Vec::with_capacity(bodies.len() / threads + 1);
                        for b in bodies.iter().skip(t).step_by(threads) {
                            let t0 = Instant::now();
                            let r = c.post("/query", b).expect("bench query");
                            assert_eq!(r.status, 200, "capacity pass must not shed");
                            lat.push(t0.elapsed().as_nanos() as u64);
                        }
                        lat
                    })
                })
                .collect();
            let mut all: Vec<u64> = Vec::with_capacity(n_q);
            for h in handles {
                all.extend(h.join().expect("client thread"));
            }
            all
        })
    });
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let qps = latencies.len() as f64 / elapsed_s;
    let p50_ms = percentile(&sorted, 0.50);
    let p99_ms = percentile(&sorted, 0.99);
    println!("capacity: {qps:.0} q/s end-to-end, p50 {p50_ms:.2} ms, p99 {p99_ms:.2} ms");
    handle.shutdown();
    join.join().expect("server thread");

    // ----- pass 2: overload at 2x capacity ---------------------------
    // Total capacity is workers + queue slots; offer twice that in
    // concurrent clients for a fixed window. A shed is honored the way a
    // well-behaved client honors it: sleep a full-jitter fraction of the
    // advertised Retry-After, then retry the *same* logical request.
    // Everything the server refuses must be a clean 429 + Retry-After.
    let queue_depth = threads.max(1);
    let capacity = threads + queue_depth;
    let offered_clients = 2 * capacity;
    let window = Duration::from_millis(
        env_usize("NNCELL_SERVER_OVERLOAD_MS", 2_000) as u64,
    );
    let points = UniformGenerator::new(d).generate(n, 7);
    let index = ShardedIndex::build(points, 2, cfg).expect("rebuild index");
    let (addr, handle, join) = start(index, threads, queue_depth);
    let offered = AtomicU64::new(0); // logical requests started
    let served = AtomicU64::new(0); // logical requests answered 200
    let retries = AtomicU64::new(0); // 429s absorbed by backoff
    let abandoned = AtomicU64::new(0); // still retrying when the window closed
    let stop = AtomicBool::new(false);
    let gate = Barrier::new(offered_clients);
    std::thread::scope(|s| {
        for t in 0..offered_clients {
            let addr = addr.clone();
            let bodies = Arc::clone(&bodies);
            let (offered, served, retries, abandoned) = (&offered, &served, &retries, &abandoned);
            let (stop, gate) = (&stop, &gate);
            s.spawn(move || {
                use rand::{rngs::SmallRng, Rng, SeedableRng};
                let mut rng = SmallRng::seed_from_u64(0x0ff3_4ed0 ^ t as u64);
                let mut c = Client::new(addr);
                c.max_attempts = 1;
                gate.wait();
                let mut i = t;
                'logical: while !stop.load(Ordering::Relaxed) {
                    offered.fetch_add(1, Ordering::Relaxed);
                    loop {
                        let r = c
                            .post("/query", &bodies[i % bodies.len()])
                            .expect("overload pass: connection must not be dropped");
                        match r.status {
                            200 => {
                                served.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            429 => {
                                let hint_s: u64 = r
                                    .header("retry-after")
                                    .expect("shed without Retry-After")
                                    .trim()
                                    .parse()
                                    .expect("non-numeric Retry-After");
                                retries.fetch_add(1, Ordering::Relaxed);
                                // Full jitter over the advertised hint,
                                // sliced so the window close interrupts
                                // the backoff promptly.
                                let mut left =
                                    rng.gen_range(0..=hint_s.max(1).saturating_mul(1_000));
                                while left > 0 {
                                    if stop.load(Ordering::Relaxed) {
                                        abandoned.fetch_add(1, Ordering::Relaxed);
                                        break 'logical;
                                    }
                                    let slice = left.min(10);
                                    std::thread::sleep(Duration::from_millis(slice));
                                    left -= slice;
                                }
                            }
                            other => panic!("overload pass: unexpected status {other}"),
                        }
                    }
                    i += 1;
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let (offered, served) = (offered.into_inner(), served.into_inner());
    let (retries, abandoned) = (retries.into_inner(), abandoned.into_inner());
    // Sheds per offered request: how many 429s the average logical
    // request absorbed before being served (or abandoned at the close).
    let sheds_per_offered = if offered == 0 {
        0.0
    } else {
        retries as f64 / offered as f64
    };
    println!(
        "overload: {offered_clients} clients vs capacity {capacity}: {offered} offered, \
         {served} served, {retries} shed-then-retried ({sheds_per_offered:.2} sheds/offered), \
         {abandoned} abandoned at window close, server sheds {} total",
        handle.sheds()
    );
    assert_eq!(
        served + abandoned,
        offered,
        "every offered request must end served or abandoned"
    );
    handle.shutdown();
    join.join().expect("server thread");

    let json = format!(
        "{{\n  \"n\": {n},\n  \"dim\": {d},\n  \"queries\": {},\n  \"server_threads\": {threads},\n  \
         \"qps\": {qps:.2},\n  \"p50_ms\": {p50_ms:.3},\n  \"p99_ms\": {p99_ms:.3},\n  \
         \"overload\": {{\n    \"offered_concurrency\": {offered_clients},\n    \"capacity\": {capacity},\n    \
         \"offered_requests\": {offered},\n    \"served\": {served},\n    \"retries\": {retries},\n    \
         \"abandoned\": {abandoned},\n    \"sheds_per_offered\": {sheds_per_offered:.4}\n  }}\n}}\n",
        latencies.len()
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
