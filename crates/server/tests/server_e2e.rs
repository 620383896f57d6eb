//! In-process end-to-end tests for the serving layer: protocol
//! round-trips, admission control, deadlines, panic isolation, and
//! graceful drain — everything that doesn't need a separate OS process
//! (the subprocess `kill -9` storm lives in the CLI's E2E suite, where
//! the binary is available).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nncell_core::{BuildConfig, Query, Registry, ShardedIndex};
use nncell_geom::Point;
use nncell_server::{http, Client, Server, ServerConfig, ServerHandle};

fn cfg() -> BuildConfig {
    BuildConfig::default()
}

/// Deterministic pseudo-random points (xorshift — `rand` stays a
/// dev-dep of other crates, this suite needs nothing fancier).
fn points(n: usize, dim: usize, mut seed: u64) -> Vec<Point> {
    (0..n)
        .map(|_| {
            let coords: Vec<f64> = (0..dim)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed % 10_000) as f64 / 10_000.0
                })
                .collect();
            Point::new(coords)
        })
        .collect()
}

struct Running {
    handle: ServerHandle,
    addr: String,
    join: std::thread::JoinHandle<Result<(), nncell_core::PersistError>>,
}

impl Running {
    fn client(&self) -> Client {
        let mut c = Client::new(self.addr.clone());
        c.max_attempts = 1;
        c
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }
}

fn spawn(mut config: ServerConfig, index: ShardedIndex) -> Running {
    config.addr = String::from("127.0.0.1:0");
    let server = Server::bind(config, index, Registry::new()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    // Wait for readiness (workers up).
    let c = Client::new(addr.clone());
    for _ in 0..100 {
        if matches!(c.get("/readyz"), Ok(r) if r.status == 200) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Running { handle, addr, join }
}

fn sharded_index(n: usize, dim: usize) -> (ShardedIndex, Vec<Point>) {
    let pts = points(n, dim, 0x5eed);
    let idx = ShardedIndex::build(pts.clone(), 2, cfg()).expect("build");
    (idx, pts)
}

#[test]
fn query_round_trip_matches_in_process_engine() {
    let (idx, pts) = sharded_index(60, 3);
    let reference = ShardedIndex::build(pts, 2, cfg()).expect("build");
    let srv = spawn(ServerConfig::default(), idx);
    let client = srv.client();

    for (qi, q) in points(20, 3, 0xabcd).iter().enumerate() {
        let k = 1 + qi % 5;
        let body = format!(
            "{{\"point\":[{}],\"k\":{k}}}",
            q.as_slice()
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let resp = client.post("/query", &body).expect("post");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let parsed = nncell_server::json::parse(&resp.text()).expect("json");
        let results = parsed
            .get("results")
            .and_then(|v| v.as_arr().map(<[_]>::to_vec))
            .expect("results array");
        let want = reference
            .query(&Query::knn(q.as_slice().to_vec(), k))
            .expect("reference query");
        let want: Vec<_> = want.iter().collect();
        assert_eq!(results.len(), want.len());
        for (got, want) in results.iter().zip(want) {
            assert_eq!(
                got.get("id").and_then(|v| v.as_usize()),
                Some(want.id),
                "id mismatch"
            );
            let dist = got.get("dist").and_then(|v| v.as_f64()).expect("dist");
            // Bit-identical: same engine, same arithmetic, JSON round-trips
            // f64 exactly through shortest-round-trip formatting.
            assert_eq!(dist.to_bits(), want.dist.to_bits(), "dist not bit-identical");
        }
    }
    srv.stop();
}

/// A fresh scratch directory for a durable index.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nncell_srv_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn writes_are_visible_and_read_only_mode_refuses() {
    // A durable index takes writes.
    let dir = scratch_dir("writes");
    let idx = ShardedIndex::build(points(30, 2, 0x5eed), 2, cfg())
        .expect("build")
        .into_durable(&dir)
        .expect("durable");
    let srv = spawn(ServerConfig::default(), idx);
    let client = srv.client();

    let r = client
        .post("/insert", "{\"point\":[0.001,0.002]}")
        .expect("insert");
    assert_eq!(r.status, 200, "{}", r.text());
    let id = nncell_server::json::parse(&r.text())
        .expect("json")
        .get("id")
        .and_then(|v| v.as_usize())
        .expect("id");

    let r = client
        .post("/query", "{\"point\":[0.001,0.002]}")
        .expect("query");
    assert!(r.text().contains(&format!("\"id\":{id}")), "{}", r.text());

    let r = client
        .post("/remove", &format!("{{\"id\":{id}}}"))
        .expect("remove");
    assert!(r.text().contains("\"removed\":true"), "{}", r.text());
    let r = client
        .post("/remove", &format!("{{\"id\":{id}}}"))
        .expect("re-remove");
    assert!(r.text().contains("\"removed\":false"), "{}", r.text());
    srv.stop();
    std::fs::remove_dir_all(&dir).ok();

    // An in-memory (not durable) index: read-only serving, since an
    // acknowledged write would be lost on restart.
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), idx);
    let client = srv.client();
    let r = client.post("/insert", "{\"point\":[0.5,0.5]}").expect("insert");
    assert_eq!(r.status, 403, "{}", r.text());
    assert!(r.text().contains("read_only"));
    let r = client.post("/remove", "{\"id\":0}").expect("remove");
    assert_eq!(r.status, 403, "{}", r.text());
    assert!(r.text().contains("read_only"));
    let r = client.post("/query", "{\"point\":[0.5,0.5]}").expect("query");
    assert_eq!(r.status, 200);
    srv.stop();
}

#[test]
fn batch_mixes_successes_and_errors() {
    let (idx, _) = sharded_index(40, 2);
    let srv = spawn(ServerConfig::default(), idx);
    let client = srv.client();
    let r = client
        .post(
            "/batch",
            "{\"queries\":[{\"point\":[0.5,0.5],\"k\":2},{\"point\":[0.1],\"k\":1},{\"point\":[0.9,0.9],\"k\":0}]}",
        )
        .expect("batch");
    assert_eq!(r.status, 200, "{}", r.text());
    let parsed = nncell_server::json::parse(&r.text()).expect("json");
    let results = parsed.get("results").and_then(|v| v.as_arr().map(<[_]>::to_vec)).expect("arr");
    assert_eq!(results.len(), 3);
    assert!(results[0].get("results").is_some(), "first should succeed");
    assert!(results[1].get("error").is_some(), "dim mismatch should error");
    assert!(results[2].get("error").is_some(), "k=0 should error");
    srv.stop();
}

#[test]
fn protocol_errors_are_typed() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), idx);
    let client = srv.client();

    let r = client.get("/nope").expect("404");
    assert_eq!(r.status, 404);
    let r = client.request("DELETE", "/query", b"").expect("405");
    assert_eq!(r.status, 405);
    let r = client.post("/query", "{not json").expect("bad json");
    assert_eq!(r.status, 400);
    assert!(r.text().contains("body_not_json"), "{}", r.text());
    let r = client.post("/query", "{\"point\":[0.1,0.2,0.3]}").expect("dim");
    assert_eq!(r.status, 400);
    let r = client.post("/query", "{\"point\":[0.1,0.2],\"k\":0}").expect("zero k");
    assert_eq!(r.status, 400);
    let r = client.post("/query", "{\"k\":1}").expect("missing point");
    assert_eq!(r.status, 400);
    // Chaos endpoints are 404 unless enabled.
    let r = client.post("/admin/panic", "").expect("chaos off");
    assert_eq!(r.status, 404);
    srv.stop();
}

#[test]
fn health_ready_and_metrics_exposition() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), idx);
    let client = srv.client();

    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(client.get("/readyz").expect("readyz").status, 200);

    client.post("/query", "{\"point\":[0.5,0.5]}").expect("query");
    let r = client.get("/metrics").expect("metrics");
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("text/plain; version=0.0.4"));
    let text = r.text();
    assert!(
        text.contains("# HELP nncell_http_requests_total"),
        "{text}"
    );
    assert!(text.contains("# TYPE nncell_http_requests_total counter"), "{text}");
    assert!(
        text.contains("nncell_http_requests_total{route=\"/query\",code=\"200\"}"),
        "{text}"
    );
    assert!(text.contains("# TYPE nncell_http_request_latency_ns histogram"), "{text}");
    assert!(text.contains("nncell_http_queue_depth"), "{text}");
    assert!(text.contains("nncell_http_retry_after_seconds 1"), "{text}");
    srv.stop();
}

#[test]
fn overload_sheds_with_retry_after_and_retry_client_recovers() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            threads: 1,
            queue_depth: 1,
            chaos: true,
            ..ServerConfig::default()
        },
        idx,
    );
    let addr = srv.addr.clone();

    // Pin the single worker, then fill the queue slot.
    let pin = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::new(addr);
            c.max_attempts = 1;
            c.post("/admin/sleep", "{\"ms\":600}").expect("sleep").status
        }
    });
    std::thread::sleep(Duration::from_millis(150));
    let fill = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::new(addr);
            c.max_attempts = 1;
            c.post("/admin/sleep", "{\"ms\":10}").expect("fill").status
        }
    });
    std::thread::sleep(Duration::from_millis(100));

    // Worker busy + queue full: this must shed, immediately.
    let client = srv.client();
    let r = client.post("/query", "{\"point\":[0.5,0.5]}").expect("shed");
    assert_eq!(r.status, 429, "{}", r.text());
    assert_eq!(r.header("retry-after"), Some("1"));
    assert!(r.text().contains("overloaded"));
    assert!(srv.handle.sheds() >= 1);

    // A retrying client waits out the backlog and succeeds.
    let mut retry = Client::new(addr);
    retry.max_attempts = 8;
    retry.base_backoff = Duration::from_millis(100);
    let r = retry
        .request_with_retry("POST", "/query", b"{\"point\":[0.5,0.5]}")
        .expect("retry should eventually land");
    assert_eq!(r.status, 200, "{}", r.text());

    assert_eq!(pin.join().expect("pin"), 200);
    assert_eq!(fill.join().expect("fill"), 200);
    srv.stop();
}

/// A shed client that sends its head and body in two writes (as
/// `Client` does) still reads a complete `429` and a clean EOF: the
/// accept thread reads the whole request before it answers and closes
/// (discarding what lies past a size limit), so no unread byte turns the
/// close into a reset.
#[test]
fn shed_split_requests_read_a_complete_429_then_eof() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            threads: 1,
            queue_depth: 1,
            chaos: true,
            ..ServerConfig::default()
        },
        idx,
    );
    // Pin the single worker, then fill the queue slot.
    let sleepers: Vec<_> = [1_500u64, 10]
        .iter()
        .map(|&ms| {
            let addr = srv.addr.clone();
            let t = std::thread::spawn(move || {
                let mut c = Client::new(addr);
                c.max_attempts = 1;
                c.post("/admin/sleep", &format!("{{\"ms\":{ms}}}"))
                    .expect("sleep")
                    .status
            });
            std::thread::sleep(Duration::from_millis(100));
            t
        })
        .collect();
    assert_eq!(srv.handle.queue_depth(), 1, "the queue must be full");

    let body = "{\"point\":[0.5,0.5]}".to_string();
    // Heads from a few bytes to 6 KiB: past one segment, and past any
    // single read's worth of draining. Then two oversized requests,
    // whose reading stops at a limit with bytes still in flight: a head
    // past MAX_HEAD, and a Content-Length past MAX_BODY followed by
    // 4 KB of its body.
    let mut cases: Vec<(usize, usize, String)> = [0usize, 1_500, 3_000, 4_500, 6_000]
        .iter()
        .map(|&pad| (pad, body.len(), body.clone()))
        .collect();
    cases.push((http::MAX_HEAD + 4_000, body.len(), body.clone()));
    cases.push((0, http::MAX_BODY + 1, "b".repeat(4_000)));
    for (pad, declared, sent) in cases {
        let mut s = TcpStream::connect(&srv.addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let head = format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nX-Pad: {}\r\nContent-Length: {declared}\r\n\r\n",
            "p".repeat(pad),
        );
        s.write_all(head.as_bytes()).expect("head");
        std::thread::sleep(Duration::from_millis(10));
        s.write_all(sent.as_bytes()).expect("body");
        let mut got = Vec::new();
        s.read_to_end(&mut got)
            .expect("a complete response and EOF, not a reset");
        let text = String::from_utf8_lossy(&got);
        assert!(text.starts_with("HTTP/1.1 429 "), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"overloaded\"}"), "{text}");
    }
    for t in sleepers {
        assert_eq!(t.join().expect("sleeper"), 200);
    }
    srv.stop();
}

#[test]
fn stale_queued_requests_answer_deadline_exceeded() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            threads: 1,
            queue_depth: 8,
            chaos: true,
            deadline: Duration::from_millis(50),
            ..ServerConfig::default()
        },
        idx,
    );
    let addr = srv.addr.clone();

    // Worker busy for 400ms; the query admitted behind it outlives its
    // 50ms budget in the queue and must answer 503, not a stale 200.
    let pin = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::new(addr);
            c.max_attempts = 1;
            c.post("/admin/sleep", "{\"ms\":400}").expect("sleep").status
        }
    });
    std::thread::sleep(Duration::from_millis(100));
    let client = srv.client();
    let r = client.post("/query", "{\"point\":[0.5,0.5]}").expect("query");
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.text().contains("deadline_exceeded"), "{}", r.text());
    assert_eq!(pin.join().expect("pin"), 200);

    let m = client.get("/metrics").expect("metrics").text();
    assert!(
        m.contains("nncell_http_deadline_exceeded_total 1")
            || m.contains("nncell_http_deadline_exceeded_total 2"),
        "{m}"
    );
    srv.stop();
}

#[test]
fn panic_is_isolated_to_the_request() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            threads: 2,
            chaos: true,
            ..ServerConfig::default()
        },
        idx,
    );
    let client = srv.client();

    for _ in 0..3 {
        let r = client.post("/admin/panic", "").expect("panic route");
        assert_eq!(r.status, 500, "{}", r.text());
        assert!(r.text().contains("panic"), "{}", r.text());
    }
    // The pool survived: queries still work on every worker.
    for _ in 0..4 {
        let r = client.post("/query", "{\"point\":[0.5,0.5]}").expect("query");
        assert_eq!(r.status, 200, "{}", r.text());
    }
    let m = client.get("/metrics").expect("metrics").text();
    assert!(m.contains("nncell_http_panics_total 3"), "{m}");
    srv.stop();
}

#[test]
fn graceful_drain_finishes_inflight_and_checkpoints() {
    let dir = scratch_dir("drain");
    let idx = ShardedIndex::build(points(30, 2, 11), 2, cfg())
        .expect("build")
        .into_durable(&dir)
        .expect("durable");
    let srv = spawn(
        ServerConfig {
            threads: 2,
            chaos: true,
            ..ServerConfig::default()
        },
        idx,
    );
    let addr = srv.addr.clone();
    let client = srv.client();

    // Journal a write, then park one worker in a long request.
    let r = client.post("/insert", "{\"point\":[0.123,0.456]}").expect("insert");
    assert_eq!(r.status, 200, "{}", r.text());
    let slow = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::new(addr);
            c.max_attempts = 1;
            c.post("/admin/sleep", "{\"ms\":400}").expect("sleep").status
        }
    });
    std::thread::sleep(Duration::from_millis(100));

    // Shutdown while the sleep is in flight: it must still answer 200.
    let r = client.post("/admin/shutdown", "").expect("shutdown");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(slow.join().expect("slow"), 200, "in-flight request was dropped");
    srv.join
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    // The final checkpoint left zero replay debt: reopening replays no
    // WAL records and the acked insert is present.
    let reopened = ShardedIndex::open_durable(&dir, 2, 2, cfg()).expect("reopen");
    assert_eq!(reopened.wal_records(), 0, "drain must end in a checkpoint");
    assert_eq!(reopened.len(), 31);
    let got = reopened
        .query(&Query::nn(vec![0.123, 0.456]))
        .expect("query");
    assert!(got.best.dist < 1e-12, "inserted point must survive shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_request_ring_captures_over_threshold_requests() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            slow_ms: 0, // record everything
            ..ServerConfig::default()
        },
        idx,
    );
    let client = srv.client();
    client.post("/query", "{\"point\":[0.25,0.75],\"k\":2}").expect("query");
    // The ring captured the request with its query point attached.
    let mut tries = 0;
    let entries = loop {
        let e = srv.handle.slow_requests();
        if !e.is_empty() || tries > 50 {
            break e;
        }
        tries += 1;
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(!entries.is_empty());
    assert!(entries.iter().any(|e| e.point == vec![0.25, 0.75] && e.k == 2));
    srv.stop();
}
