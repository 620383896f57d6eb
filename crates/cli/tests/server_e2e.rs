//! Subprocess robustness E2E for `nncell serve`: the three headline
//! fault-tolerance claims, exercised against the *real binary* over a
//! real TCP socket (the in-process tests in `crates/server` cover the
//! same machinery without process boundaries or signals).
//!
//! 1. **Admission control**: a mixed read/write storm at well over
//!    queue capacity is shed with `429 Retry-After` — no deadlock, no
//!    unbounded queueing — and the server keeps answering afterwards.
//! 2. **Crash safety**: `kill -9` in the middle of a write storm, then
//!    reopen the durable directory in-process. Every acknowledged
//!    insert must be there with bit-identical coordinates, and the
//!    recovered index must answer queries bit-identically to a fresh
//!    in-process engine replaying the recovered writes.
//! 3. **Graceful shutdown**: SIGTERM drains in-flight requests, prints
//!    the drain banner, and leaves *zero replay debt* — reopening
//!    replays no WAL records because the drain ended in a checkpoint.

use nncell_core::{BuildConfig, NnCellIndex, Query, ShardedIndex, StdVfs, WalRecord, WalWriter};
use nncell_geom::Point;
use nncell_server::Client;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DIM: usize = 2;
const SHARDS: usize = 2;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nncell_server_e2e_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> BuildConfig {
    // Must match what `serve` uses for a fresh `--wal` directory.
    BuildConfig::default()
}

/// A running `nncell serve` subprocess: the parsed listen address plus
/// a captured stdout transcript (drained by a thread so the child can
/// never block on a full pipe).
struct ServerProc {
    child: Child,
    addr: String,
    stdout: Arc<Mutex<String>>,
}

impl ServerProc {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_nncell"))
            .arg("serve")
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nncell serve");
        let out = child.stdout.take().expect("piped stdout");
        let mut reader = std::io::BufReader::new(out);
        let mut addr = None;
        let mut line = String::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            line.clear();
            let n = reader.read_line(&mut line).expect("read server stdout");
            assert!(n > 0, "server exited before announcing its address");
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                addr = Some(rest.to_string());
                break;
            }
        }
        let addr = addr.expect("server never printed `listening on`");
        let stdout = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&stdout);
        std::thread::spawn(move || {
            let mut line = String::new();
            while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                if let Ok(mut s) = sink.lock() {
                    s.push_str(&line);
                }
                line.clear();
            }
        });
        Self {
            child,
            addr,
            stdout,
        }
    }

    fn client(&self) -> Client {
        let mut c = Client::new(self.addr.clone());
        c.max_attempts = 1;
        c
    }

    fn transcript(&self) -> String {
        match self.stdout.lock() {
            Ok(s) => s.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn point_for(i: usize) -> Vec<f64> {
    vec![
        ((i * 37) % 101) as f64 / 101.0,
        ((i * 61 + 13) % 103) as f64 / 103.0,
    ]
}

fn insert_body(coords: &[f64]) -> String {
    let nums: Vec<String> = coords.iter().map(|c| format!("{c}")).collect();
    format!("{{\"point\":[{}]}}", nums.join(","))
}

/// Parses `{"id":N}` out of a 200 insert response.
fn acked_id(body: &str) -> usize {
    let digits: String = body
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("insert response carries an id")
}

/// Admission control under a storm at far past queue capacity: some
/// requests are shed with `429 Retry-After`, nothing deadlocks, and the
/// server still answers cleanly once the storm passes.
#[test]
fn storm_past_capacity_sheds_429_and_recovers() {
    let wal = tmp("storm");
    let srv = ServerProc::spawn(&[
        "--wal",
        wal.to_str().unwrap(),
        "--dim",
        "2",
        "--shards",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--queue-depth",
        "2",
        "--deadline-ms",
        "10000",
    ]);

    // Seed a point so reads have something to hit.
    let c = srv.client();
    assert_eq!(
        c.post("/insert", &insert_body(&point_for(0))).unwrap().status,
        200
    );

    // 2x capacity and then some: 16 concurrent mixed read/write clients
    // against 1 worker + 2 queue slots. Raw clients, no retry — we want
    // to *see* the sheds.
    let outcomes: Vec<(u16, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let client = srv.client();
                s.spawn(move || {
                    let r = if i % 4 == 0 {
                        client.post("/insert", &insert_body(&point_for(100 + i)))
                    } else {
                        client.post("/query", "{\"point\":[0.5,0.5]}")
                    };
                    match r {
                        Ok(resp) => {
                            let retry_after =
                                resp.header("retry-after").is_some();
                            (resp.status, retry_after)
                        }
                        Err(_) => (0, false),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
    assert!(ok >= 1, "some requests must get through: {outcomes:?}");
    for (status, retry_after) in &outcomes {
        if *status == 429 {
            assert!(retry_after, "every 429 must carry Retry-After");
        }
    }
    // With 16 against 1+2 capacity, the kernel accept backlog can soak
    // a few, but a majority being answered 200 with zero sheds would
    // mean admission control never engaged.
    assert!(
        shed >= 1,
        "a 16-way storm against capacity 3 must shed: {outcomes:?}"
    );

    // The storm passed; the server is healthy and still serving.
    let after = c.post("/query", "{\"point\":[0.5,0.5]}").unwrap();
    assert_eq!(after.status, 200, "server must serve after the storm");
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let _ = std::fs::remove_dir_all(&wal);
}

/// `kill -9` mid-write-storm, then recover: every acknowledged insert
/// is present bit-for-bit, and the recovered index answers queries
/// bit-identically to an in-process engine replaying the same writes.
#[test]
fn kill_nine_mid_storm_recovers_acked_writes_bit_identical() {
    let wal = tmp("kill9");
    let mut srv = ServerProc::spawn(&[
        "--wal",
        wal.to_str().unwrap(),
        "--dim",
        "2",
        "--shards",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
    ]);

    // Write storm: 4 threads hammer inserts, recording (id, coords) for
    // every *acknowledged* (200) write. SIGKILL lands mid-storm.
    let acked: Arc<Mutex<Vec<(usize, Vec<f64>)>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let client = srv.client();
                let acked = Arc::clone(&acked);
                s.spawn(move || {
                    for i in 0..200 {
                        let coords = point_for(t * 1000 + i);
                        match client.post("/insert", &insert_body(&coords)) {
                            Ok(resp) if resp.status == 200 => {
                                let id = acked_id(&resp.text());
                                acked.lock().unwrap().push((id, coords));
                            }
                            // Shed, refused, or the process is gone.
                            Ok(_) | Err(_) => {
                                if client.get("/healthz").is_err() {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        // Let the storm make progress, then pull the plug. SIGKILL: no
        // drain, no checkpoint, no atexit — whatever the WAL acked is
        // all the recovery gets.
        std::thread::sleep(Duration::from_millis(300));
        srv.child.kill().expect("SIGKILL the server");
        let _ = srv.child.wait();
        for h in handles {
            h.join().unwrap();
        }
    });

    let mut acked = match acked.lock() {
        Ok(g) => g.clone(),
        Err(p) => p.into_inner().clone(),
    };
    acked.sort_by_key(|(id, _)| *id);
    assert!(
        acked.len() >= 8,
        "storm only acked {} writes before the kill — too few to prove anything",
        acked.len()
    );

    // Recover in-process. Every acked id must be live with identical
    // bits; ids beyond the acked set are allowed (in-flight at SIGKILL,
    // acked to no one) but must be contiguous assignments, not garbage.
    let recovered = ShardedIndex::open_durable(&wal, DIM, SHARDS, cfg())
        .expect("recovery after SIGKILL");
    for (id, coords) in &acked {
        let shard = recovered.shard(id % SHARDS);
        let local = id / SHARDS;
        assert!(
            shard.is_live(local),
            "acked insert id {id} lost by SIGKILL recovery"
        );
        let got = shard.points()[local].as_slice();
        assert_eq!(
            got, &coords[..],
            "acked insert id {id} recovered with different bits"
        );
    }

    // Bit-identical serving: replay the *recovered* state into a fresh
    // in-process engine (same shard count, same build config) and
    // compare answers bit-for-bit across a probe grid.
    let replay = ShardedIndex::new(DIM, SHARDS, cfg());
    let total: usize = (0..SHARDS)
        .map(|i| recovered.shard(i).points().len())
        .sum();
    for g in 0..total {
        let shard = recovered.shard(g % SHARDS);
        let local = g / SHARDS;
        // Replay inserts in global id order; re-remove is impossible
        // here (the storm never removes), so every slot is live.
        assert!(shard.is_live(local), "insert-only storm left a dead slot");
        let id = replay
            .insert(shard.points()[local].clone())
            .expect("in-memory replay insert");
        assert_eq!(id, g, "replay must assign the same global ids");
    }
    for probe in 0..20 {
        let q = Query::knn(point_for(probe * 7 + 3), 3);
        let a = recovered.query(&q).expect("recovered query");
        let b = replay.query(&q).expect("replay query");
        let a_ids: Vec<_> = a.iter().map(|r| (r.id, r.dist.to_bits())).collect();
        let b_ids: Vec<_> = b.iter().map(|r| (r.id, r.dist.to_bits())).collect();
        assert_eq!(
            a_ids, b_ids,
            "recovered index diverged from in-process replay on probe {probe}"
        );
    }
    let _ = std::fs::remove_dir_all(&wal);
}

/// SIGTERM drains and checkpoints: the process exits cleanly with the
/// drain banner, and reopening replays zero WAL records.
#[test]
fn sigterm_drains_checkpoints_and_leaves_zero_replay_debt() {
    let wal = tmp("sigterm");
    let mut srv = ServerProc::spawn(&[
        "--wal",
        wal.to_str().unwrap(),
        "--dim",
        "2",
        "--shards",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
    ]);

    let c = srv.client();
    let mut expect = Vec::new();
    for i in 0..12 {
        let coords = point_for(i);
        let r = c.post("/insert", &insert_body(&coords)).unwrap();
        assert_eq!(r.status, 200);
        expect.push((acked_id(&r.text()), coords));
    }

    // SIGTERM, not SIGKILL: the server must drain and checkpoint.
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(srv.child.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(st) = srv.child.try_wait().expect("wait for server") {
            break st;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit within 60s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
    assert!(
        srv.transcript().contains("drained and checkpointed; bye"),
        "missing drain banner in:\n{}",
        srv.transcript()
    );

    // Zero replay debt: the drain ended in a checkpoint, so recovery
    // replays nothing and every acked insert is in the snapshot.
    let reopened = ShardedIndex::open_durable(&wal, DIM, SHARDS, cfg())
        .expect("reopen after graceful shutdown");
    for report in reopened.recovery() {
        assert_eq!(
            report.replayed, 0,
            "graceful shutdown left WAL records to replay: {report:?}"
        );
    }
    assert_eq!(reopened.len(), expect.len());
    for (id, coords) in &expect {
        let shard = reopened.shard(id % SHARDS);
        assert_eq!(shard.points()[id / SHARDS].as_slice(), &coords[..]);
    }
    // And the points actually serve.
    let hit = reopened
        .query(&Query::nn(expect[5].1.clone()))
        .unwrap()
        .best;
    assert_eq!(hit.id, expect[5].0);
    assert!(hit.dist < 1e-12);
    let _ = std::fs::remove_dir_all(&wal);
}

/// End-to-end trace propagation through the real binary: a client-sent
/// sampled `traceparent` forces recording server-side (sampling is off
/// by default), the response echoes the same trace id, and
/// `GET /debug/trace` exports the nested server → shard → engine and
/// WAL span tree as Chrome trace-event JSON.
#[test]
fn traceparent_round_trips_and_debug_trace_exports_the_tree() {
    use nncell_obs::trace;
    use nncell_obs::SpanContext;

    let wal = tmp("trace");
    let srv = ServerProc::spawn(&[
        "--wal",
        wal.to_str().unwrap(),
        "--dim",
        "2",
        "--shards",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
    ]);
    let client = srv.client();

    // Seed some untraced points so the query has work to do.
    for i in 0..12 {
        let r = client
            .post("/insert", &insert_body(&point_for(i)))
            .expect("seed insert");
        assert_eq!(r.status, 200);
    }

    // Traced requests: the std-only client forwards the calling
    // thread's sampled context as a `traceparent` header automatically.
    const TRACE: u128 = 0xe2e0_0000_0000_0000_0000_0000_0000_0001;
    trace::init();
    let (query_resp, insert_resp) = {
        let _root = trace::root_from(
            "e2e.client",
            Some(SpanContext {
                trace: TRACE,
                span: 0x42,
                sampled: true,
            }),
        );
        let q = client
            .post("/query", "{\"point\":[0.4,0.6],\"k\":3}")
            .expect("traced query");
        let i = client
            .post("/insert", &insert_body(&[0.11, 0.22]))
            .expect("traced insert");
        (q, i)
    };
    assert_eq!(query_resp.status, 200);
    assert_eq!(insert_resp.status, 200);

    // The response echoes the continued trace: same trace id, a
    // server-minted span id, sampled flag intact.
    for resp in [&query_resp, &insert_resp] {
        let echoed = resp
            .header("traceparent")
            .expect("server echoes traceparent on traced requests");
        let ctx = SpanContext::parse_traceparent(echoed).expect("well-formed traceparent");
        assert_eq!(ctx.trace, TRACE, "trace id unchanged through the round trip");
        assert!(ctx.sampled);
    }

    let export = client.get("/debug/trace?last=50").expect("debug trace");
    assert_eq!(export.status, 200);
    let body = export.text();
    assert!(
        body.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "not Chrome trace-event JSON:\n{body}"
    );
    assert_eq!(body.matches('{').count(), body.matches('}').count());

    // Only the events of our trace (the seed inserts were unsampled and
    // must not appear — sampling is off by default).
    let hex = format!("{TRACE:032x}");
    let events: Vec<&str> = body.lines().filter(|l| l.contains("\"name\"")).collect();
    assert!(
        events.iter().all(|l| l.contains(&hex)),
        "unsampled request leaked into the flight recorder:\n{body}"
    );

    // The full nested tree is there: request lifecycle, shard fan-out,
    // engine work, and the WAL append of the traced insert.
    for name in [
        "server.request",
        "server.queue_wait",
        "server.parse",
        "server.handle",
        "server.serialize",
        "shard.query",
        "engine.query",
        "wal.append",
    ] {
        assert!(
            events.iter().any(|l| l.contains(&format!("\"name\":\"{name}\""))),
            "span {name} missing from export:\n{body}"
        );
    }

    // Spot-check the nesting: every shard.query parents an engine.query,
    // and the shard spans hang off a server.handle span.
    let field = |line: &str, key: &str| -> String {
        let tag = format!("\"{key}\":\"");
        let start = line.find(&tag).map(|i| i + tag.len()).unwrap_or(0);
        line[start..].chars().take_while(|c| *c != '"').collect()
    };
    let span_of = |name: &str| -> Vec<String> {
        events
            .iter()
            .filter(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .map(|l| field(l, "span"))
            .collect()
    };
    let handle_spans = span_of("server.handle");
    let shard_events: Vec<&&str> = events
        .iter()
        .filter(|l| l.contains("\"name\":\"shard.query\""))
        .collect();
    assert_eq!(shard_events.len(), 2, "one span per shard:\n{body}");
    for ev in &shard_events {
        assert!(
            handle_spans.contains(&field(ev, "parent")),
            "shard span not parented by server.handle:\n{body}"
        );
    }
    let shard_spans = span_of("shard.query");
    for ev in events.iter().filter(|l| l.contains("\"name\":\"engine.query\"")) {
        assert!(
            shard_spans.contains(&field(ev, "parent")),
            "engine span not parented by a shard span:\n{body}"
        );
    }

    let _ = std::fs::remove_dir_all(&wal);
}

/// Writes a durable directory in the unsharded layout of earlier
/// releases — `CURRENT` holding the bare generation number `0`, the
/// generation files beside it — with three journaled writes that were
/// never checkpointed. Returns the logical state those writes leave.
fn write_unsharded_layout(dir: &std::path::Path) -> Vec<Option<Vec<f64>>> {
    std::fs::create_dir_all(dir).unwrap();
    let pts: Vec<Point> = (0..30).map(|i| Point::new(point_for(i))).collect();
    NnCellIndex::build(pts, cfg())
        .unwrap()
        .save(dir.join("snapshot.0.nncell"))
        .unwrap();
    let mut wal = WalWriter::create(&StdVfs, &dir.join("wal.0.log")).unwrap();
    wal.append(&WalRecord::Insert(Point::new(point_for(100)))).unwrap();
    wal.append(&WalRecord::Remove(3)).unwrap();
    wal.append(&WalRecord::Insert(Point::new(point_for(101)))).unwrap();
    std::fs::write(dir.join("CURRENT"), "0\n").unwrap();
    let mut state: Vec<Option<Vec<f64>>> = (0..30).map(|i| Some(point_for(i))).collect();
    state.push(Some(point_for(100)));
    state[3] = None;
    state.push(Some(point_for(101)));
    state
}

/// A directory in the unsharded layout opens as one shard: `nncell
/// insert --wal` journals into it, `nncell serve --wal` answers from it
/// and takes HTTP writes, and after a SIGKILL every acked write —
/// journaled by either era — recovers bit-identically.
#[test]
fn unsharded_layout_serves_and_takes_writes() {
    let dir = tmp("unsharded");
    let mut state = write_unsharded_layout(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_nncell"))
        .args(["insert", "--wal", dir.to_str().unwrap(), "--point", "0.123,0.456"])
        .output()
        .expect("spawn insert");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("inserted point #32"));
    state.push(Some(vec![0.123, 0.456]));

    let srv = ServerProc::spawn(&["--wal", dir.to_str().unwrap(), "--addr", "127.0.0.1:0"]);
    let c = srv.client();
    for (id, coords) in [(31, point_for(101)), (32, vec![0.123, 0.456])] {
        let r = c.post("/query", &insert_body(&coords)).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        assert!(r.text().contains(&format!("\"id\":{id}")), "{}", r.text());
    }
    let r = c.post("/insert", &insert_body(&point_for(102))).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(acked_id(&r.text()), 33);
    state.push(Some(point_for(102)));
    drop(srv); // SIGKILL

    let recovered = ShardedIndex::open_durable_existing(&dir).expect("recover");
    assert_eq!(recovered.num_shards(), 1);
    let shard = recovered.shard(0);
    assert_eq!(shard.points().len(), state.len());
    for (id, want) in state.iter().enumerate() {
        match want {
            Some(coords) => {
                assert!(shard.is_live(id), "acked insert {id} lost");
                assert_eq!(shard.points()[id].as_slice(), &coords[..], "bits of {id}");
            }
            None => assert!(!shard.is_live(id), "removed point {id} resurrected"),
        }
    }
    assert!(dir.join("CURRENT").exists() && !dir.join("shard-0").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every write goes through the memtable tail, so a tail that can hold
/// nothing is a configuration error, not a mode switch.
#[test]
fn serve_rejects_a_zero_tail_max() {
    let wal = tmp("tail_max_zero");
    let out = Command::new(env!("CARGO_BIN_EXE_nncell"))
        .args(["serve", "--wal", wal.to_str().unwrap(), "--dim", "2"])
        .args(["--addr", "127.0.0.1:0", "--tail-max", "0"])
        .output()
        .expect("spawn serve");
    assert!(!out.status.success(), "serve --tail-max 0 must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--tail-max must be at least 1"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!wal.exists(), "a rejected serve must not initialize the directory");
}

/// Runs the `nncell` binary to completion, asserting success; returns stdout.
fn nncell(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_nncell"))
        .args(args)
        .output()
        .expect("spawn nncell");
    assert!(
        out.status.success(),
        "nncell {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `(id, distance as printed)` for every ranked line of `nncell query`.
fn printed_hits(stdout: &str) -> Vec<(usize, String)> {
    stdout
        .lines()
        .filter_map(|l| {
            let (left, dist) = l.split_once(" at distance ")?;
            let id = left.rsplit_once('#')?.1.parse().ok()?;
            Some((id, dist.trim().to_string()))
        })
        .collect()
}

/// Every `--index` path opens as a sharded index: a single snapshot file
/// as one shard, a plain sharded directory from its manifest. `serve`
/// answers `/query` on it exactly as `nncell query` does on the same path
/// — the same ids, the same printed distances, and distance bits equal to
/// the in-process `ShardedIndex::load` that command runs — including
/// centres outside the unit square and `k` past the live count. Neither
/// path is durable, so both refuse `/insert` and `/remove` with
/// `403 read_only` instead of acknowledging writes a restart would lose,
/// and `stats` on the snapshot file reports its shard's `shard="0"`
/// series.
#[test]
fn index_paths_serve_read_only_and_answer_like_the_query_command() {
    let dir = tmp("index_paths");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("pts.csv");
    let file = dir.join("one.nncell");
    let sharded = dir.join("three");
    let (csv, file, sharded) = (
        csv.to_str().unwrap(),
        file.to_str().unwrap(),
        sharded.to_str().unwrap(),
    );
    nncell(&["generate", "--n", "200", "--dim", "2", "--seed", "9", "--out", csv]);
    nncell(&["build", "--points", csv, "--out", file]);
    nncell(&["build", "--points", csv, "--shards", "3", "--out", sharded]);

    let queries: [([f64; 2], usize); 4] =
        [([0.3, 0.7], 1), ([0.5, 0.5], 4), ([1.4, -0.2], 3), ([-0.5, 0.25], 250)];
    for path in [file, sharded] {
        let reference = ShardedIndex::load(path).expect("load");
        let srv = ServerProc::spawn(&["--index", path, "--addr", "127.0.0.1:0"]);
        let c = srv.client();
        for (q, k) in &queries {
            let r = c
                .post("/query", &format!("{{\"point\":[{},{}],\"k\":{k}}}", q[0], q[1]))
                .unwrap();
            assert_eq!(r.status, 200, "{}", r.text());
            let body = nncell_server::json::parse(&r.text()).expect("json");
            let served: Vec<(usize, f64)> = body
                .get("results")
                .and_then(|v| v.as_arr().map(<[_]>::to_vec))
                .expect("results")
                .iter()
                .map(|h| {
                    let id = h.get("id").and_then(|v| v.as_usize()).expect("id");
                    (id, h.get("dist").and_then(|v| v.as_f64()).expect("dist"))
                })
                .collect();
            let want = reference.query(&Query::knn(q.to_vec(), *k)).expect("query");
            let want: Vec<(usize, u64)> = want.iter().map(|h| (h.id, h.dist.to_bits())).collect();
            let got: Vec<(usize, u64)> = served.iter().map(|&(id, d)| (id, d.to_bits())).collect();
            assert_eq!(got, want, "{path} {q:?} k={k}");
            assert_eq!(got.len(), (*k).min(200));

            let point = format!("{},{}", q[0], q[1]);
            let printed = printed_hits(&nncell(&[
                "query", "--index", path, "--point", &point, "--k", &k.to_string(),
            ]));
            let served: Vec<(usize, String)> =
                served.iter().map(|&(id, d)| (id, format!("{d:.6}"))).collect();
            assert_eq!(printed, served, "{path} {q:?} k={k}");
        }
        for (route, body) in [("/insert", "{\"point\":[0.25,0.25]}"), ("/remove", "{\"id\":0}")] {
            let r = c.post(route, body).unwrap();
            assert_eq!(r.status, 403, "{route} on {path}: {}", r.text());
            assert!(r.text().contains("read_only"), "{}", r.text());
        }
    }

    let prom = nncell(&["stats", "--index", file, "--queries", "5", "--prom"]);
    assert!(prom.contains("nncell_queries_total{shard=\"0\"} 5"), "{prom}");
    assert!(prom.contains("nncell_live_points{shard=\"0\"} 200"), "{prom}");
    let _ = std::fs::remove_dir_all(&dir);
}
