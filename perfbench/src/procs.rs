//! Driving the shipped `nncell` binary: `build`, `serve`, and reading a
//! server process's memory and CPU from `/proc`.
//!
//! Every server is stopped with SIGKILL. A graceful SIGTERM would run the
//! server's final checkpoint, which folds the whole memtable tail into the
//! NN-cells first; at d=8 the fold manages about 0.1 records/s, so a run
//! that acked a few thousand writes would take hours to shut down.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

/// The `build profile` line of `nncell build`, in seconds. The phase times
/// are summed over the shard build threads.
#[derive(Clone, Copy)]
pub struct BuildProfile {
    pub constraints_s: f64,
    pub lp_s: f64,
    pub bulk_load_s: f64,
}

/// Runs `nncell build` for a 2-shard durable directory with NN-Direction
/// cells, also saving a plain copy to `plain` when given, and returns the
/// build profile.
pub fn build(
    nncell: &Path,
    csv: &Path,
    dir: &Path,
    plain: Option<&Path>,
) -> Result<BuildProfile, String> {
    let mut cmd = Command::new(nncell);
    cmd.args([
        "build",
        "--strategy",
        "nn-direction",
        "--shards",
        "2",
        "--points",
    ])
    .arg(csv)
    .arg("--wal")
    .arg(dir);
    if let Some(p) = plain {
        cmd.arg("--out").arg(p);
    }
    die_with_parent(&mut cmd);
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", nncell.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "nncell build failed ({}): {}{}",
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("build profile  : "))
        .ok_or("nncell build printed no build profile")?;
    parse_profile(line).ok_or_else(|| format!("unreadable build profile: {line}"))
}

/// `constraints 5.684s/8000 cell(s), LP 2.184s, decomposition 0.000s/0, bulk load 0.020s`
fn parse_profile(line: &str) -> Option<BuildProfile> {
    let secs = |label: &str| -> Option<f64> {
        let rest = line.split(", ").find_map(|part| part.strip_prefix(label))?;
        rest.split('s').next()?.parse().ok()
    };
    Some(BuildProfile {
        constraints_s: secs("constraints ")?,
        lp_s: secs("LP ")?,
        bulk_load_s: secs("bulk load ")?,
    })
}

/// A running `nncell serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `nncell serve` on a durable directory and waits until
    /// `/readyz` answers 200.
    pub fn start(nncell: &Path, dir: &Path, trace_sample: u64) -> Result<Self, String> {
        let mut cmd = Command::new(nncell);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--wal"])
            .arg(dir)
            .args(["--trace-sample", &trace_sample.to_string()]);
        die_with_parent(&mut cmd);
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", nncell.display()))?;
        let Some(stdout) = child.stdout.take() else {
            kill(&mut child);
            return Err("server stdout not captured".into());
        };
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = server.read_addr()?;
        server.wait_ready()?;
        Ok(server)
    }

    fn read_addr(&mut self) -> Result<SocketAddr, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading server output: {e}"))?;
            if n == 0 {
                return Err("nncell serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                return addr
                    .parse()
                    .map_err(|_| format!("bad listen address {addr:?}"));
            }
        }
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        let give_up = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(r) = http::request(self.addr, "GET", "/readyz", b"") {
                if r.status == 200 {
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("nncell serve exited with {status}"));
            }
            if Instant::now() > give_up {
                return Err("nncell serve not ready after 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in server status")?;
        Ok(kb / 1024.0)
    }

    /// User plus system CPU the server has used, in milliseconds: the
    /// whole process, and its background folder thread alone.
    pub fn cpu_ms(&self) -> Result<Cpu, String> {
        let pid = self.child.id();
        let total = stat_cpu_ms(&format!("/proc/{pid}/stat"))?;
        let mut folder = 0.0;
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
            .map_err(|e| format!("listing server threads: {e}"))?;
        for task in tasks {
            let dir = task
                .map_err(|e| format!("listing server threads: {e}"))?
                .path();
            // A thread may exit between the listing and the read.
            let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
                continue;
            };
            if comm.trim() == FOLDER_THREAD {
                folder += stat_cpu_ms(&dir.join("stat").to_string_lossy())?;
            }
        }
        Ok(Cpu { total, folder })
    }
}

/// The name `nncell serve` gives the thread that folds the memtable tail.
const FOLDER_THREAD: &str = "nncell-folder";

/// Server CPU in milliseconds (see [`Server::cpu_ms`]).
#[derive(Clone, Copy)]
pub struct Cpu {
    pub total: f64,
    pub folder: f64,
}

impl std::ops::Sub for Cpu {
    type Output = Cpu;
    fn sub(self, rhs: Cpu) -> Cpu {
        Cpu {
            total: self.total - rhs.total,
            folder: self.folder - rhs.folder,
        }
    }
}

/// utime plus stime of a `/proc/.../stat` file, in milliseconds.
fn stat_cpu_ms(path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').ok_or("bad server stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("bad {path}"))
    };
    Ok((ticks(11)? + ticks(12)?) * 1000.0 / clock_ticks_per_second())
}

impl Drop for Server {
    fn drop(&mut self) {
        kill(&mut self.child);
    }
}

fn kill(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Has the kernel SIGKILL the child when the thread that started it
/// exits, so a benchmark killed from outside leaves no process behind.
fn die_with_parent(cmd: &mut Command) {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and calls
    // only prctl, which is async-signal-safe; PR_SET_PDEATHSIG takes one
    // unsigned long signal number.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and has no other preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Total size of the regular files under `dir`, in MiB.
pub fn disk_mb(dir: &Path) -> Result<f64, String> {
    fn walk(dir: &Path, total: &mut u64) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                walk(&entry.path(), total)?;
            } else {
                *total += meta.len();
            }
        }
        Ok(())
    }
    let mut total = 0;
    walk(dir, &mut total).map_err(|e| format!("sizing {}: {e}", dir.display()))?;
    Ok(total as f64 / (1024.0 * 1024.0))
}

/// Copies a directory tree of regular files.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fn walk(from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            let target: PathBuf = to.join(entry.file_name());
            if entry.metadata()?.is_dir() {
                walk(&entry.path(), &target)?;
            } else {
                std::fs::copy(entry.path(), target)?;
            }
        }
        Ok(())
    }
    walk(from, to).map_err(|e| format!("copying {}: {e}", from.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_build_profile_line() {
        let p = parse_profile(
            "constraints 5.684s/8000 cell(s), LP 2.184s, decomposition 0.000s/0, bulk load 0.020s",
        )
        .expect("parses");
        assert_eq!(
            (p.constraints_s, p.lp_s, p.bulk_load_s),
            (5.684, 2.184, 0.020)
        );
    }
}
