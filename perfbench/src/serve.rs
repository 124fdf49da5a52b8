//! Drives `plasticine-run serve` over its line protocol on a Unix socket.

use plasticine::json::hash::fnv1a_str;
use plasticine::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads the daemon runs with.
pub const WORKERS: usize = 2;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// How long a reply, the ready line or the drain may take.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// A running daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    stderr: Option<JoinHandle<()>>,
    lines: Receiver<String>,
    /// Seconds from spawn to the `serve: ready` line.
    pub ready_s: f64,
}

impl Daemon {
    /// Spawns `bin serve --workers 2 --socket <socket>` with the default
    /// queue depth and waits for its ready line.
    pub fn spawn(bin: &Path, socket: &Path) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--workers")
            .arg(WORKERS.to_string())
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the daemon's whole life so it never blocks on
        // a full pipe.
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut d = Daemon {
            child,
            socket: socket.to_path_buf(),
            stderr: Some(stderr),
            lines: rx,
            ready_s: 0.0,
        };
        loop {
            match d.lines.recv_timeout(IO_TIMEOUT) {
                Ok(l) if l.starts_with("serve: ready") => break,
                Ok(_) => {}
                Err(_) => return Err("daemon exited or stalled before its ready line".into()),
            }
        }
        d.ready_s = t0.elapsed().as_secs_f64();
        Ok(d)
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Client, String> {
        let s = UnixStream::connect(&self.socket)
            .map_err(|e| format!("connecting to {}: {e}", self.socket.display()))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let r = s.try_clone().map_err(|e| format!("socket clone: {e}"))?;
        Ok(Client {
            w: s,
            r: BufReader::new(r),
        })
    }

    /// `VmHWM` of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown`, waits for the drain and checks it was clean.
    pub fn shutdown(mut self) -> Result<(), String> {
        let resp = self
            .connect()?
            .call(&Json::obj([("op", Json::from("shutdown"))]))?;
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("shutdown answered {}", resp.compact()));
        }
        let joined = resp.get("workers_joined").and_then(Json::as_u64);
        let deadline = Instant::now() + IO_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break s,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if !status.success() || joined != Some(WORKERS as u64) {
            return Err(format!(
                "daemon drained with {status}, {joined:?}/{WORKERS} workers joined"
            ));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))
}

/// One connection: a request line out, a response line back.
pub struct Client {
    w: UnixStream,
    r: BufReader<UnixStream>,
}

impl Client {
    /// Sends one request and reads its response.
    pub fn call(&mut self, req: &Json) -> Result<Json, String> {
        let mut line = req.compact();
        line.push('\n');
        self.w
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending request: {e}"))?;
        let mut resp = String::new();
        match self.r.read_line(&mut resp) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Json::parse(&resp).map_err(|e| format!("bad response line: {e}")),
            Err(e) => Err(format!("reading response: {e}")),
        }
    }
}

/// One served request as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    pub index: usize,
    pub bench: String,
    /// Seconds from the loop start to the send.
    pub sent_s: f64,
    /// Seconds from the loop start to the response line.
    pub done_s: f64,
    pub cycles: u64,
    /// FNV-1a digest of the compact `stats` object.
    pub digest: u64,
    pub error: Option<String>,
}

impl Served {
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.sent_s
    }
}

/// Checks one `run` response and extracts what the metrics need.
fn check_response(index: usize, bench: &str, resp: &Json) -> (u64, u64, Option<String>) {
    let status = resp.get("status").and_then(Json::as_str);
    let verified = resp.get("verified").and_then(Json::as_bool);
    let id = resp.get("id").and_then(Json::as_u64);
    let cycles = resp.get("cycles").and_then(Json::as_u64).unwrap_or(0);
    let digest = resp
        .get("stats")
        .map(|s| fnv1a_str(&s.compact()))
        .unwrap_or(0);
    let error = if status != Some("ok") || verified != Some(true) {
        Some(format!(
            "{bench}: status {status:?}, verified {verified:?}: {}",
            resp.get("error").and_then(Json::as_str).unwrap_or("")
        ))
    } else if id != Some(index as u64) {
        Some(format!("{bench}: response id {id:?} for request {index}"))
    } else if cycles == 0 || digest == 0 {
        Some(format!("{bench}: response without cycles or stats"))
    } else {
        None
    };
    (cycles, digest, error)
}

/// Runs the closed loop: `CLIENTS` clients, each sending its next request
/// only after its previous response, drawing from `seq` in order. Stops
/// at a whole round of `round` requests once `seconds` have passed and at
/// least `min` requests completed, or at `max` requests.
pub fn closed_loop(
    d: &Daemon,
    seq: &[&str],
    scale: usize,
    round: usize,
    seconds: f64,
    min: usize,
) -> Result<Vec<Served>, String> {
    let max = seq.len();
    let t0 = Instant::now();
    let cursor = Mutex::new(0usize);
    let clients = (0..CLIENTS)
        .map(|_| d.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let results: Vec<Result<Vec<Served>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = {
                            let mut next = cursor.lock().expect("cursor lock poisoned");
                            let stop = *next >= max
                                || (next.is_multiple_of(round)
                                    && *next >= min
                                    && t0.elapsed().as_secs_f64() >= seconds);
                            if stop {
                                // Every later draw stops too.
                                *next = usize::MAX;
                                return Ok(mine);
                            }
                            *next += 1;
                            *next - 1
                        };
                        let bench = seq[i];
                        let req = Json::obj([
                            ("id", Json::from(i)),
                            ("op", Json::from("run")),
                            ("bench", Json::from(bench)),
                            ("scale", Json::from(scale)),
                        ]);
                        let sent_s = t0.elapsed().as_secs_f64();
                        let resp = c.call(&req)?;
                        let done_s = t0.elapsed().as_secs_f64();
                        let (cycles, digest, error) = check_response(i, bench, &resp);
                        mine.push(Served {
                            index: i,
                            bench: bench.to_string(),
                            sent_s,
                            done_s,
                            cycles,
                            digest,
                            error,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|s| s.index);
    Ok(all)
}

/// The daemon's counters from the `stats` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shed: u64,
    pub served: u64,
}

/// Queries the `stats` op.
pub fn daemon_stats(d: &Daemon) -> Result<DaemonStats, String> {
    let resp = d
        .connect()?
        .call(&Json::obj([("op", Json::from("stats"))]))?;
    let s = resp
        .get("stats")
        .ok_or_else(|| format!("stats answered {}", resp.compact()))?;
    let n = |k: &str| {
        s.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats without `{k}`"))
    };
    Ok(DaemonStats {
        cache_hits: n("cache_hits")?,
        cache_misses: n("cache_misses")?,
        shed: n("shed")?,
        served: n("served")?,
    })
}
