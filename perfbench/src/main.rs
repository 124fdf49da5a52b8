//! The repository benchmark: end-to-end host-time metrics of the Plasticine
//! stack with tracing off, and a per-layer breakdown from a traced run.
//!
//! ```sh
//! python3 perfbench/run.py --workload suite-s4 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this program and the `plasticine-run` binary, then runs
//! this program with `--bin` pointing at that binary. The workloads, the
//! metrics and the layer each metric belongs to are described in
//! `perfbench/README.md`. The last line of standard output is the result
//! object; the lines before it print every metric by name and unit.

mod metrics;
mod pipeline;
mod serve;
mod spans;
mod stats;

use metrics::{E2eInputs, LayerInputs, PassCounts};
use pipeline::{AppRun, Compiler, Pipeline, Source};
use plasticine::arch::PlasticineParams;
use plasticine::compiler::CompileCache;
use plasticine::dram::DramConfig;
use plasticine::json::Json;
use plasticine::sim::{SimOptions, StepMode};
use plasticine::workloads::{dense, ml, sparse, Bench, Scale};
use serve::{Daemon, Served};
use spans::Spans;
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Times the benches are built in set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SuiteS4,
    SparseRemote,
    ServeS16,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "suite-s4" => Some(Workload::SuiteS4),
            "sparse-remote" => Some(Workload::SparseRemote),
            "serve-s16" => Some(Workload::ServeS16),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SuiteS4 => "suite-s4",
            Workload::SparseRemote => "sparse-remote",
            Workload::ServeS16 => "serve-s16",
        }
    }

    /// The workload's benches, built by their public constructors. Input
    /// data comes from the constructors' fixed internal seeds.
    fn build(self) -> Vec<Bench> {
        match self {
            Workload::SuiteS4 => plasticine::workloads::all(Scale(4)),
            Workload::SparseRemote => {
                let s = Scale(64);
                vec![sparse::smdv(s), sparse::pagerank(s), sparse::bfs(s)]
            }
            Workload::ServeS16 => {
                let s = Scale(SERVE_SCALE);
                vec![
                    sparse::smdv(s),
                    sparse::pagerank(s),
                    sparse::bfs(s),
                    dense::tpchq6(s),
                    ml::kmeans(s),
                    ml::logreg(s),
                ]
            }
        }
    }

    /// Simulator options: event stepping on one thread; the sparse
    /// workload sees DRAM from a fabric clocked 96x faster (the `simkernel`
    /// bench's `remote` configuration).
    fn sim_options(self) -> SimOptions {
        let core_ghz = match self {
            Workload::SparseRemote => 96.0,
            _ => DramConfig::default().core_ghz,
        };
        SimOptions {
            dram: DramConfig {
                core_ghz,
                ..DramConfig::default()
            },
            step: StepMode::Event,
            threads: 1,
            ..SimOptions::default()
        }
    }
}

/// Fewest timed passes (served rounds) a run measures, however short
/// `--seconds` is, so each app's median rests on several samples.
const MIN_PASSES: usize = 8;

/// Rounds of the serve request sequence; far more than a run serves.
const MAX_ROUNDS: usize = 1000;

/// Scale of the served requests.
const SERVE_SCALE: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        match k.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--bin" | "--out-dir" => {
                kv.insert(k, v);
            }
            _ => return Err(format!("unknown argument {k}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: if seconds > 0.0 {
            seconds
        } else {
            return Err("--seconds must be positive".into());
        },
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        bin: get("--bin")?.into(),
        out_dir: get("--out-dir")?.into(),
    })
}

/// SplitMix64: the seed's permutations of app and request order.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly random permutation of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// What a run reports.
struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed after the metrics.
    notes: Vec<String>,
    attempted: usize,
    /// Failure descriptions; each counts once in `failed`.
    failures: Vec<String>,
    /// Raw samples behind the metrics, for the result file.
    samples: Vec<(&'static str, Vec<f64>)>,
    spans: Option<Json>,
}

/// Per-app reference results from the first pass; every later run of the
/// app must repeat them exactly.
#[derive(Default)]
struct Reference(BTreeMap<String, (u64, u64)>);

impl Reference {
    /// Records or checks `run`; a mismatch becomes the run's error.
    fn check(&mut self, run: &mut AppRun) {
        if run.error.is_some() {
            return;
        }
        let got = (run.cycles, run.digest);
        let want = *self.0.entry(run.name.clone()).or_insert(got);
        if got != want {
            run.error = Some(format!(
                "{}: cycles/stats digest {got:?} differ from the first run's {want:?}",
                run.name
            ));
        }
    }
}

/// `SimKernel::new` less the separate interpreter call, per traced app run.
fn kernel_builds(traced: &[(f64, Vec<AppRun>)]) -> Vec<(String, f64)> {
    traced
        .iter()
        .flat_map(|(_, apps)| apps.iter())
        .map(|r| (r.name.clone(), r.kernel_new_s - r.probe_s))
        .collect()
}

fn failures_of(apps: &[AppRun]) -> Vec<String> {
    apps.iter().filter_map(|a| a.error.clone()).collect()
}

/// `setup_s` for the in-process workloads: the median of several builds
/// of the workload's benches (inputs and goldens). Returns the last build.
fn timed_builds(w: Workload, tr: &mut Spans) -> (Vec<Bench>, Vec<f64>) {
    let mut times = Vec::new();
    let mut benches = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Free the previous build outside the timed window.
        drop(std::mem::take(&mut benches));
        let t = Instant::now();
        benches = tr.time("workloads.build", "setup", || w.build());
        times.push(t.elapsed().as_secs_f64());
    }
    (benches, times)
}

/// One pass over `benches` in the seed's order for pass `index`.
fn inproc_pass(
    p: &Pipeline<'_>,
    benches: &[Bench],
    seed: u64,
    index: u64,
    tr: &mut Spans,
    reference: &mut Reference,
) -> (f64, Vec<AppRun>) {
    let order = Rng::new(seed, index).permutation(benches.len());
    let t = Instant::now();
    let pass = tr.enter("pass", &index.to_string());
    let mut apps = Vec::with_capacity(benches.len());
    for i in order {
        let b = &benches[i];
        let mut run = p.run(Source::Prebuilt(b), &b.name, tr);
        reference.check(&mut run);
        apps.push(run);
    }
    tr.exit(pass);
    (t.elapsed().as_secs_f64(), apps)
}

/// suite-s4 and sparse-remote: in-process passes over the apps.
fn run_inproc(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let mut tr = Spans::new(a.trace);
    let (benches, builds) = timed_builds(w, &mut tr);
    let p = Pipeline {
        params: PlasticineParams::paper_final(),
        opts: w.sim_options(),
        compiler: Compiler::Cold,
    };
    let mut reference = Reference::default();
    let mut off = Spans::new(false);
    // Warm-up pass: fills the allocator and the reference results.
    let (_, warm) = inproc_pass(&p, &benches, a.seed, 0, &mut off, &mut reference);
    let mut failures = failures_of(&warm);
    let mut attempted = warm.len();
    let t0 = Instant::now();
    let mut untraced: Vec<(f64, Vec<AppRun>)> = Vec::new();
    let mut traced: Vec<(f64, Vec<AppRun>)> = Vec::new();
    let mut index = 1;
    loop {
        let done = untraced.len();
        let enough = t0.elapsed().as_secs_f64() >= a.seconds;
        // The traced run alternates untraced and traced passes, splitting
        // the time; it needs two of each, not the full pass count.
        let stop = if a.trace {
            enough && traced.len() >= 2
        } else {
            enough && done >= MIN_PASSES
        };
        if stop {
            break;
        }
        let pass = inproc_pass(&p, &benches, a.seed, index, &mut off, &mut reference);
        untraced.push(pass);
        index += 1;
        if a.trace {
            let pass = inproc_pass(&p, &benches, a.seed, index, &mut tr, &mut reference);
            traced.push(pass);
            index += 1;
        }
    }
    for (_, apps) in untraced.iter().chain(&traced) {
        attempted += apps.len();
        failures.extend(failures_of(apps));
    }
    let latencies: Vec<(String, f64)> = untraced
        .iter()
        .flat_map(|(_, apps)| apps.iter())
        .map(|r| (r.name.clone(), r.latency_s))
        .collect();
    let counts = PassCounts::of(&warm);
    let mut notes = vec![format!(
        "passes: {} untraced, {} traced, {} apps each",
        untraced.len(),
        traced.len(),
        benches.len()
    )];
    let samples = vec![
        ("setup_build_s", builds.clone()),
        ("untraced_pass_s", untraced.iter().map(|p| p.0).collect()),
        ("traced_pass_s", traced.iter().map(|p| p.0).collect()),
    ];
    let metrics = if a.trace {
        let li = LayerInputs {
            pass_sums: metrics::pass_self_times(tr.spans()),
            setup_builds_s: builds,
            traced_pass_s: traced.iter().map(|p| p.0).collect(),
            untraced_pass_s: untraced.iter().map(|p| p.0).collect(),
            exec_s: exec_times(&traced),
            kernel_build_s: kernel_builds(&traced),
            latency_p50_ms: median(&metrics::app_medians(&latencies)) * 1e3,
            counts: PassCounts {
                body_invocations: traced
                    .first()
                    .map_or(0, |(_, apps)| PassCounts::of(apps).body_invocations),
                ..counts
            },
            cache_hits: 0,
            cache_lookups: 0,
            shed: 0,
        };
        notes.push(format!(
            "compiler.cache_hit_ratio base: 0 lookups (compile_with on every run, {} compiles a pass)",
            benches.len()
        ));
        layer_notes(w, &li, &mut notes);
        metrics::layers(&li)
    } else {
        let e = E2eInputs {
            round_s: untraced.iter().map(|p| p.0).collect(),
            latencies_s: latencies,
            round: benches.len(),
            pass_cycles: counts.cycles,
            setup_s: median(&builds),
            peak_rss_mb: serve::vm_hwm_mb("/proc/self/status")?,
        };
        let (values, tail) = metrics::e2e(&e);
        notes.push(pooled_note(&e.latencies_s, &tail));
        values
    };
    Ok(Report {
        metrics,
        notes,
        attempted,
        failures,
        samples,
        spans: a.trace.then(|| tr.to_json()),
    })
}

/// Seconds of each whole round of served requests, from its first send to
/// its last response. The two clients overlap consecutive rounds.
fn round_spans(served: &[Served], round: usize) -> Vec<f64> {
    served
        .chunks_exact(round)
        .map(|r| {
            let first = r.iter().map(|s| s.sent_s).fold(f64::INFINITY, f64::min);
            let last = r.iter().map(|s| s.done_s).fold(f64::NEG_INFINITY, f64::max);
            last - first
        })
        .collect()
}

/// Per-app execution times of the traced passes, by app name.
fn exec_times(traced: &[(f64, Vec<AppRun>)]) -> Vec<(String, f64)> {
    traced
        .iter()
        .flat_map(|(_, apps)| apps.iter())
        .map(|r| (r.name.clone(), r.exec_s()))
        .collect()
}

/// The pooled latency distribution, printed beside the per-app metrics.
fn pooled_note(latencies_s: &[(String, f64)], t: &stats::Tail) -> String {
    let pooled: Vec<f64> = latencies_s.iter().map(|l| l.1 * 1e3).collect();
    format!(
        "pooled latencies over {} samples: p50 {:.3} ms, p{} {:.3} ms (the highest ladder percentile \
         with >= 10 samples beyond it)",
        t.samples,
        median(&pooled),
        t.percentile,
        t.value,
    )
}

/// Layer shares of the traced passes, and whether they confirm the
/// ordering the workload was chosen for.
fn layer_notes(w: Workload, li: &LayerInputs, notes: &mut Vec<String>) {
    let v: BTreeMap<&str, f64> = metrics::layers(li).into_iter().collect();
    let layers = [
        "workloads.build_s",
        "compiler.compile_s",
        "ppir.interp_s",
        "sim.kernel_build_s",
        "sim.advance_s",
        "sim.finish_s",
        "workloads.verify_s",
    ];
    // Shares of the untraced pipeline: the traced pass minus the separate
    // interpreter call. In-process passes build nothing (set-up does).
    let builds_in_pass = li
        .pass_sums
        .iter()
        .any(|s| s.contains_key("workloads.build"));
    let parts: Vec<(&str, f64)> = layers
        .iter()
        .filter(|l| builds_in_pass || **l != "workloads.build_s")
        .map(|l| (*l, v[l]))
        .collect();
    let total: f64 = parts.iter().map(|p| p.1).sum();
    let mut shares: Vec<(&str, f64)> = parts.into_iter().map(|(l, x)| (l, x / total)).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "layer shares of a pass ({:.4} s of layer calls): {}",
        total,
        shares
            .iter()
            .map(|(l, s)| format!("{l} {:.1}%", s * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let (predicted, of) = match w {
        Workload::SuiteS4 => ("ppir.interp_s", "the pass"),
        Workload::SparseRemote => ("sim.advance_s", "the pass"),
        Workload::ServeS16 => ("workloads.build_s", "service.exec_ms_p50"),
    };
    let top = shares[0].0;
    let verdict = if top == predicted {
        "confirmed"
    } else {
        "NOT confirmed"
    };
    notes.push(format!(
        "prediction: {predicted} dominates {of} on {}: {verdict} (largest: {top} {:.1}%)",
        w.name(),
        shares[0].1 * 100.0
    ));
}

/// serve-s16: a closed loop against the daemon; the traced run also
/// replays the request sequence in-process through the served calls.
fn run_serve(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
    let socket = a.out_dir.join(format!("serve-{}.sock", std::process::id()));
    let mut tr = Spans::new(a.trace);
    let (benches, builds) = timed_builds(w, &mut tr);
    let names: Vec<&str> = benches.iter().map(|b| b.name.as_str()).collect();
    let round = names.len();
    let mut rng = Rng::new(a.seed, 0);
    let seq: Vec<&str> = (0..MAX_ROUNDS)
        .flat_map(|_| rng.permutation(round))
        .map(|i| names[i])
        .collect();
    // Spawn-to-ready, several times; the last daemon serves the run.
    let mut ready = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let d = Daemon::spawn(&a.bin, &socket)?;
        ready.push(d.ready_s);
        if i + 1 < SETUP_REPEATS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let d = daemon.expect("SETUP_REPEATS >= 1");
    // The traced run splits its time between the loop and the replay.
    let loop_s = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let min = if a.trace { round } else { MIN_PASSES * round };
    let served = serve::closed_loop(&d, &seq, SERVE_SCALE, round, loop_s, min)?;
    let ds = serve::daemon_stats(&d)?;
    let rss = d.peak_rss_mb()?;
    d.shutdown()?;

    let mut failures: Vec<String> = served.iter().filter_map(|s| s.error.clone()).collect();
    let mut by_bench: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in served.iter().filter(|s| s.error.is_none()) {
        let want = *by_bench.entry(&s.bench).or_insert((s.cycles, s.digest));
        if (s.cycles, s.digest) != want {
            failures.push(format!("{}: served stats differ between requests", s.bench));
        }
    }
    if ds.shed != 0 {
        failures.push(format!("the daemon shed {} requests", ds.shed));
    }
    let latencies: Vec<(String, f64)> = served
        .iter()
        .map(|s| (s.bench.clone(), s.latency_s()))
        .collect();
    let samples = vec![
        ("setup_build_s", builds.clone()),
        ("setup_ready_s", ready.clone()),
        ("latency_s", served.iter().map(Served::latency_s).collect()),
    ];
    let mut attempted = served.len();
    let mut notes = vec![format!(
        "served: {} requests in {} rounds of {round}; daemon served {}, shed {}, cache {} hits / {} misses",
        served.len(),
        served.len() / round,
        ds.served,
        ds.shed,
        ds.cache_hits,
        ds.cache_misses
    )];
    let metrics = if a.trace {
        let latency_p50_ms = median(&metrics::app_medians(&latencies)) * 1e3;
        let (li, replay_attempted, replay_failures) =
            replay(a, &seq, round, &by_bench, &mut tr, latency_p50_ms, ds)?;
        attempted += replay_attempted;
        failures.extend(replay_failures);
        notes.push(format!(
            "compiler.cache_hit_ratio base: {} daemon cache lookups",
            li.cache_lookups
        ));
        layer_notes(w, &li, &mut notes);
        metrics::layers(&li)
    } else {
        let e = E2eInputs {
            latencies_s: latencies,
            round_s: round_spans(&served, round),
            round,
            pass_cycles: by_bench.values().map(|c| c.0).sum(),
            setup_s: median(&builds) + median(&ready),
            peak_rss_mb: rss,
        };
        let (values, tail) = metrics::e2e(&e);
        notes.push(pooled_note(&e.latencies_s, &tail));
        values
    };
    Ok(Report {
        metrics,
        notes,
        attempted,
        failures,
        samples,
        spans: a.trace.then(|| tr.to_json()),
    })
}

/// The traced serve-s16 replay: rounds of the request sequence run
/// in-process through the calls a served `run` makes (bench rebuild by
/// name, cached compile, kernel, verify, stats), alternating untraced and
/// traced rounds after one warm-up round. Served and replayed stats must
/// agree byte for byte.
fn replay(
    a: &Args,
    seq: &[&str],
    round: usize,
    served: &BTreeMap<&str, (u64, u64)>,
    tr: &mut Spans,
    latency_p50_ms: f64,
    ds: serve::DaemonStats,
) -> Result<(LayerInputs, usize, Vec<String>), String> {
    let cache = CompileCache::new();
    let p = Pipeline {
        params: PlasticineParams::paper_final(),
        opts: a.workload.sim_options(),
        compiler: Compiler::Cached(&cache),
    };
    let mut reference = Reference::default();
    let mut off = Spans::new(false);
    let mut run_round = |r: usize, tr: &mut Spans| -> (f64, Vec<AppRun>) {
        let t = Instant::now();
        let pass = tr.enter("pass", &r.to_string());
        let apps: Vec<AppRun> = seq[r * round..(r + 1) * round]
            .iter()
            .enumerate()
            .map(|(j, &name)| {
                let id = (r * round + j).to_string();
                let src = Source::Served {
                    name,
                    scale: SERVE_SCALE,
                };
                let mut run = p.run(src, &id, tr);
                reference.check(&mut run);
                run
            })
            .collect();
        tr.exit(pass);
        (t.elapsed().as_secs_f64(), apps)
    };
    let (_, warm) = run_round(0, &mut off);
    let mut failures = failures_of(&warm);
    for run in warm.iter().filter(|r| r.error.is_none()) {
        if let Some(&s) = served.get(run.name.as_str()) {
            if s != (run.cycles, run.digest) {
                failures.push(format!(
                    "{}: replayed stats differ from served stats",
                    run.name
                ));
            }
        }
    }
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let rounds = seq.len() / round;
    let mut r = 1;
    while r + 1 < rounds && (traced.len() < 2 || t0.elapsed().as_secs_f64() < a.seconds / 2.0) {
        untraced.push(run_round(r, &mut off));
        traced.push(run_round(r + 1, tr));
        r += 2;
    }
    let mut attempted = warm.len();
    for (_, apps) in untraced.iter().chain(&traced) {
        attempted += apps.len();
        failures.extend(failures_of(apps));
    }
    let li = LayerInputs {
        pass_sums: metrics::pass_self_times(tr.spans()),
        setup_builds_s: Vec::new(),
        traced_pass_s: traced.iter().map(|p| p.0).collect(),
        untraced_pass_s: untraced.iter().map(|p| p.0).collect(),
        exec_s: exec_times(&traced),
        kernel_build_s: kernel_builds(&traced),
        latency_p50_ms,
        counts: PassCounts {
            body_invocations: traced
                .first()
                .map_or(0, |(_, apps)| PassCounts::of(apps).body_invocations),
            ..PassCounts::of(&warm)
        },
        cache_hits: ds.cache_hits,
        cache_lookups: ds.cache_hits + ds.cache_misses,
        shed: ds.shed,
    };
    Ok((li, attempted, failures))
}

/// Host descriptor recorded with every result.
fn host(a: &Args) -> Json {
    let cmd = |prog: &str, args: &[&str]| -> String {
        let mut c = std::process::Command::new(prog);
        c.args(args);
        // Outside a git checkout, do not let git find an enclosing one.
        let cwd = std::env::current_dir().unwrap_or_default();
        if let Some(parent) = cwd.parent() {
            c.env("GIT_CEILING_DIRECTORIES", parent);
        }
        c.stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let serve = a.workload == Workload::ServeS16;
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("rustc", Json::from(cmd("rustc", &["-V"]))),
        ("git_head", Json::from(cmd("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::from(a.seed)),
        (
            "serve_workers",
            Json::from(if serve { serve::WORKERS } else { 0 }),
        ),
        (
            "serve_clients",
            Json::from(if serve { serve::CLIENTS } else { 0 }),
        ),
    ])
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload suite-s4|sparse-remote|serve-s16 --seed N \
                 --seconds S --trace 0|1 --bin PLASTICINE_RUN --out-dir DIR"
            );
            return ExitCode::from(2);
        }
    };
    let host = host(&a);
    let report = match a.workload {
        Workload::ServeS16 => run_serve(&a),
        _ => run_inproc(&a),
    };
    let r = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} trace={} seconds={}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace),
        a.seconds
    );
    println!("host: {}", host.compact());
    for (name, value) in &r.metrics {
        println!("  {name:<28} {value:>20.6} {}", metrics::unit(name));
    }
    let failed = r.failures.len();
    println!(
        "  {:<28} {:>20.6} ratio ({failed} of {} failed)",
        "failed_frac",
        failed as f64 / r.attempted.max(1) as f64,
        r.attempted
    );
    for n in &r.notes {
        println!("  {n}");
    }
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    let metrics_json = Json::Obj(
        r.metrics
            .iter()
            .map(|(n, v)| {
                let m = Json::obj([
                    ("value", Json::from(*v)),
                    ("unit", Json::from(metrics::unit(n))),
                ]);
                (n.to_string(), m)
            })
            .collect(),
    );
    let correct = failed == 0;
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json),
    ]);
    let stem = format!(
        "{}-seed{}-trace{}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    );
    let record = Json::obj([
        ("workload", Json::from(a.workload.name())),
        ("host", host),
        (
            "notes",
            Json::Arr(r.notes.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
        (
            "samples",
            Json::Obj(
                r.samples
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Json::Arr(v.iter().map(|x| Json::from(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("result", result.clone()),
    ]);
    let written = std::fs::create_dir_all(&a.out_dir)
        .and_then(|()| std::fs::write(a.out_dir.join(format!("{stem}.json")), record.pretty()))
        .and_then(|()| match &r.spans {
            Some(s) => std::fs::write(a.out_dir.join(format!("{stem}.spans.json")), s.compact()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing results to {}: {e}", a.out_dir.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
