//! The reported metrics: their names and units, and how each is derived
//! from the raw measurements of a run.

use crate::pipeline::AppRun;
use crate::spans::{self_times, Span};
use crate::stats::{median, median_by_name, Tail};
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), in report order, with units.
pub const E2E: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in report order, with units.
pub const LAYERS: [(&str, &str); 20] = [
    ("workloads.build_s", "s"),
    ("workloads.verify_s", "s"),
    ("ppir.interp_s", "s"),
    ("ppir.body_invocations", "count"),
    ("ppir.ns_per_body", "ns"),
    ("compiler.compile_s", "s"),
    ("compiler.cache_hit_ratio", "ratio"),
    ("sim.kernel_build_s", "s"),
    ("sim.advance_s", "s"),
    ("sim.finish_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.stats_digest", "digest"),
    ("sim.host_ns_per_cycle", "ns"),
    ("dram.requests", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.host_ns_per_request", "ns"),
    ("service.exec_ms_p50", "ms"),
    ("service.overhead_ms_p50", "ms"),
    ("service.shed", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// The unit of a metric named in [`E2E`] or [`LAYERS`].
pub fn unit(name: &str) -> &'static str {
    E2E.iter()
        .chain(LAYERS.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is in neither table"))
}

/// Inputs of the end-to-end metrics.
#[derive(Debug, Clone)]
pub struct E2eInputs {
    /// Timed latencies, seconds, each with its app (served bench) name.
    pub latencies_s: Vec<(String, f64)>,
    /// Seconds of each timed pass (served round): from its first app's
    /// start (request's send) to its last app's end (response).
    pub round_s: Vec<f64>,
    /// Apps in a pass (requests in a round).
    pub round: usize,
    /// Simulated cycles of one pass (round): one run of each app.
    pub pass_cycles: u64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

/// Each app's (served bench's) median latency, in app-name order. Apps
/// differ by orders of magnitude, so percentiles of the pooled latencies
/// fall between apps and jump when two apps trade places; each app's own
/// median does not.
pub fn app_medians(latencies_s: &[(String, f64)]) -> Vec<f64> {
    median_by_name(latencies_s).into_values().collect()
}

/// The end-to-end metrics, plus the tail of the pooled latencies, which
/// is printed beside them.
pub fn e2e(m: &E2eInputs) -> (Vec<(&'static str, f64)>, Tail) {
    let apps = app_medians(&m.latencies_s);
    let wall: f64 = apps.iter().sum();
    let pooled_ms: Vec<f64> = m.latencies_s.iter().map(|(_, s)| s * 1e3).collect();
    let tail = crate::stats::tail(&pooled_ms).unwrap_or(Tail {
        percentile: 50.0,
        value: f64::NAN,
        samples: 0,
    });
    let values = vec![
        ("wall_s", wall),
        ("sim_cycles_per_s", m.pass_cycles as f64 / wall),
        ("latency_p50_ms", median(&apps) * 1e3),
        (
            "latency_tail_ms",
            apps.iter().copied().fold(f64::NAN, f64::max) * 1e3,
        ),
        ("throughput_rps", m.round as f64 / median(&m.round_s)),
        ("setup_s", m.setup_s),
        ("peak_rss_mb", m.peak_rss_mb),
    ];
    (values, tail)
}

/// Exact counters of one pass; equal on every pass of a correct run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    pub body_invocations: u64,
    pub cycles: u64,
    pub dram_requests: u64,
    pub row_hits: u64,
    /// FNV-1a over the pass's per-app stats digests in name order,
    /// folded to 52 bits so it survives a round trip through an `f64`.
    pub stats_digest: u64,
}

impl PassCounts {
    pub fn of(apps: &[AppRun]) -> PassCounts {
        let mut by_name: Vec<&AppRun> = apps.iter().collect();
        by_name.sort_by(|a, b| a.name.cmp(&b.name));
        let mut h = plasticine::json::hash::Fnv1a::new();
        for a in &by_name {
            h.update(a.name.as_bytes());
            h.update(&a.digest.to_le_bytes());
        }
        PassCounts {
            body_invocations: apps.iter().map(|a| a.body_invocations).sum(),
            cycles: apps.iter().map(|a| a.cycles).sum(),
            dram_requests: apps.iter().map(|a| a.dram_requests).sum(),
            row_hits: apps.iter().map(|a| a.row_hits).sum(),
            stats_digest: h.finish() & ((1 << 52) - 1),
        }
    }
}

/// Self time summed by span name, for each span named `pass` (a pass over
/// the apps, or a round of served requests), over the spans below it.
pub fn pass_self_times(spans: &[Span]) -> Vec<BTreeMap<&'static str, f64>> {
    let selfs = self_times(spans);
    let mut pass_of: Vec<Option<usize>> = vec![None; spans.len()];
    let mut order = Vec::new();
    let mut sums: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so the parent's pass is known.
        pass_of[i] = if s.name == "pass" {
            order.push(i);
            Some(i)
        } else {
            s.parent.and_then(|p| pass_of[p])
        };
        if let Some(p) = pass_of[i] {
            *sums.entry(p).or_default().entry(s.name).or_default() += selfs[i] as f64 * 1e-9;
        }
    }
    order
        .into_iter()
        .map(|p| sums.remove(&p).unwrap_or_default())
        .collect()
}

/// Inputs of the per-layer metrics, gathered by the traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerInputs {
    /// Self time by span name for each traced pass, seconds.
    pub pass_sums: Vec<BTreeMap<&'static str, f64>>,
    /// Set-up bench builds, seconds each (used when passes build nothing).
    pub setup_builds_s: Vec<f64>,
    /// Pass times of the traced and the untraced passes, seconds.
    pub traced_pass_s: Vec<f64>,
    pub untraced_pass_s: Vec<f64>,
    /// Per-app (per-request) execution time in the traced passes with the
    /// whole separate interpreter run taken out, seconds, by app name.
    pub exec_s: Vec<(String, f64)>,
    /// `SimKernel::new` less the separate interpreter call, per app run
    /// of the traced passes, seconds, by app name.
    pub kernel_build_s: Vec<(String, f64)>,
    /// `latency_p50_ms` of the untraced side.
    pub latency_p50_ms: f64,
    pub counts: PassCounts,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub shed: u64,
}

/// The per-layer metrics.
pub fn layers(m: &LayerInputs) -> Vec<(&'static str, f64)> {
    let layer = |name: &str| -> f64 {
        let per_pass: Vec<f64> = m
            .pass_sums
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&per_pass)
    };
    let build = if m
        .pass_sums
        .iter()
        .any(|s| s.contains_key("workloads.build"))
    {
        layer("workloads.build")
    } else {
        median(&m.setup_builds_s)
    };
    let interp = layer("ppir.interp");
    let advance = layer("sim.advance");
    // The difference of two interpreter-sized calls is noisy, so each app's
    // difference is taken as its median over passes before summing.
    let mut by_app: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (name, s) in &m.kernel_build_s {
        by_app.entry(name).or_default().push(*s);
    }
    let kernel_build: f64 = by_app.values().map(|v| median(v)).sum();
    let c = &m.counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let exec_p50 = median(&app_medians(&m.exec_s)) * 1e3;
    let traced = median(&m.traced_pass_s);
    let untraced = median(&m.untraced_pass_s);
    vec![
        ("workloads.build_s", build),
        ("workloads.verify_s", layer("workloads.verify")),
        ("ppir.interp_s", interp),
        ("ppir.body_invocations", c.body_invocations as f64),
        ("ppir.ns_per_body", interp * 1e9 / c.body_invocations as f64),
        ("compiler.compile_s", layer("compiler.compile")),
        (
            "compiler.cache_hit_ratio",
            ratio(m.cache_hits, m.cache_lookups),
        ),
        ("sim.kernel_build_s", kernel_build),
        ("sim.advance_s", advance),
        ("sim.finish_s", layer("sim.finish")),
        ("sim.cycles", c.cycles as f64),
        ("sim.stats_digest", c.stats_digest as f64),
        ("sim.host_ns_per_cycle", advance * 1e9 / c.cycles as f64),
        ("dram.requests", c.dram_requests as f64),
        ("dram.row_hit_ratio", ratio(c.row_hits, c.dram_requests)),
        (
            "dram.host_ns_per_request",
            advance * 1e9 / c.dram_requests as f64,
        ),
        ("service.exec_ms_p50", exec_p50),
        ("service.overhead_ms_p50", m.latency_p50_ms - exec_p50),
        ("service.shed", m.shed as f64),
        ("trace.overhead_frac", (traced - untraced) / untraced),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasticine::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn named(name: &str, xs: &[f64]) -> Vec<(String, f64)> {
        xs.iter().map(|x| (name.to_string(), *x)).collect()
    }

    fn sample_e2e() -> E2eInputs {
        // Two apps, five passes: the medians are 0.1 s and 0.3 s.
        let mut latencies_s = named("a", &[0.1, 0.2, 0.1, 0.5, 0.1]);
        latencies_s.extend(named("b", &[0.3, 0.3, 0.9, 0.3, 0.6]));
        E2eInputs {
            latencies_s,
            round_s: vec![0.4, 0.5, 1.0, 0.8, 0.7],
            round: 2,
            pass_cycles: 1000,
            setup_s: 0.05,
            peak_rss_mb: 50.0,
        }
    }

    fn sample_layers() -> LayerInputs {
        let p: BTreeMap<&'static str, f64> = [
            ("ppir.interp", 1.5),
            ("sim.kernel_new", 1.6),
            ("sim.advance", 0.3),
            ("compiler.compile", 0.01),
        ]
        .into_iter()
        .collect();
        LayerInputs {
            pass_sums: vec![p.clone(), p],
            setup_builds_s: vec![0.01, 0.02, 0.03],
            traced_pass_s: vec![3.5, 3.6],
            untraced_pass_s: vec![2.0, 2.1],
            exec_s: [named("GEMM", &[0.1, 0.3, 0.1]), named("BFS", &[0.14])].concat(),
            kernel_build_s: vec![
                ("GEMM".to_string(), 0.05),
                ("GEMM".to_string(), -0.01),
                ("GEMM".to_string(), 0.02),
                ("BFS".to_string(), 0.08),
            ],
            latency_p50_ms: 125.0,
            counts: PassCounts {
                body_invocations: 1_000_000,
                cycles: 200_000,
                dram_requests: 5_000,
                row_hits: 4_000,
                stats_digest: 12345,
            },
            cache_hits: 5,
            cache_lookups: 6,
            shed: 0,
        }
    }

    #[test]
    fn every_benchmark_json_metric_is_emitted_with_its_unit() {
        let (e2e_values, _) = e2e(&sample_e2e());
        let emitted: Vec<(String, String)> = e2e_values
            .iter()
            .map(|(n, v)| {
                assert!(v.is_finite(), "{n} = {v}");
                (n.to_string(), unit(n).to_string())
            })
            .collect();
        assert_eq!(emitted, declared("end_to_end"));
        let layer_values = layers(&sample_layers());
        let emitted: Vec<(String, String)> = layer_values
            .iter()
            .map(|(n, v)| {
                assert!(v.is_finite(), "{n} = {v}");
                (n.to_string(), unit(n).to_string())
            })
            .collect();
        assert_eq!(emitted, declared("per_layer"));
    }

    #[test]
    fn kernel_build_excludes_the_separately_measured_interpreter() {
        let v: BTreeMap<_, _> = layers(&sample_layers()).into_iter().collect();
        // Per-app medians: GEMM 0.02, BFS 0.08.
        assert!((v["sim.kernel_build_s"] - 0.1).abs() < 1e-12);
        assert_eq!(v["ppir.interp_s"], 1.5);
        assert_eq!(v["ppir.ns_per_body"], 1500.0);
        assert_eq!(v["dram.row_hit_ratio"], 0.8);
        // No pass built benches, so the set-up builds are reported.
        assert_eq!(v["workloads.build_s"], 0.02);
        // App medians 100 ms (GEMM) and 140 ms (BFS): exec p50 120 ms.
        assert!((v["service.overhead_ms_p50"] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn e2e_metrics_summarise_each_app_by_its_median() {
        let (values, tail) = e2e(&sample_e2e());
        let v: BTreeMap<_, _> = values.into_iter().collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(v["wall_s"], 0.4), "{}", v["wall_s"]);
        assert!(close(v["sim_cycles_per_s"], 2500.0));
        assert!(close(v["latency_p50_ms"], 200.0));
        assert!(close(v["latency_tail_ms"], 300.0));
        // The median pass takes 0.7 s.
        assert!(close(v["throughput_rps"], 2.0 / 0.7));
        // The pooled tail is printed beside them: 10 samples, the median.
        assert_eq!((tail.percentile, tail.samples), (50.0, 10));
        assert!(close(tail.value, 300.0));
    }

    #[test]
    fn pass_self_times_group_layer_calls_under_their_pass() {
        let s = |name, start_ns, end_ns, parent| Span {
            name,
            id: "x".to_string(),
            start_ns,
            end_ns,
            parent,
        };
        let spans = [
            s("workloads.build", 0, 5, None),
            s("pass", 10, 110, None),
            s("app", 10, 60, Some(1)),
            s("ppir.interp", 10, 30, Some(2)),
            s("sim.advance", 30, 50, Some(2)),
            s("app", 60, 110, Some(1)),
            s("sim.advance", 60, 100, Some(5)),
            s("pass", 200, 250, None),
            s("app", 200, 250, Some(7)),
        ];
        let sums = pass_self_times(&spans);
        assert_eq!(sums.len(), 2);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(ns(sums[0]["sim.advance"]), 60);
        assert_eq!(ns(sums[0]["ppir.interp"]), 20);
        // App self time is what no layer call covers: 10 + 10.
        assert_eq!(ns(sums[0]["app"]), 20);
        assert_eq!(ns(sums[0]["pass"]), 0);
        assert!(!sums[0].contains_key("workloads.build"));
        assert_eq!(ns(sums[1]["app"]), 50);
    }
}
