//! One app through the stack, by the public calls the CLI and the served
//! `run` op make, with a span around each call into a layer.

use crate::spans::Spans;
use plasticine::arch::PlasticineParams;
use plasticine::compiler::{compile_with, CompileCache, CompileOptions, CompileOutput};
use plasticine::json::hash::fnv1a_str;
use plasticine::ppir::{Machine, Program, TraceRecorder};
use plasticine::service::stats_with_bench;
use plasticine::sim::{SimKernel, SimOptions};
use plasticine::workloads::{all, Bench, Scale};
use std::time::Instant;

/// Where the app's bench comes from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// Built once in set-up (the CLI's `run`).
    Prebuilt(&'a Bench),
    /// Rebuilt from `all(Scale(scale))` on every request, as a served `run`
    /// resolves its bench by name.
    Served { name: &'a str, scale: usize },
}

/// How the app is compiled.
pub enum Compiler<'a> {
    /// `compile_with` on every run (the CLI's `run`).
    Cold,
    /// Through a compile cache shared across requests (the served `run`).
    Cached(&'a CompileCache),
}

/// Fixed settings of a pipeline: machine parameters and simulator options.
pub struct Pipeline<'a> {
    pub params: PlasticineParams,
    pub opts: SimOptions,
    pub compiler: Compiler<'a>,
}

/// What one app run produced.
#[derive(Debug, Clone, Default)]
pub struct AppRun {
    pub name: String,
    /// Host seconds of the whole pipeline, including a traced run's
    /// separate interpreter call.
    pub latency_s: f64,
    /// Host seconds of the separate interpreter call (traced runs only).
    pub probe_s: f64,
    /// Host seconds of the whole separate interpreter run: building and
    /// loading its machine, the call, and dropping the machine and trace
    /// (traced runs only).
    pub probe_total_s: f64,
    /// Interpreter body invocations of the separate call (traced only).
    pub body_invocations: u64,
    /// Host seconds of `SimKernel::new`, which runs the interpreter inside.
    pub kernel_new_s: f64,
    pub cycles: u64,
    pub dram_requests: u64,
    pub row_hits: u64,
    /// FNV-1a digest of the compact stats object.
    pub digest: u64,
    /// Why the run failed, when it did.
    pub error: Option<String>,
}

impl AppRun {
    /// Host seconds the untraced pipeline would have taken.
    pub fn exec_s(&self) -> f64 {
        self.latency_s - self.probe_total_s
    }
}

impl Pipeline<'_> {
    /// Runs one app. With tracing on, the app span holds one span per layer
    /// call, and the interpreter additionally runs once on its own, on a
    /// freshly loaded machine, because `SimKernel::new` runs it inside.
    pub fn run(&self, src: Source<'_>, id: &str, tr: &mut Spans) -> AppRun {
        let t0 = Instant::now();
        let app = tr.enter("app", id);
        let mut run = AppRun::default();
        if let Err(e) = self.stages(src, id, tr, &mut run) {
            run.error = Some(e);
        }
        tr.exit(app);
        run.latency_s = t0.elapsed().as_secs_f64();
        run
    }

    fn stages(
        &self,
        src: Source<'_>,
        id: &str,
        tr: &mut Spans,
        run: &mut AppRun,
    ) -> Result<(), String> {
        let built;
        let bench = match src {
            Source::Prebuilt(b) => b,
            Source::Served { name, scale } => {
                built = tr
                    .time("workloads.build", id, || all(Scale(scale)))
                    .into_iter()
                    .find(|b| b.name.eq_ignore_ascii_case(name))
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                &built
            }
        };
        run.name = bench.name.clone();
        let copts = CompileOptions::new();
        let (cold, cached);
        let (out, prog): (&CompileOutput, &Program) = match self.compiler {
            Compiler::Cold => {
                cold = tr
                    .time("compiler.compile", id, || {
                        compile_with(&bench.program, &self.params, &copts)
                    })
                    .map_err(|e| format!("{}: compile: {e}", bench.name))?;
                (&cold, &bench.program)
            }
            Compiler::Cached(cache) => {
                cached = tr
                    .time("compiler.compile", id, || {
                        cache.compile_degraded(&bench.program, &self.params, &copts)
                    })
                    .map_err(|e| format!("{}: compile: {e}", bench.name))?;
                (&cached.0, &cached.1)
            }
        };
        if tr.enabled() {
            let total = Instant::now();
            {
                let mut m = Machine::new(prog);
                bench.load(&mut m);
                let mut rec = TraceRecorder::new();
                let t = Instant::now();
                tr.time("ppir.interp", id, || m.run_traced(&mut rec))
                    .map_err(|e| format!("{}: interpreter: {e}", bench.name))?;
                run.probe_s = t.elapsed().as_secs_f64();
                run.body_invocations = m.stats.body_invocations;
            }
            run.probe_total_s = total.elapsed().as_secs_f64();
        }
        let mut m = Machine::new(prog);
        bench.load(&mut m);
        let t = Instant::now();
        let mut k = tr
            .time("sim.kernel_new", id, || {
                SimKernel::new(prog, out, &mut m, &self.opts, false, None)
            })
            .map_err(|e| format!("{}: {e}", bench.name))?;
        run.kernel_new_s = t.elapsed().as_secs_f64();
        tr.time("sim.advance", id, || k.advance(None, None))
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let (r, stats) = tr.time("sim.finish", id, || {
            let (r, _) = k.finish();
            let stats = match src {
                Source::Prebuilt(_) => r.stats_json(),
                Source::Served { .. } => stats_with_bench(bench, &r),
            };
            (r, stats)
        });
        tr.time("workloads.verify", id, || bench.verify(&m))?;
        run.cycles = r.cycles;
        run.dram_requests = r.dram.reads + r.dram.writes;
        run.row_hits = r.dram.row_hits;
        run.digest = fnv1a_str(&stats.compact());
        Ok(())
    }
}
