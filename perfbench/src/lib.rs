//! # regla-perfbench — the regla benchmark
//!
//! Three workloads driven through regla's public entry points, with their
//! inputs generated from a seed and their outputs checked against the
//! host reference:
//!
//! * `sweep` — the paper's design-space sweep (Figures 4, 9 and 10 and
//!   Table VII) through `Session::run_with`;
//! * `batch` — library throughput: repeated full-execution
//!   `Session::run_with` calls over six shapes, with verification and
//!   seeded silent faults;
//! * `serve` — an open-loop Poisson stream offered to a `ServeEngine` over
//!   a two-device `Fleet` at a light and a busy rate.
//!
//! An untraced run reports the end-to-end metrics; a traced run records a
//! span around every call the benchmark makes and reports the per-layer
//! metrics. See `README.md` next to this crate for the metric map.

pub mod check;
pub mod gen;
pub mod metrics;
pub mod price;
pub mod trace;
pub mod workloads;

use metrics::Metric;
use std::time::Instant;
use trace::Recorder;
use workloads::Pass;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Batch,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Batch, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Batch => "batch",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the benchmark's own, or a tiny version of every workload
/// for the crate's tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Clone, Debug)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// Functional-replay threads, set explicitly in every `RunOpts`.
    pub host_threads: usize,
    pub scale: Scale,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// No call failed and every checked output matched the reference.
    pub correct: bool,
    /// Host seconds inside calls, per pass in run order.
    pub pass_wall_s: Vec<f64>,
    pub worst_diff: f64,
    /// The Chrome trace of a traced run.
    pub trace_json: Option<String>,
}

/// Untraced passes whose simulated metrics a run reports: serve pools its
/// four streams, so every rate has 4 000 served requests.
pub fn sim_passes(w: Workload) -> usize {
    if w == Workload::Serve {
        4
    } else {
        1
    }
}

/// Set the program up [`SETUP_REPS`] times, then run passes until
/// `seconds` would be exceeded (at least [`sim_passes`]; a traced run
/// alternates an untraced and a traced pass and runs at least one of
/// each).
pub fn measure(s: &Settings, seconds: f64, traced: bool) -> Outcome {
    let reps = if s.scale == Scale::Full {
        SETUP_REPS
    } else {
        1
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut program = None;
    for _ in 0..reps {
        // Drop the previous program first so set-ups do not overlap.
        drop(program.take());
        let (p, t) = workloads::setup(s);
        setup_s.push(t);
        program = Some(p);
    }
    let program = program.expect("at least one set-up");

    let mut rec = Recorder::new();
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let t0 = Instant::now();
    loop {
        let i = passes.len();
        let traced_pass = traced && i % 2 == 1;
        rec.arm(traced_pass);
        let t = Instant::now();
        let pass = workloads::run_pass(&program, s, i, &mut rec);
        let took = t.elapsed().as_secs_f64();
        passes.push((pass, traced_pass));
        let enough = passes.len() >= if traced { 2 } else { sim_passes(s.workload) };
        if enough && t0.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }

    let attempted: usize = passes.iter().map(|(p, _)| p.attempted).sum();
    let ok: usize = passes.iter().map(|(p, _)| p.ok).sum();
    let correct = passes
        .iter()
        .all(|(p, _)| p.mismatches == 0 && p.errors == 0);
    let worst_diff = passes.iter().map(|(p, _)| p.worst_diff).fold(0.0, f64::max);
    let pass_wall_s = passes.iter().map(|(p, _)| p.wall_s()).collect();
    let (on, off): (Vec<_>, Vec<_>) = passes.into_iter().partition(|(_, t)| *t);
    let on: Vec<Pass> = on.into_iter().map(|(p, _)| p).collect();
    let off: Vec<Pass> = off.into_iter().map(|(p, _)| p).collect();
    let metrics = if traced {
        metrics::per_layer(&on, &off)
    } else {
        metrics::end_to_end(s.workload, &off, &setup_s, peak_rss_mb())
    };
    Outcome {
        metrics,
        attempted,
        failed: attempted - ok,
        correct,
        pass_wall_s,
        worst_diff,
        trace_json: traced.then(|| rec.chrome_json()),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                trace::json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
