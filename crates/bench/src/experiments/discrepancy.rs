//! Per-phase model discrepancy: the observability counterpart of
//! `model_accuracy`. Where that experiment compares end-to-end GFLOPS,
//! this one attaches a [`Profiler`] to each run and joins the recorded
//! launch trace's phase spans against the analytic model's per-phase
//! estimates (`regla_model::phase_estimates`), phase label by phase label
//! — the finest granularity at which the paper's model makes a claim.
//!
//! Side products: the per-(algorithm, shape) summary rows go to the
//! harness's [`Collector`] so `run_all` lands them in
//! `results/BENCH_sim.json`, and every recorded launch is exported as
//! Chrome-trace JSON (`results/model_discrepancy_trace.json`, loadable in
//! Perfetto / chrome://tracing).

use crate::bench_telemetry::{Collector, Row, Section, Val};
use crate::report::{f, Table};
use crate::workloads::f32_batch;
use regla_core::{BatchRun, Op, ProfileReport, RunOpts, Session};
use regla_gpu_sim::Profiler;
use regla_model::Approach;

/// Worst-offending phase of a report: `(label, |error| %)`.
fn worst_phase(r: &ProfileReport) -> (String, f64) {
    r.entries
        .iter()
        .map(|e| (e.label.clone(), e.error_pct.abs()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((String::from("—"), 0.0))
}

/// The `model_discrepancy` row of one profiled (algorithm, shape) run.
pub fn discrepancy_row(
    alg: &str,
    shape: String,
    approach: Approach,
    phases: usize,
    mean_abs_error_pct: f64,
    total_error_pct: f64,
) -> Row {
    vec![
        ("alg", alg.into()),
        ("shape", shape.into()),
        ("approach", format!("{approach:?}").into()),
        ("phases", phases.into()),
        ("mean_abs_error_pct", Val::Num(mean_abs_error_pct, 2)),
        ("total_error_pct", Val::Num(total_error_pct, 2)),
    ]
}

/// Per-phase predicted-vs-simulated discrepancy across algorithms/shapes.
pub fn model_discrepancy(fast: bool, c: &mut Collector) -> String {
    let session = Session::new();
    let count = if fast { 224 } else { 2016 };
    let pt_count = if fast { 3584 } else { 64_000 };
    let profiler = Profiler::new();
    let mut t = Table::new(
        "Model discrepancy — per-phase predicted vs simulated cycles",
        &[
            "alg", "shape", "approach", "phases", "mean |err| %", "total err %", "worst phase",
        ],
    );
    // Per-run mean |error|, for the summary note.
    let mut errs: Vec<f64> = Vec::new();

    let mut file = |t: &mut Table, run: &BatchRun<f32>, shape: String| {
        let r = run
            .profile
            .as_ref()
            .expect("profiled per-thread/per-block runs produce a report");
        let (wlabel, werr) = worst_phase(r);
        t.row(&[
            r.alg.name().into(),
            shape.clone(),
            format!("{:?}", r.approach),
            r.entries.len().to_string(),
            f(r.mean_abs_error_pct),
            f(r.total_error_pct()),
            format!("{wlabel} ({}%)", f(werr)),
        ]);
        c.add(
            Section::ModelDiscrepancy,
            [discrepancy_row(
                r.alg.name(),
                shape,
                r.approach,
                r.entries.len(),
                r.mean_abs_error_pct,
                r.total_error_pct(),
            )],
        );
        errs.push(r.mean_abs_error_pct);
    };

    let opts = |approach: Approach| -> RunOpts {
        RunOpts::builder()
            .approach(approach)
            .trace(profiler.clone())
            .build().unwrap()
    };

    // Per-thread roofline (Section IV): one whole-launch comparison.
    for n in [5usize, 7] {
        let a = f32_batch(n, n, pt_count, true, 0x400 + n as u64);
        let run = session
            .run_with(Op::Qr, &a, None, &opts(Approach::PerThread))
            .unwrap()
            .run;
        file(&mut t, &run, format!("{n}x{n}"));
    }

    // Per-block phases (Section V-D): panel-by-panel joins.
    for n in [24usize, 56] {
        let a = f32_batch(n, n, count, true, 0x410 + n as u64);
        let run = session
            .run_with(Op::Qr, &a, None, &opts(Approach::PerBlock))
            .unwrap()
            .run;
        file(&mut t, &run, format!("{n}x{n}"));
    }
    {
        let n = 56;
        let a = f32_batch(n, n, count, true, 0x420);
        let run = session
            .run_with(Op::Lu, &a, None, &opts(Approach::PerBlock))
            .unwrap()
            .run;
        file(&mut t, &run, format!("{n}x{n}"));
    }
    {
        let n = 32;
        let a = f32_batch(n, n, count, true, 0x430);
        let b = f32_batch(n, 1, count, false, 0x431);
        let run = session
            .run_with(Op::GjSolve, &a, Some(&b), &opts(Approach::PerBlock))
            .unwrap()
            .run;
        file(&mut t, &run, format!("{n}x{n}"));
    }
    {
        let n = 40;
        let a = f32_batch(n, n, count, true, 0x440);
        let b = f32_batch(n, 1, count, false, 0x441);
        let run = session
            .run_with(Op::QrSolve, &a, Some(&b), &opts(Approach::PerBlock))
            .unwrap()
            .run;
        file(&mut t, &run, format!("{n}x{n}+1"));
    }

    // Export everything the profiler saw as a Chrome-trace document.
    let json = profiler.chrome_trace_json();
    let trace_path = "results/model_discrepancy_trace.json";
    let exported = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(trace_path, &json))
        .is_ok();

    let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    t.note(format!(
        "Mean of per-run mean |error|: {}% over {} runs ({} launches traced{}). \
         Per-block rows join each labeled phase (panel k: form-hh/matvec/rank-1, \
         load, store, ...) of the first wave against the Table VI cost model; \
         per-thread rows compare whole-launch cycles against the roofline. \
         Load/store rows inherit the model's streamed-DRAM assumption, so they \
         carry most of the error on small shapes.",
        f(mean),
        errs.len(),
        profiler.launch_count(),
        if exported {
            format!("; Chrome trace written to {trace_path}")
        } else {
            String::from("; trace export skipped (results/ not writable)")
        },
    ));
    t.render()
}
