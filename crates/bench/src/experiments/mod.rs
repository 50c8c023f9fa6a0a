//! One function per paper artifact. Every function returns the rendered
//! report (also suitable for writing into `results/`).

pub mod ablations;
pub mod accuracy;
pub mod chaos;
pub mod discrepancy;
pub mod figures;
pub mod pipeline;
pub mod resilience;
pub mod sanitize;
pub mod serve;
pub mod tables;
pub mod throughput;
pub mod tune;
pub mod verify;

pub use ablations::*;
pub use accuracy::*;
pub use chaos::*;
pub use discrepancy::*;
pub use figures::*;
pub use pipeline::*;
pub use resilience::*;
pub use sanitize::*;
pub use serve::*;
pub use tables::*;
pub use throughput::*;
pub use tune::*;
pub use verify::*;

use crate::bench_telemetry::Collector;

/// An experiment: renders its report at full or fast (`true`) scale and
/// hands its BENCH rows and reported recovery to the collector.
pub type Runner = fn(bool, &mut Collector) -> String;

/// (id, title, runner) for every experiment, in paper order.
pub const ALL: &[(&str, &str, Runner)] = &[
    ("table1_config", "Table I — device summary", |f, _| tables::table1(f)),
    ("table2_bandwidth", "Table II — bandwidths", |f, _| tables::table2(f)),
    ("table3_latency", "Table III — latencies", |f, _| tables::table3(f)),
    ("table4_params", "Table IV — model parameters", |f, _| tables::table4(f)),
    ("table5_cycles", "Table V — 56x56 cycle counts", |f, _| tables::table5(f)),
    ("table6_estimates", "Table VI — cost model estimates", |f, _| tables::table6(f)),
    ("table7_stap", "Table VII — RT_STAP complex QR", |f, _| tables::table7(f)),
    ("fig1_global_latency", "Figure 1 — global latency vs stride", |f, _| figures::fig1(f)),
    ("fig2_sync_latency", "Figure 2 — synchronization latency", |f, _| figures::fig2(f)),
    ("fig4_per_thread", "Figure 4 — one problem per thread", |f, _| figures::fig4(f)),
    ("fig7_layouts", "Figure 7 — 1D vs 2D layouts", |f, _| figures::fig7(f)),
    ("fig8_panels", "Figure 8 — QR per-panel breakdown", |f, _| figures::fig8(f)),
    ("fig9_per_block", "Figure 9 — one problem per block", |f, _| figures::fig9(f)),
    ("fig10_design_space", "Figure 10 — three approaches", |f, _| figures::fig10(f)),
    ("fig11_vs_libraries", "Figure 11 — vs MKL and MAGMA", |f, _| figures::fig11(f)),
    ("fig12_solvers", "Figure 12 — linear solvers vs MKL", |f, _| figures::fig12(f)),
    (
        "ablation_fastmath",
        "Ablation — fast vs precise math",
        |f, _| ablations::ablation_fastmath(f),
    ),
    (
        "ablation_reduction",
        "Ablation — serial vs tree reductions",
        |f, _| ablations::ablation_reduction(f),
    ),
    (
        "ablation_threads",
        "Ablation — 64 vs 256 threads per block",
        |f, _| ablations::ablation_threads(f),
    ),
    (
        "ablation_batch",
        "Ablation — batch-size saturation",
        |f, _| ablations::ablation_batch(f),
    ),
    (
        "ablation_lu_style",
        "Ablation — LU trailing-update style",
        |f, _| ablations::ablation_lu_style(f),
    ),
    (
        "ablation_streams",
        "Section VI-C — CUBLAS + streams",
        |f, _| ablations::ablation_streams(f),
    ),
    (
        "ablation_tsqr",
        "Ablation — tiled vs TSQR",
        |f, _| ablations::ablation_tsqr(f),
    ),
    (
        "pipeline",
        "Stream pipelining — copy/compute overlap",
        pipeline::pipeline,
    ),
    (
        "model_accuracy",
        "Model accuracy summary",
        |f, _| accuracy::model_accuracy(f),
    ),
    (
        "model_discrepancy",
        "Model discrepancy — per-phase predicted vs simulated",
        discrepancy::model_discrepancy,
    ),
    (
        "resilience_campaign",
        "Resilience — seeded fault campaigns",
        resilience::resilience_campaign,
    ),
    (
        "chaos_campaign",
        "Chaos — multi-device failure campaigns",
        chaos::chaos_campaign,
    ),
    (
        "sanitize_campaign",
        "Sanitizer — buggy fixtures + clean sweep",
        |f, _| sanitize::sanitize_campaign(f),
    ),
    (
        "sim_throughput",
        "Fast path — simulator throughput vs instrumented slow path",
        throughput::sim_throughput,
    ),
    (
        "serve_load",
        "Serving — admission control and micro-batching under load",
        serve::serve_load,
    ),
    (
        "autotune",
        "Autotune — model-picked plans vs exhaustive search",
        tune::autotune,
    ),
    (
        "verify_campaign",
        "Verification — silent corruption vs ABFT screens",
        verify::verify_campaign,
    ),
];
