//! Regenerates the per-phase model-discrepancy table and writes the
//! recorded launches as Chrome-trace JSON under `results/`.
use regla_bench::bench_telemetry::Collector;

fn main() {
    let fast = regla_bench::fast_mode();
    print!("{}", regla_bench::experiments::model_discrepancy(fast, &mut Collector::new()));
}
