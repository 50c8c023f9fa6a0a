//! Regenerates the stream-pipelining table: chunked copy/compute overlap
//! on the single- and dual-copy-engine device configurations.
use regla_bench::bench_telemetry::Collector;

fn main() {
    let fast = regla_bench::fast_mode();
    print!("{}", regla_bench::experiments::pipeline(fast, &mut Collector::new()));
}
