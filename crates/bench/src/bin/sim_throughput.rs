//! Acceptance gate for the fast execution path: runs the `sim_throughput`
//! experiment and fails (non-zero exit) if the observer-free path is less
//! than 5x faster than the instrumented path on the fig10 per-thread
//! workload aggregate or less than 8x faster on the fig10 per-block
//! aggregate, or if any fast/slow leg pair disagrees bit for bit. The
//! full-scale run recorded in `results/BENCH_sim.json` targets >= 10x on
//! both; the CI smoke (`REGLA_FAST=1`) uses smaller batches, so the gates
//! here are conservative floors.

use regla_bench::experiments::throughput::sim_throughput_rows;

/// Minimum fast/slow speedup of each gated workload's aggregate row.
const GATES: [(&str, f64); 2] = [("fig10_pt", 5.0), ("fig10_pb", 8.0)];

fn main() {
    let fast = regla_bench::fast_mode();
    let (report, rows) = sim_throughput_rows(fast);
    println!("{report}");
    let mut failures = 0;
    for r in rows.iter().filter(|r| !r.bit_identical) {
        failures += 1;
        println!(
            "FAIL {} {} {}: fast and slow legs are not bit-identical",
            r.workload, r.op, r.shape
        );
    }
    for (workload, gate) in GATES {
        match rows
            .iter()
            .find(|r| r.workload == workload && r.shape == "aggregate")
        {
            Some(agg) if agg.speedup < gate => {
                failures += 1;
                println!(
                    "FAIL {workload} aggregate speedup {:.1}x below the {gate}x gate",
                    agg.speedup
                );
            }
            Some(agg) => println!(
                "speedup gate ok: {workload} aggregate {:.1}x (>= {gate}x)",
                agg.speedup
            ),
            None => {
                failures += 1;
                println!("FAIL no {workload} aggregate row produced");
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
