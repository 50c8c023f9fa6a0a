//! Regenerates every table and figure into `results/` (markdown + CSV),
//! plus `results/BENCH_sim.json` with per-experiment simulator wall-clock.
//!
//! `--quick` shrinks every experiment to its fast configuration (smaller
//! batches and sweeps; the sampled-execution figures replay even fewer
//! blocks) — same tables, lower fidelity, minutes instead of hours.
use regla_bench::bench_telemetry::Collector;
use std::fs;
use std::time::Instant;

/// Extract the data rows of a rendered markdown table as CSV.
fn md_to_csv(report: &str) -> String {
    let mut out = String::new();
    for line in report.lines() {
        let l = line.trim();
        if !l.starts_with('|') || l.starts_with("|-") || l.starts_with("| -") {
            continue;
        }
        if l.chars().all(|c| "|-: ".contains(c)) {
            continue; // separator row
        }
        let cells: Vec<String> = l
            .trim_matches('|')
            .split('|')
            .map(|c| {
                let c = c.trim();
                if c.contains(',') {
                    format!("\"{c}\"")
                } else {
                    c.to_string()
                }
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick" || a == "-q");
    let fast = quick || regla_bench::fast_mode();
    fs::create_dir_all("results").expect("create results dir");
    let mut index = String::from("# regla experiment results\n\n");
    let mut telemetry = Collector::new();
    for (id, title, run) in regla_bench::experiments::ALL {
        let t0 = Instant::now();
        eprintln!("running {id} ...");
        let report = run(fast, &mut telemetry);
        let secs = t0.elapsed().as_secs_f64();
        fs::write(format!("results/{id}.md"), &report).expect("write report");
        fs::write(format!("results/{id}.csv"), md_to_csv(&report)).expect("write csv");
        println!("{report}");
        let rec = telemetry.record(id, secs);
        eprintln!("  {}", Collector::summary_line(rec));
        index.push_str(&format!("- [{title}]({id}.md) ({secs:.1}s)\n"));
    }
    fs::write("results/README.md", index).expect("write index");
    telemetry
        .write("results/BENCH_sim.json")
        .expect("write BENCH_sim.json");
    // Mirror the per-experiment summary to the repo root so CI jobs (and
    // humans) can diff it without digging into results/.
    telemetry
        .write("BENCH_sim.json")
        .expect("write root BENCH_sim.json");
    eprintln!(
        "all experiments written to results/ (markdown + CSV); simulator \
         wall-clock telemetry in results/BENCH_sim.json (mirrored to \
         ./BENCH_sim.json)"
    );
}
