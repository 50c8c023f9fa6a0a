//! Acceptance gate for end-to-end result verification: seeded
//! silent-corruption campaigns over 4096-problem QR and LU batches must
//! detect >= 99% of injected flips through the ABFT checksum / residual
//! screens, flag zero clean problems, recover every flagged problem
//! through the ordinary verification-gated recovery path, keep the clean
//! sweep bit-identical with screens on and off, and reproduce
//! bit-identically under the same seed. Writes per-case detection /
//! false-positive / screen-cost rows into the `"verify"` section of
//! `results/BENCH_sim.json`. Exits non-zero on any violation, so CI can
//! run it as a smoke test (`REGLA_FAST=1` shrinks the batches).

use regla_bench::bench_telemetry::Collector;
use regla_bench::experiments::verify::verify_cases;
use std::time::Instant;

fn main() {
    let fast = regla_bench::fast_mode();
    let mut telemetry = Collector::new();
    let t0 = Instant::now();
    let mut total_injected = 0;
    let mut total_flagged = 0;
    let mut failures = 0;
    for (name, o) in verify_cases(fast, &mut telemetry) {
        let rec = &o.recovery;
        total_injected += o.injected;
        total_flagged += rec.verify_failures;
        let mut bad = Vec::new();
        if o.injected == 0 {
            bad.push("no silent faults fired".to_string());
        }
        if o.detection_rate < 0.99 {
            bad.push(format!(
                "detected {} of {} silent flips ({:.1}% < 99%)",
                o.detected,
                o.injected,
                o.detection_rate * 100.0
            ));
        }
        if o.false_positives != 0 {
            bad.push(format!(
                "{} clean problems flagged as corrupt",
                o.false_positives
            ));
        }
        if rec.verify_recovered != rec.verify_failures {
            bad.push(format!(
                "recovery settled {} of {} flagged problems",
                rec.verify_recovered, rec.verify_failures
            ));
        }
        if rec.unrecovered != 0 {
            bad.push(format!("{} problems left unsettled", rec.unrecovered));
        }
        if !o.clean_bit_identical {
            bad.push("clean outputs differ with verification on".into());
        }
        if !o.reproducible {
            bad.push("rerun with the same seed was not bit-identical".into());
        }
        if bad.is_empty() {
            println!(
                "ok   {name}: {}/{} silent flips detected, {} false positives, \
                 {}/{} flagged problems recovered, screens {:.2}ms (pred {:.2}ms)",
                o.detected,
                o.injected,
                o.false_positives,
                rec.verify_recovered,
                rec.verify_failures,
                o.measured_screen_ms,
                o.predicted_screen_ms
            );
        } else {
            failures += 1;
            println!("FAIL {name}: {}", bad.join("; "));
        }
    }
    if !fast && total_injected < 100 {
        failures += 1;
        println!("FAIL campaign too small: {total_injected} silent flips (< 100)");
    }
    // The record counts each case's gated leg once: its verify_failures
    // must equal the table's summed "flagged" column.
    let record = telemetry.record("verify_campaign", t0.elapsed().as_secs_f64());
    if record.recovery.verify_failures != total_flagged {
        failures += 1;
        println!(
            "FAIL the verify_campaign record counts {} verify failures, the cases flagged {}",
            record.recovery.verify_failures, total_flagged
        );
    }
    std::fs::create_dir_all("results").expect("create results dir");
    telemetry
        .write("results/BENCH_sim.json")
        .expect("write BENCH_sim.json");
    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "verify campaign passed: {total_injected} silent flips injected, \
         all detected and recovered; telemetry in results/BENCH_sim.json"
    );
}
