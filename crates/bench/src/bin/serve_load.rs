//! Acceptance gate for the async solve service: the mixed open-loop
//! workload must (1) file a `serve` section with latency percentiles,
//! throughput, coalescing factor and shed rate into
//! `results/BENCH_sim.json`; (2) deliver at least 2x the per-busy-second
//! problem throughput with micro-batching on versus off; (3) shed with
//! structured admission errors under overload; and (4) absorb a device
//! death under load as a p99 latency bump — zero request errors — while
//! reproducing bit-identically from the same seed. Exits non-zero on any
//! violation (`REGLA_FAST=1` shrinks the campaign).

use regla_bench::bench_telemetry::Collector;
use regla_bench::experiments::serve::{run_serve_scenario, standard_scenarios};
use std::time::Instant;

fn bits(b: &regla_core::MatBatch<f32>) -> Vec<u32> {
    b.data().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let fast = regla_bench::fast_mode();
    let requests = if fast { 160 } else { 480 };
    let mut telemetry = Collector::new();
    let t0 = Instant::now();
    let mut failures = 0;
    let fail = |msg: String| {
        println!("FAIL {msg}");
    };

    let scenarios = standard_scenarios(requests, &mut telemetry);
    let report = |name: &str| {
        &scenarios
            .iter()
            .find(|(n, _)| *n == name)
            .expect("standard scenario present")
            .1
            .report
    };
    let coalesced = report("coalesced");
    let uncoalesced = report("uncoalesced");
    let overload = report("overload");
    let chaos = report("chaos");

    // -- every throughput-scenario request is actually served ------------
    for (name, r) in [("coalesced", coalesced), ("uncoalesced", uncoalesced)] {
        if r.served != r.offered || r.request_errors != 0 {
            failures += 1;
            fail(format!(
                "{name}: served {} of {} offered with {} errors",
                r.served, r.offered, r.request_errors
            ));
        }
    }

    // -- the >= 2x coalescing capacity gate ------------------------------
    let gain = coalesced.busy_problems_per_sec / uncoalesced.busy_problems_per_sec;
    if gain < 2.0 {
        failures += 1;
        fail(format!(
            "coalescing gain {gain:.2}x < 2x ({:.0} vs {:.0} problems per busy second)",
            coalesced.busy_problems_per_sec, uncoalesced.busy_problems_per_sec
        ));
    } else {
        println!(
            "ok   coalescing: {:.2} requests/dispatch, {gain:.2}x capacity over \
             one-dispatch-per-request",
            coalesced.coalescing
        );
    }

    // -- overload sheds via admission control, not errors ----------------
    if overload.shed == 0 {
        failures += 1;
        fail("overload scenario shed nothing; admission control never engaged".into());
    } else if overload.request_errors != 0 {
        failures += 1;
        fail(format!(
            "overload scenario produced {} request errors (shedding must be structured)",
            overload.request_errors
        ));
    } else {
        println!(
            "ok   overload: shed {} of {} offered (rate {:.3}), zero request errors",
            overload.shed, overload.offered, overload.shed_rate
        );
    }

    // -- chaos under load: latency bump, never request errors ------------
    let mut chaos_ok = true;
    if chaos.request_errors != 0 {
        chaos_ok = false;
        fail(format!(
            "chaos scenario produced {} request errors; the fleet must absorb the death",
            chaos.request_errors
        ));
    }
    if chaos.served != chaos.offered {
        chaos_ok = false;
        fail(format!(
            "chaos scenario served {} of {} offered",
            chaos.served, chaos.offered
        ));
    }
    if chaos.p99_ms <= coalesced.p99_ms {
        chaos_ok = false;
        fail(format!(
            "device death did not bump p99 ({:.4} ms chaos vs {:.4} ms clean)",
            chaos.p99_ms, coalesced.p99_ms
        ));
    }
    if chaos_ok {
        println!(
            "ok   chaos: served {}, p99 {:.4} ms vs {:.4} ms clean, 0 request errors",
            chaos.served, chaos.p99_ms, coalesced.p99_ms
        );
    } else {
        failures += 1;
    }

    // -- the chaos campaign reproduces bit-identically -------------------
    let (rerun, _) = run_serve_scenario(requests, 2500.0, true, true, None);
    let first = &scenarios.iter().find(|(n, _)| *n == "chaos").unwrap().1;
    let mut identical = first.report == rerun.report;
    for (a, b) in first.responses.iter().zip(&rerun.responses) {
        identical &= a.completion_s.to_bits() == b.completion_s.to_bits();
        if let (Ok(x), Ok(y)) = (&a.result, &b.result) {
            identical &= bits(&x.run.out) == bits(&y.run.out);
        }
    }
    if !identical {
        failures += 1;
        fail("chaos-under-load rerun from the same seed was not bit-identical".into());
    } else {
        println!("ok   reproducibility: chaos campaign rerun is bit-identical");
    }

    // -- write the serve section -------------------------------------------
    telemetry.record("serve_load", t0.elapsed().as_secs_f64());
    std::fs::create_dir_all("results").expect("create results dir");
    telemetry
        .write("results/BENCH_sim.json")
        .expect("write BENCH_sim.json");
    let json = std::fs::read_to_string("results/BENCH_sim.json").expect("read back");
    if !json.contains("\"serve\": [") || !json.contains("\"scenario\": \"chaos\"") {
        failures += 1;
        fail("serve section missing from results/BENCH_sim.json".into());
    }

    if failures > 0 {
        std::process::exit(1);
    }
    println!("serve load passed: scenario telemetry in results/BENCH_sim.json");
}
