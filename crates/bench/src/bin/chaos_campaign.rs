//! Acceptance gate for the multi-device fault-domain stack: seeded chaos
//! campaigns over 4096-problem QR and LU batches on a three-device fleet
//! with two injected device deaths, a killer stream stall and a fault
//! storm must solve every problem (failover + stealing + recovery), record
//! the failover/steal counts, and reproduce bit-identically under the same
//! plan. Also smoke-checks that a zero-device fleet and an
//! all-devices-dead fleet with the CPU pool disabled return structured
//! errors instead of hanging. Writes the per-device telemetry to
//! `results/BENCH_sim.json`. Exits non-zero on any violation
//! (`REGLA_FAST=1` shrinks the batches).

use regla_bench::bench_telemetry::Collector;
use regla_bench::experiments::chaos::chaos_cases;
use regla_core::{ChaosPlan, Fleet, FleetPolicy, MatBatch, Op, ReglaError};
use regla_gpu_sim::GpuConfig;
use std::time::Instant;

fn structured_error_smoke() -> Vec<String> {
    let mut bad = Vec::new();
    // A fleet with no devices must refuse to build.
    match Fleet::builder().build() {
        Err(ReglaError::FleetUnavailable(_)) => {}
        other => bad.push(format!("zero-device fleet: expected FleetUnavailable, got {other:?}")),
    }
    // Every device dead + CPU pool disabled must fail structurally, fast.
    let fleet = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::gt200())
        .policy(FleetPolicy {
            cpu_pool: false,
            ..FleetPolicy::default()
        })
        .chaos(ChaosPlan::new(1).device_death(0, 0).device_death(1, 0))
        .build()
        .expect("two-device fleet builds");
    let a = MatBatch::from_fn(6, 6, 32, |k, i, j| {
        ((k + i + j) % 7) as f32 + if i == j { 8.0 } else { 0.0 }
    });
    match fleet.run(Op::Lu, &a, None) {
        Err(ReglaError::FleetUnavailable(_)) => {}
        Ok(_) => bad.push("all-dead fleet without CPU pool unexpectedly succeeded".into()),
        Err(e) => bad.push(format!("all-dead fleet: expected FleetUnavailable, got {e}")),
    }
    bad
}

fn main() {
    let fast = regla_bench::fast_mode();
    let mut telemetry = Collector::new();
    let t0 = Instant::now();
    let mut failures = 0;

    for line in structured_error_smoke() {
        failures += 1;
        println!("FAIL smoke: {line}");
    }
    if failures == 0 {
        println!("ok   smoke: zero-device and all-dead fleets fail with FleetUnavailable");
    }

    for (name, o) in chaos_cases(fast, &mut telemetry) {
        let rec = &o.recovery;
        let mut bad = Vec::new();
        if !o.all_ok {
            bad.push("not every problem came back Ok".to_string());
        }
        // Both injected deaths must manifest (devices 1 and 2 are the
        // killed ones in the campaign plan) ...
        for dead in [1, 2] {
            if o.report.devices[dead].failed_dispatches == 0 {
                bad.push(format!(
                    "killed device {dead} never registered a failed dispatch"
                ));
            }
        }
        // ... and their work must have been rescued by a healthy device
        // or degraded to the CPU pool.
        if rec.device_failovers == 0 && o.report.cpu_pool_chunks == 0 {
            bad.push("no failed chunk was rescued or CPU-degraded".into());
        }
        if rec.deadline_misses == 0 {
            bad.push("the killer stall did not register a deadline miss".into());
        }
        if rec.breaker_trips == 0 {
            bad.push("no breaker tripped despite device deaths".into());
        }
        if !o.reproducible {
            bad.push("rerun with the same chaos plan was not bit-identical".into());
        }
        let run_by_devices: usize = o
            .report
            .devices
            .iter()
            .map(|d| d.problems_run)
            .sum::<usize>()
            + rec.cpu_degraded as usize;
        if run_by_devices != o.problems {
            bad.push(format!(
                "devices + CPU pool ran {run_by_devices} problems, batch holds {}",
                o.problems
            ));
        }
        if bad.is_empty() {
            println!(
                "ok   {name}: {} problems, {} failovers, {} steals, {} deadline \
                 misses, {} breaker trips, {} CPU degraded, reproducible",
                o.problems,
                rec.device_failovers,
                rec.shards_stolen,
                rec.deadline_misses,
                rec.breaker_trips,
                rec.cpu_degraded,
            );
        } else {
            failures += 1;
            println!("FAIL {name}: {}", bad.join("; "));
        }
    }

    telemetry.record("chaos_campaign", t0.elapsed().as_secs_f64());
    std::fs::create_dir_all("results").expect("create results dir");
    telemetry
        .write("results/BENCH_sim.json")
        .expect("write BENCH_sim.json");

    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "chaos campaign passed: per-device telemetry in results/BENCH_sim.json"
    );
}
