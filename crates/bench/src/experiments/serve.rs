//! Serve experiment: an open-loop mixed workload (LU/QR/GJ-solve on
//! paper-sized problems) offered to the async solve service under four
//! configurations — micro-batching on, micro-batching off (the baseline
//! the coalescing gate compares against), an overload run that exercises
//! admission-control shedding, and a chaos run with a device death under
//! load. Scenario rows go to the `serve` section of
//! `results/BENCH_sim.json`.

use crate::bench_telemetry::{Collector, Row, Section, Val};
use crate::report::Table;
use regla_core::{ChaosPlan, Fleet, RecoveryStats};
use regla_gpu_sim::GpuConfig;
use regla_serve::{
    generate_requests, ServeConfig, ServeEngine, ServeOutcome, ServeReport, TrafficConfig,
};

/// Campaign seed shared by the traffic source and the chaos plan.
pub const CAMPAIGN_SEED: u64 = 0x5E21_ED5E;

/// The serving fleet: a Fermi part plus a GT200, so coalesced dispatches
/// shard unevenly and a device death has somewhere to fail over to.
fn serve_fleet(chaos: Option<ChaosPlan>) -> Fleet {
    let mut b = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::gt200());
    if let Some(plan) = chaos {
        b = b.chaos(plan);
    }
    b.build().expect("serve fleet has devices")
}

/// Run one serve scenario over the shared mixed traffic stream.
///
/// `backlog_budget_s = None` disables admission shedding (infinite budget
/// and queue) so throughput scenarios serve every request; `Some(budget)`
/// uses the bounded queue and the model-priced backlog controller.
/// `chaos = true` kills the GT200 after its second dispatch. Returns the
/// outcome and the fleet's recovery over the whole scenario.
pub fn run_serve_scenario(
    requests: usize,
    rate_rps: f64,
    coalesce: bool,
    chaos: bool,
    backlog_budget_s: Option<f64>,
) -> (ServeOutcome<f32>, RecoveryStats) {
    let plan = chaos.then(|| ChaosPlan::new(CAMPAIGN_SEED).device_death(1, 2));
    let fleet = serve_fleet(plan);
    let mut cfg = ServeConfig::default().coalesce(coalesce);
    cfg = match backlog_budget_s {
        // Admission scenarios also bound the queue, so whichever limit the
        // workload hits first (queue depth or predicted backlog) sheds.
        Some(b) => cfg.backlog_budget_s(b).queue_capacity(64),
        None => cfg
            .backlog_budget_s(f64::INFINITY)
            .queue_capacity(usize::MAX),
    };
    let mut engine = ServeEngine::new(fleet, cfg);
    let traffic = TrafficConfig::mixed(requests, rate_rps, CAMPAIGN_SEED);
    let outcome = engine.serve(generate_requests(&traffic));
    (outcome, engine.fleet().take_recovery_totals())
}

/// Flatten one scenario's aggregate report into its `serve` row.
pub fn serve_row(scenario: &str, r: &ServeReport) -> Row {
    let device_dispatches: Vec<String> = r
        .device_dispatches
        .iter()
        .map(|(name, count)| format!("{name}:{count}"))
        .collect();
    vec![
        ("scenario", scenario.into()),
        ("offered", r.offered.into()),
        ("served", r.served.into()),
        ("shed", r.shed.into()),
        ("request_errors", r.request_errors.into()),
        ("dispatches", r.dispatches.into()),
        ("problems", r.problems.into()),
        ("coalescing", Val::Num(r.coalescing, 2)),
        ("shed_rate", Val::Num(r.shed_rate, 4)),
        ("p50_ms", Val::Num(r.p50_ms, 4)),
        ("p99_ms", Val::Num(r.p99_ms, 4)),
        ("p999_ms", Val::Num(r.p999_ms, 4)),
        ("late", r.late.into()),
        ("problems_per_sec", Val::Num(r.problems_per_sec, 1)),
        ("busy_problems_per_sec", Val::Num(r.busy_problems_per_sec, 1)),
        ("device_dispatches", device_dispatches.join("; ").into()),
    ]
}

/// The four standard scenarios at a given campaign size, each handing
/// its `serve` row and fleet recovery to `c`.
pub fn standard_scenarios(
    requests: usize,
    c: &mut Collector,
) -> Vec<(&'static str, ServeOutcome<f32>)> {
    [
        ("coalesced", 2500.0, true, false, None),
        ("uncoalesced", 2500.0, false, false, None),
        ("overload", 100_000.0, true, false, Some(1e-4)),
        ("chaos", 2500.0, true, true, None),
    ]
    .into_iter()
    .map(|(name, rate, coalesce, chaos, budget)| {
        let (outcome, recovery) = run_serve_scenario(requests, rate, coalesce, chaos, budget);
        c.add_recovery(&recovery);
        c.add(Section::Serve, [serve_row(name, &outcome.report)]);
        (name, outcome)
    })
    .collect()
}

/// The serve table: the mixed workload through all four scenarios.
pub fn serve_load(fast: bool, c: &mut Collector) -> String {
    let requests = if fast { 160 } else { 480 };
    let mut t = Table::new(
        format!(
            "Serving — admission control and micro-batching \
             ({requests} requests, 8 clients, 2 devices)"
        ),
        &[
            "scenario",
            "served",
            "shed",
            "errors",
            "dispatches",
            "coalescing",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
            "late",
            "busy prob/s",
        ],
    );
    for (name, outcome) in standard_scenarios(requests, c) {
        let r = &outcome.report;
        t.row(&[
            name.to_string(),
            r.served.to_string(),
            r.shed.to_string(),
            r.request_errors.to_string(),
            r.dispatches.to_string(),
            format!("{:.2}", r.coalescing),
            format!("{:.4}", r.p50_ms),
            format!("{:.4}", r.p99_ms),
            format!("{:.4}", r.p999_ms),
            r.late.to_string(),
            format!("{:.0}", r.busy_problems_per_sec),
        ]);
    }
    t.note(
        "Open-loop Poisson-ish traffic on the simulated clock: LU 8x8, QR \
         10x10 and GJ-solve 8x8 requests from 8 seeded client streams. \
         `coalesced` micro-batches compatible requests into shared fleet \
         dispatches under a deadline-driven flush; `uncoalesced` issues one \
         dispatch per request (the capacity baseline); `overload` offers 40x \
         the rate against a 0.1 ms backlog budget and a 64-deep queue, so \
         the admission controller sheds instead of queueing unbounded work; \
         `chaos` re-runs the \
         coalesced scenario with the GT200 killed after two dispatches — the \
         fleet's failover absorbs the death, so it shows up as a latency \
         bump, not request errors.",
    );
    t.render()
}
