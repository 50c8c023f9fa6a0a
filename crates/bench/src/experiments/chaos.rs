//! Chaos experiment: a seeded multi-device failure campaign over the
//! fleet dispatcher — device deaths, a stream stall against an armed
//! deadline, and a fault storm — verifying that health-gated failover,
//! work stealing and the CPU degraded mode keep every problem solved,
//! bit-identically across reruns. Per-device shard/failover/steal
//! telemetry goes to the `fleet` section of `results/BENCH_sim.json`.

use crate::bench_telemetry::{Collector, Row, Section, Val};
use crate::report::Table;
use crate::workloads::f32_batch;
use regla_core::{ChaosPlan, DeviceReport, Fleet, FleetPolicy, FleetReport, Op, RecoveryStats};
use regla_gpu_sim::GpuConfig;

/// A stall so long no model-derived deadline budget survives it
/// (~2^40 simulated cycles, minutes of simulated time).
const KILLER_STALL_CYCLES: u64 = 1 << 40;

/// Aggregated outcome of one seeded chaos campaign (run twice with the
/// same plan for the reproducibility check).
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    pub problems: usize,
    /// Devices the plan kills during the campaign.
    pub devices_killed: usize,
    /// Every problem came back [`regla_core::ProblemStatus::Ok`].
    pub all_ok: bool,
    /// The same plan reproduced bit-identical output and telemetry.
    pub reproducible: bool,
    /// What the fleet's recovery did in the first run (the rerun only
    /// checks reproducibility).
    pub recovery: RecoveryStats,
    pub report: FleetReport,
}

/// The campaign's three-device fleet: two Fermi parts and a GT200, so
/// sharding is throughput-weighted rather than even.
fn campaign_fleet(seed: u64) -> Fleet {
    Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::quadro_6000_dual_copy())
        .device(GpuConfig::gt200())
        .policy(FleetPolicy {
            // Generous slack: only the injected stall can blow a budget.
            deadline_slack: Some(4.0),
            ..FleetPolicy::default()
        })
        .chaos(
            ChaosPlan::new(seed)
                // Device 2 is dead on arrival; device 1 survives one
                // dispatch. Both manifest under any schedule.
                .device_death(2, 0)
                .device_death(1, 1)
                // Device 0's third dispatch stalls past any deadline.
                .stream_stall(0, 2, KILLER_STALL_CYCLES)
                // ... and its next two dispatches run under a fault storm
                // (recovered by retry, and health-gating the breaker).
                .fault_storm(0, 3, 2, 8),
        )
        .build()
        .expect("campaign fleet has devices")
}

/// Run one seeded chaos campaign: `count` n x n problems of `op` across
/// three devices with two injected device deaths, one killer stall and
/// one fault storm. Every problem must still come back Ok.
pub fn run_chaos_campaign(op: Op, n: usize, count: usize, seed: u64) -> ChaosOutcome {
    let a = f32_batch(n, n, count, true, seed ^ 0x000C_4A05);
    let b = op.needs_rhs().then(|| f32_batch(n, 1, count, false, seed ^ 0xB0_07));
    let once = || {
        campaign_fleet(seed)
            .run(op, &a, b.as_ref())
            .expect("chaos campaign batch is valid")
    };
    let run = once();
    let rerun = once();
    let bits = |b: &regla_core::MatBatch<f32>| -> Vec<u32> {
        b.data().iter().map(|v| v.to_bits()).collect()
    };
    let reproducible = bits(&run.output.run.out) == bits(&rerun.output.run.out)
        && run.output.run.status == rerun.output.run.status
        && run.output.run.recovery == rerun.output.run.recovery
        && run.report == rerun.report;

    ChaosOutcome {
        problems: count,
        devices_killed: 2,
        all_ok: run.output.run.status.iter().all(|s| s.is_ok()),
        reproducible,
        recovery: run.output.run.recovery,
        report: run.report,
    }
}

/// Flatten a campaign's fleet report into per-device rows for the
/// `fleet` section of `results/BENCH_sim.json` (plus a `cpu-pool`
/// pseudo-device when the degraded mode ran).
pub fn fleet_rows(campaign: &str, o: &ChaosOutcome) -> Vec<Row> {
    let pool = (o.recovery.cpu_degraded > 0).then(|| DeviceReport {
        name: "cpu-pool".into(),
        chunks_run: o.report.cpu_pool_chunks,
        problems_run: o.recovery.cpu_degraded as usize,
        ..DeviceReport::default()
    });
    o.report
        .devices
        .iter()
        .chain(&pool)
        .map(|d| {
            vec![
                ("campaign", campaign.into()),
                ("device", d.name.as_str().into()),
                ("planned_problems", d.planned_problems.into()),
                ("chunks_run", d.chunks_run.into()),
                ("problems_run", d.problems_run.into()),
                ("steals", d.steals.into()),
                ("rescues", d.rescues.into()),
                ("failed_dispatches", d.failed_dispatches.into()),
                ("deadline_misses", d.deadline_misses.into()),
                ("breaker_trips", d.breaker_trips.into()),
                ("breaker_state", format!("{:?}", d.breaker_state).into()),
                ("sim_time_s", Val::Num(d.sim_time_s, 6)),
            ]
        })
        .collect()
}

/// Run the QR and LU chaos campaigns at harness scale, handing each one's
/// fleet rows and first-run recovery to `c`.
pub fn chaos_cases(fast: bool, c: &mut Collector) -> Vec<(&'static str, ChaosOutcome)> {
    let count = if fast { 1024 } else { 4096 };
    [("QR 8x8", Op::Qr), ("LU 8x8", Op::Lu)]
        .into_iter()
        .map(|(name, op)| {
            let o = run_chaos_campaign(op, 8, count, 0xC4A0_5EED);
            c.add_recovery(&o.recovery);
            c.add(Section::Fleet, fleet_rows(name, &o));
            (name, o)
        })
        .collect()
}

/// The chaos table: seeded device-death / stall / fault-storm campaigns
/// over QR and LU on a three-device fleet.
pub fn chaos_campaign(fast: bool, c: &mut Collector) -> String {
    let cases = chaos_cases(fast, c);
    let count = cases.first().map_or(0, |(_, o)| o.problems);
    let mut t = Table::new(
        format!(
            "Chaos — multi-device failure campaigns ({count} problems, \
             3 devices, 2 injected device deaths + stall + fault storm)"
        ),
        &[
            "campaign",
            "problems",
            "failovers",
            "steals",
            "deadline misses",
            "breaker trips",
            "CPU degraded",
            "all ok",
            "reproducible",
        ],
    );
    for (name, o) in cases {
        let rec = &o.recovery;
        t.row(&[
            name.to_string(),
            o.problems.to_string(),
            rec.device_failovers.to_string(),
            rec.shards_stolen.to_string(),
            rec.deadline_misses.to_string(),
            rec.breaker_trips.to_string(),
            rec.cpu_degraded.to_string(),
            if o.all_ok { "yes" } else { "NO" }.to_string(),
            if o.reproducible { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note(
        "Each campaign shards its batch across a Quadro 6000, a dual-copy \
         Quadro 6000 and a GT200 by modeled throughput. The chaos plan kills \
         device 2 before its first dispatch and device 1 after one dispatch \
         (both survive via rescue/steal onto device 0), stalls one dispatch \
         past its model-derived deadline, and runs a two-dispatch fault storm \
         that the per-run recovery policy retries clean. The whole schedule is \
         driven by simulated clocks, so a rerun with the same plan is \
         bit-identical.",
    );
    t.render()
}
