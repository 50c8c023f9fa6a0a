//! Resilience experiment: seeded fault-injection campaigns over large
//! QR/LU batches, with the detection / retry / CPU-fallback accounting
//! that the recovery layer reports (and `results/BENCH_sim.json` records).

use crate::bench_telemetry::Collector;
use crate::report::Table;
use crate::workloads::f32_batch;
use regla_core::{MatBatch, Op, RecoveryStats, RunOpts, Session};
use regla_gpu_sim::FaultPlan;
use regla_model::Approach;

/// Which factorization a campaign drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignAlg {
    Qr,
    Lu,
}

/// Aggregated outcome of one seeded campaign (one batched run, re-run once
/// with the same seed for the reproducibility check).
#[derive(Clone, Copy, Debug)]
pub struct CampaignOutcome {
    /// Faults the simulator applied (its ECC/machine-check records).
    pub injected: usize,
    /// What the recovery layer did in the first run (the rerun only
    /// checks reproducibility).
    pub recovery: RecoveryStats,
    /// Worst relative factorization residual over the faulted problems
    /// after recovery (`‖L·U − A‖/‖A‖` or `‖RᴴR − AᴴA‖/‖AᴴA‖`).
    pub max_residual: f64,
    /// The same seed reproduced bit-identical output and accounting.
    pub reproducible: bool,
}

/// Run one seeded campaign: factor `count` n x n problems under a
/// `faults`-block fault plan, with the default bounded recovery policy
/// (one device retry, then CPU fallback).
pub fn run_campaign(
    alg: CampaignAlg,
    approach: Approach,
    n: usize,
    count: usize,
    faults: usize,
    seed: u64,
) -> CampaignOutcome {
    let session = Session::new();
    let a = f32_batch(n, n, count, true, seed ^ 0xA5A5);
    let opts = RunOpts::builder()
        .approach(approach)
        .fault(FaultPlan::new(seed, faults))
        .build().unwrap();
    let once = |o: &RunOpts| {
        let op = match alg {
            CampaignAlg::Qr => Op::Qr,
            CampaignAlg::Lu => Op::Lu,
        };
        session
            .run_with(op, &a, None, o)
            .expect("valid campaign batch")
            .run
    };
    let run = once(&opts);

    // Every problem a recorded fault tainted, for the residual check.
    let ppb = if approach == Approach::PerThread { 64 } else { 1 };
    let mut tainted: Vec<usize> = run
        .stats
        .launches
        .iter()
        .flat_map(|l| l.faults.iter())
        .flat_map(|f| f.block * ppb..((f.block + 1) * ppb).min(count))
        .collect();
    tainted.sort_unstable();
    tainted.dedup();

    let mut max_residual = 0.0f64;
    for &p in &tainted {
        let am = a.mat(p);
        let fact = run.out.mat(p);
        let rel = match alg {
            CampaignAlg::Lu => {
                let (lo, up) = regla_core::host::split_lu(&fact);
                lo.matmul(&up).frob_dist(&am) / am.frob_norm()
            }
            CampaignAlg::Qr => {
                // Gram identity RᴴR = AᴴA: checks R without forming Q.
                let r = regla_core::host::extract_r(&fact);
                let rtr = r.hermitian_transpose().matmul(&r);
                let ata = am.hermitian_transpose().matmul(&am);
                rtr.frob_dist(&ata) / ata.frob_norm()
            }
        };
        max_residual = max_residual.max(rel as f64);
    }

    let rerun = once(&opts);
    let bits = |b: &MatBatch<f32>| -> Vec<u32> { b.data().iter().map(|v| v.to_bits()).collect() };
    let reproducible = bits(&run.out) == bits(&rerun.out)
        && run.status == rerun.status
        && run.recovery == rerun.recovery;

    CampaignOutcome {
        injected: run.stats.launches.iter().map(|l| l.faults.len()).sum(),
        recovery: run.recovery,
        max_residual,
        reproducible,
    }
}

/// The campaign table: seeded fault injection over QR and LU batches on
/// the per-thread and per-block paths.
pub fn resilience_campaign(fast: bool, c: &mut Collector) -> String {
    let (count, faults) = if fast { (512, 32) } else { (4096, 128) };
    let mut t = Table::new(
        format!(
            "Resilience — seeded fault campaigns ({count} problems, \
             bounded recovery: 1 retry + CPU fallback)"
        ),
        &[
            "campaign",
            "injected",
            "tainted problems",
            "retried",
            "CPU fallback",
            "unrecovered",
            "max residual",
            "reproducible",
        ],
    );
    let cases: &[(&str, CampaignAlg, Approach, usize)] = &[
        ("QR 8x8 per-thread", CampaignAlg::Qr, Approach::PerThread, 8),
        ("QR 24x24 per-block", CampaignAlg::Qr, Approach::PerBlock, 24),
        ("LU 8x8 per-thread", CampaignAlg::Lu, Approach::PerThread, 8),
        ("LU 24x24 per-block", CampaignAlg::Lu, Approach::PerBlock, 24),
    ];
    for (name, alg, approach, n) in cases {
        let o = run_campaign(*alg, *approach, *n, count, faults, 0x0D1E5E1);
        c.add_recovery(&o.recovery);
        t.row(&[
            name.to_string(),
            o.injected.to_string(),
            o.recovery.faults_detected.to_string(),
            o.recovery.retried.to_string(),
            o.recovery.fell_back.to_string(),
            o.recovery.unrecovered.to_string(),
            format!("{:.2e}", o.max_residual),
            if o.reproducible { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note(
        "Every fault in this campaign is recorded by the simulator (the \
         ECC/machine-check report a real device would provide), so detection \
         cannot miss a flipped bit that still produced a finite value. Silent \
         corruption — flips the ECC report does *not* carry — is exercised \
         separately by the verify_campaign experiment, where only the ABFT \
         checksum/residual screens can catch it. Per-thread blocks carry 64 \
         problems, so one faulted block taints 64 problems there. Residuals are \
         measured over the faulted problems only, after recovery.",
    );
    t.render()
}
