//! Acceptance gate for the fault-injection/recovery stack: seeded
//! campaigns over 4096-problem QR and LU batches (>= 100 injected faults
//! total) must detect every applied fault, recover every tainted problem
//! (device retry, then CPU fallback), keep residuals under tolerance, and
//! reproduce bit-identically under the same seed. Exits non-zero on any
//! violation, so CI can run it as a smoke test (`REGLA_FAST=1` shrinks the
//! batches).

use regla_bench::experiments::resilience::{run_campaign, CampaignAlg};
use regla_model::Approach;

fn main() {
    let fast = regla_bench::fast_mode();
    let (count, faults) = if fast { (512, 32) } else { (4096, 64) };
    let cases: &[(&str, CampaignAlg, Approach, usize)] = &[
        ("QR 24x24 per-block", CampaignAlg::Qr, Approach::PerBlock, 24),
        ("LU 24x24 per-block", CampaignAlg::Lu, Approach::PerBlock, 24),
        ("QR 8x8 per-thread", CampaignAlg::Qr, Approach::PerThread, 8),
    ];
    let mut total_injected = 0;
    let mut failures = 0;
    for (name, alg, approach, n) in cases {
        let o = run_campaign(*alg, *approach, *n, count, faults, 0xCA_FA_11);
        total_injected += o.injected;
        let mut bad = Vec::new();
        if o.injected == 0 {
            bad.push("no faults applied".to_string());
        }
        // Per-thread blocks carry 64 problems each; per-block carry one.
        let ppb = if *approach == Approach::PerThread { 64 } else { 1 };
        let rec = &o.recovery;
        if rec.faults_detected != (o.injected * ppb) as u64 {
            bad.push(format!(
                "detected {} problems for {} applied faults (x{ppb} expected)",
                rec.faults_detected, o.injected
            ));
        }
        if rec.unrecovered != 0 {
            bad.push(format!("{} problems left unrecovered", rec.unrecovered));
        }
        if o.max_residual > 2e-3 {
            bad.push(format!("max residual {:.2e} above 2e-3", o.max_residual));
        }
        if !o.reproducible {
            bad.push("rerun with the same seed was not bit-identical".into());
        }
        if bad.is_empty() {
            println!(
                "ok   {name}: {} injected, {} tainted, {} retried, {} CPU \
                 fallback, max residual {:.2e}, reproducible",
                o.injected, rec.faults_detected, rec.retried, rec.fell_back, o.max_residual
            );
        } else {
            failures += 1;
            println!("FAIL {name}: {}", bad.join("; "));
        }
    }
    if !fast && total_injected < 100 {
        failures += 1;
        println!("FAIL campaign too small: {total_injected} total faults (< 100)");
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("fault campaign passed: {total_injected} faults injected, all recovered");
}
