//! Verification experiment: silent-corruption campaigns over large QR/LU
//! batches, screened end to end by the ABFT checksum / residual layer
//! (`regla_core::verify`) that the ECC-style fault reports cannot see.
//!
//! Each campaign runs four legs per (alg, shape):
//!
//! 1. **Raw detection** — `SilentFlip` faults, verification on, recovery
//!    off: every injected flip (ground truth from
//!    `LaunchStats::silent_faults`) must surface as a `VerifyFailed`
//!    verdict in its block; flags outside faulted blocks are false
//!    positives.
//! 2. **Gated recovery** — same plan with the default bounded recovery:
//!    `VerifyFailed` is not a settled verdict, so the ordinary retry /
//!    CPU-fallback machinery re-runs flagged problems
//!    (`RecoveryStats::verify_failures` / `verify_recovered`).
//! 3. **Clean sweep** — no faults, verification off vs on: outputs must
//!    be bit-identical (the screens are strictly observational) and no
//!    clean problem may be flagged.
//! 4. **Reproducibility** — the verified faulted run repeats
//!    bit-identically under the same seed.
//!
//! The clean pair also times the screens (host wall-clock) against the
//! model's [`regla_model::verify_seconds`] prediction.

use crate::bench_telemetry::{Collector, Row, Section, Val};
use crate::report::Table;
use crate::workloads::f32_batch;
use regla_core::{
    MatBatch, Op, ProblemStatus, RecoveryPolicy, RecoveryStats, RunOpts, Session, VerifyMode,
};
use regla_gpu_sim::{FaultKind, FaultPlan};
use regla_model::{Algorithm, Approach};
use std::time::Instant;

/// Which factorization a campaign drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyAlg {
    Qr,
    Lu,
}

impl VerifyAlg {
    fn op(self) -> Op {
        match self {
            VerifyAlg::Qr => Op::Qr,
            VerifyAlg::Lu => Op::Lu,
        }
    }

    fn model(self) -> Algorithm {
        match self {
            VerifyAlg::Qr => Algorithm::Qr,
            VerifyAlg::Lu => Algorithm::Lu,
        }
    }
}

/// Aggregated outcome of one silent-corruption campaign.
#[derive(Clone, Copy, Debug)]
pub struct VerifyOutcome {
    /// Problems in the campaign batch.
    pub problems: usize,
    /// Silent flips the simulator actually fired (ground truth; these are
    /// *not* in `LaunchStats::faults`, so recovery alone cannot see them).
    pub injected: usize,
    /// Injected flips whose block carries at least one `VerifyFailed`.
    pub detected: usize,
    /// `detected / injected` (1.0 when nothing fired).
    pub detection_rate: f64,
    /// `VerifyFailed` problems outside every faulted block, plus any
    /// flagged problem in the clean sweep.
    pub false_positives: usize,
    /// What the recovery layer did in the gated-recovery leg (the other
    /// legs only check detection, transparency and reproducibility).
    pub recovery: RecoveryStats,
    /// Clean sweep produced bit-identical outputs with verify off and on.
    pub clean_bit_identical: bool,
    /// The verified faulted leg reran bit-identically (same seed).
    pub reproducible: bool,
    /// Measured host wall-clock of the screens over the clean sweep,
    /// milliseconds (best-of-3 delta between verified and unverified).
    pub measured_screen_ms: f64,
    /// Model-predicted screen cost for the same sweep, milliseconds.
    pub predicted_screen_ms: f64,
}

fn bits(b: &MatBatch<f32>) -> Vec<u32> {
    b.data().iter().map(|v| v.to_bits()).collect()
}

/// Run one seeded silent-corruption campaign: factor `count` n x n
/// problems under a `faults`-block `SilentFlip` plan and screen the
/// results with `VerifyMode::Full`.
pub fn run_verify_campaign(
    alg: VerifyAlg,
    approach: Approach,
    n: usize,
    count: usize,
    faults: usize,
    seed: u64,
) -> VerifyOutcome {
    let session = Session::new();
    let a = f32_batch(n, n, count, true, seed ^ 0xA5A5);
    let plan = FaultPlan::new(seed, faults).kind(FaultKind::SilentFlip);
    let once = |o: &RunOpts| {
        session
            .run_with(alg.op(), &a, None, o)
            .expect("valid campaign batch")
            .run
    };

    // Leg 1: raw detection — verification on, recovery off, so the
    // statuses are exactly what the screens said.
    let raw_opts = RunOpts::builder()
        .approach(approach)
        .fault(plan)
        .verify(VerifyMode::Full)
        .recovery(RecoveryPolicy::off())
        .build()
        .unwrap();
    let raw = once(&raw_opts);

    // Ground truth: which problems could each silent flip have tainted.
    // Per-thread blocks carry 64 problems; per-block and tiled carry one.
    let ppb = if approach == Approach::PerThread { 64 } else { 1 };
    let silent: Vec<usize> = raw
        .stats
        .launches
        .iter()
        .flat_map(|l| l.silent_faults.iter())
        .map(|f| f.block)
        .collect();
    let injected = silent.len();
    let problems_of =
        |block: usize| block * ppb..((block + 1) * ppb).min(count);
    let flagged_at = |p: usize| matches!(raw.status[p], ProblemStatus::VerifyFailed { .. });
    let detected = silent
        .iter()
        .filter(|&&b| problems_of(b).any(flagged_at))
        .count();
    let mut tainted = vec![false; count];
    for &b in &silent {
        for p in problems_of(b) {
            tainted[p] = true;
        }
    }
    let mut false_positives = (0..count).filter(|&p| flagged_at(p) && !tainted[p]).count();

    // Leg 2: verification-gated recovery — the default bounded policy
    // re-runs flagged problems because `VerifyFailed` is not settled.
    let gated_opts = RunOpts::builder()
        .approach(approach)
        .fault(plan)
        .verify(VerifyMode::Full)
        .build()
        .unwrap();
    let gated = once(&gated_opts);

    // Leg 4 (cheap, reuse leg 2): bit-identical rerun under the same seed.
    let rerun = once(&gated_opts);
    let reproducible = bits(&gated.out) == bits(&rerun.out)
        && gated.status == rerun.status
        && gated.recovery == rerun.recovery;

    // Leg 3: clean sweep — screens must be strictly observational and
    // silent on clean data. Timed (best of 3, to sit under host noise)
    // for the measured screen-cost column.
    let clean = |mode: VerifyMode| {
        let o = RunOpts::builder()
            .approach(approach)
            .verify(mode)
            .build()
            .unwrap();
        let mut best = f64::INFINITY;
        let mut run = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = once(&o);
            best = best.min(t0.elapsed().as_secs_f64());
            run = Some(r);
        }
        (run.unwrap(), best)
    };
    let (off_run, off_s) = clean(VerifyMode::Off);
    let (on_run, on_s) = clean(VerifyMode::Full);
    let clean_bit_identical = bits(&off_run.out) == bits(&on_run.out);
    false_positives += on_run
        .status
        .iter()
        .filter(|s| matches!(s, ProblemStatus::VerifyFailed { .. }))
        .count();
    let measured_screen_ms = (on_s - off_s).max(0.0) * 1e3;
    let predicted_screen_ms =
        regla_model::verify_seconds(alg.model(), n, n, 0, count, VerifyMode::Full) * 1e3;

    VerifyOutcome {
        problems: count,
        injected,
        detected,
        detection_rate: if injected == 0 {
            1.0
        } else {
            detected as f64 / injected as f64
        },
        false_positives,
        recovery: gated.recovery,
        clean_bit_identical,
        reproducible,
        measured_screen_ms,
        predicted_screen_ms,
    }
}

/// The `verify` row of one campaign outcome.
pub fn outcome_row(alg: VerifyAlg, approach: Approach, n: usize, o: &VerifyOutcome) -> Row {
    let alg = match alg {
        VerifyAlg::Qr => "Householder QR",
        VerifyAlg::Lu => "LU",
    };
    vec![
        ("alg", alg.into()),
        ("shape", format!("{n}x{n}").into()),
        ("approach", format!("{approach:?}").into()),
        ("problems", o.problems.into()),
        ("injected", o.injected.into()),
        ("detected", o.detected.into()),
        ("detection_rate", Val::Num(o.detection_rate, 4)),
        ("false_positives", o.false_positives.into()),
        ("recovered", o.recovery.verify_recovered.into()),
        ("bit_identical", (o.clean_bit_identical && o.reproducible).into()),
        ("measured_screen_ms", Val::Num(o.measured_screen_ms, 3)),
        ("predicted_screen_ms", Val::Num(o.predicted_screen_ms, 3)),
    ]
}

/// Run every campaign case at harness scale (shared by the report and
/// the `verify_campaign` acceptance binary), handing each case's `verify`
/// row and gated-leg recovery to `c`.
pub fn verify_cases(fast: bool, c: &mut Collector) -> Vec<(&'static str, VerifyOutcome)> {
    let (count, faults) = if fast { (512, 32) } else { (4096, 64) };
    [
        ("QR 8x8 per-thread", VerifyAlg::Qr, Approach::PerThread, 8),
        ("QR 24x24 per-block", VerifyAlg::Qr, Approach::PerBlock, 24),
        ("LU 8x8 per-thread", VerifyAlg::Lu, Approach::PerThread, 8),
        ("LU 24x24 per-block", VerifyAlg::Lu, Approach::PerBlock, 24),
    ]
    .into_iter()
    .map(|(name, alg, approach, n)| {
        let o = run_verify_campaign(alg, approach, n, count, faults, 0x51_1E_47);
        c.add_recovery(&o.recovery);
        c.add(Section::Verify, [outcome_row(alg, approach, n, &o)]);
        (name, o)
    })
    .collect()
}

/// The verification table: silent-corruption detection, gated recovery,
/// clean-sweep transparency, and screen overhead, per (alg, shape).
pub fn verify_campaign(fast: bool, c: &mut Collector) -> String {
    let cases = verify_cases(fast, c);
    let count = cases.first().map_or(0, |(_, o)| o.problems);
    let mut t = Table::new(
        format!(
            "Verification — silent-corruption campaigns ({count} problems, \
             ABFT checksums + residual screens, verification-gated recovery)"
        ),
        &[
            "campaign",
            "injected",
            "detected",
            "rate",
            "false pos",
            "flagged",
            "recovered",
            "unrecovered",
            "clean bit-id",
            "reproducible",
            "screen ms (meas/pred)",
        ],
    );
    for (name, o) in cases {
        let rec = &o.recovery;
        t.row(&[
            name.to_string(),
            o.injected.to_string(),
            o.detected.to_string(),
            format!("{:.1}%", o.detection_rate * 100.0),
            o.false_positives.to_string(),
            rec.verify_failures.to_string(),
            rec.verify_recovered.to_string(),
            rec.unrecovered.to_string(),
            if o.clean_bit_identical { "yes" } else { "NO" }.to_string(),
            if o.reproducible { "yes" } else { "NO" }.to_string(),
            format!("{:.2} / {:.2}", o.measured_screen_ms, o.predicted_screen_ms),
        ]);
    }
    t.note(
        "Silent flips are invisible to the simulated ECC/machine-check \
         (they land in `LaunchStats::silent_faults`, which recovery never \
         reads), so only the checksum/residual screens can catch them. \
         `VerifyFailed` is not a settled verdict: the ordinary bounded \
         recovery re-runs flagged problems, and the clean re-run passes \
         the same screens. Per-thread blocks carry 64 problems, so one \
         flip can taint any of its block's 64 problems. The screen-cost \
         pair is measured host wall-clock (best of 3) vs the model's \
         `verify_seconds` prediction, both in milliseconds for the whole \
         sweep.",
    );
    t.render()
}
