//! Acceptance gate for the model-driven autotuner: (1) the tuned plan for
//! every fig10-design-space key must sit within 5% regret of the
//! exhaustive-search winner in simulated cycles; (2) decision-table
//! dispatch must be numerically transparent — a table of heuristic plans,
//! serialized and re-loaded, dispatches bit-identically to
//! `Planner::Heuristic`, and tuned entries that keep the heuristic's
//! execution shape reproduce its outputs bit for bit (entries that change
//! the shape must still solve every problem cleanly); (3) a `tune`
//! section lands in `results/BENCH_sim.json` and the emitted table in
//! `results/decision_table.txt`. Exits non-zero on any violation
//! (`REGLA_FAST=1` shrinks the sweep).

use regla_bench::bench_telemetry::{Collector, Section};
use regla_bench::experiments::tune::{autotune_artifacts, fig10_keys, same_execution, TuneRow};
use regla_bench::workloads::f32_batch;
use regla_core::{MatBatch, Op, Planner, ProblemStatus, RunOpts, Session};
use regla_model::{heuristic_plan, Algorithm, DecisionTable, PlanKey, TableEntry};
use std::sync::Arc;
use std::time::Instant;

fn bits(b: &MatBatch<f32>) -> Vec<u32> {
    b.data().iter().map(|v| v.to_bits()).collect()
}

/// Everything a dispatch produced, as exact bits.
#[derive(PartialEq)]
struct Fingerprint {
    out: Vec<u32>,
    solution: Option<Vec<u32>>,
    status: Vec<ProblemStatus>,
}

/// Run the op behind `key` on a deterministic probe batch under `planner`.
fn fingerprint(session: &Session, key: &PlanKey, planner: Planner) -> Option<Fingerprint> {
    let count = key.batch();
    let (op, rhs) = match key.alg {
        Algorithm::GaussJordan => (Op::GjSolve, true),
        Algorithm::Lu => (Op::Lu, false),
        Algorithm::Qr => (Op::Qr, false),
        Algorithm::LeastSquares => (Op::LeastSquares, true),
        Algorithm::QrSolve => (Op::QrSolve, true),
        Algorithm::Cholesky => (Op::Cholesky, false),
    };
    let a = f32_batch(key.m, key.n, count, true, 0x7E57 + key.m as u64);
    let b = rhs.then(|| f32_batch(key.m, key.rhs.max(1), count, false, 0x7E58 + key.n as u64));
    let opts = RunOpts::builder().planner(planner).build().expect("valid opts");
    let o = session.run_with(op, &a, b.as_ref(), &opts).ok()?;
    Some(Fingerprint {
        out: bits(&o.run.out),
        solution: o.solution.as_ref().map(bits),
        status: o.run.status,
    })
}

fn main() {
    let fast = regla_bench::fast_mode();
    let mut telemetry = Collector::new();
    let t0 = Instant::now();
    let mut failures = 0;

    // -- run the sweep: tuned vs exhaustive vs heuristic -----------------
    let (report, rows, table) = autotune_artifacts(fast);
    println!("{report}");
    if rows.is_empty() {
        failures += 1;
        println!("FAIL autotune produced no rows");
    }

    // -- gate 1: regret <= 5% vs exhaustive on every key -----------------
    for r in rows.iter().filter(|r| r.regret_pct > 5.0) {
        failures += 1;
        println!(
            "FAIL {} {}: tuned plan {} has {:.2}% regret vs exhaustive {} (> 5%)",
            r.alg, r.shape, r.tuned, r.regret_pct, r.best
        );
    }
    if failures == 0 {
        let max = rows.iter().map(|r| r.regret_pct).fold(0.0f64, f64::max);
        println!("ok   regret: {} keys, max {:.2}% (<= 5%)", rows.len(), max);
    }

    // -- artifact + round-trip: serialize -> load -> identical decisions -
    std::fs::create_dir_all("results").expect("create results dir");
    let text = table.to_text();
    std::fs::write("results/decision_table.txt", &text).expect("write decision table");
    let reloaded = match DecisionTable::from_text(&text) {
        Ok(t) if t == table => t,
        Ok(_) => {
            failures += 1;
            println!("FAIL decision table did not round-trip bit-exactly");
            table.clone()
        }
        Err(e) => {
            failures += 1;
            println!("FAIL emitted decision table failed to re-parse: {e}");
            table.clone()
        }
    };

    // -- gate 2: table dispatch is numerically transparent ---------------
    let session = Session::new();
    let keys = fig10_keys(fast);

    // A serialized-and-reloaded table of *heuristic* plans must dispatch
    // bit-identically to Planner::Heuristic on every key.
    let mut htab = DecisionTable::new("heuristic-roundtrip");
    for k in &keys {
        htab.insert(
            *k,
            TableEntry {
                plan: heuristic_plan(k),
                predicted_cycles: 0.0,
                simulated_cycles: None,
            },
        );
    }
    let htab = DecisionTable::from_text(&htab.to_text()).expect("heuristic table parses");
    let htab = Arc::new(htab);
    for k in &keys {
        let h = fingerprint(&session, k, Planner::Heuristic);
        let t = fingerprint(&session, k, Planner::Table(htab.clone()));
        if h != t {
            failures += 1;
            println!(
                "FAIL {:?} {}x{}: heuristic-table dispatch is not bit-identical \
                 to heuristic dispatch",
                k.alg, k.m, k.n
            );
        }
    }
    println!("ok   transparency: heuristic-entry table dispatches bit-identically");

    // The *tuned* table: entries that keep the heuristic's execution shape
    // must reproduce its outputs bit for bit; entries that change it must
    // still solve every probe problem cleanly.
    let tuned = Arc::new(reloaded);
    let (mut kept, mut changed) = (0usize, 0usize);
    for k in &keys {
        let Some(entry) = tuned.lookup(k).copied() else { continue };
        let t = fingerprint(&session, k, Planner::Table(tuned.clone()));
        if same_execution(k, &entry.plan, &heuristic_plan(k)) {
            kept += 1;
            if t != fingerprint(&session, k, Planner::Heuristic) {
                failures += 1;
                println!(
                    "FAIL {:?} {}x{}: tuned entry keeps the heuristic execution \
                     shape but outputs differ",
                    k.alg, k.m, k.n
                );
            }
        } else {
            changed += 1;
            match &t {
                Some(fp) if fp.status.iter().all(|s| s.is_ok()) => {}
                _ => {
                    failures += 1;
                    println!(
                        "FAIL {:?} {}x{}: tuned entry changed the execution shape \
                         and the probe did not solve cleanly",
                        k.alg, k.m, k.n
                    );
                }
            }
        }
    }
    println!(
        "ok   tuned table: {kept} entries keep the heuristic shape (bit-identical), \
         {changed} re-plan it (verified clean)"
    );

    // -- gate 3: the tune section lands in BENCH_sim.json ----------------
    telemetry.add(Section::Tune, rows.iter().map(TuneRow::row));
    telemetry.record("autotune", t0.elapsed().as_secs_f64());
    telemetry
        .write("results/BENCH_sim.json")
        .expect("write BENCH_sim.json");
    let json = std::fs::read_to_string("results/BENCH_sim.json").expect("read back");
    if !json.contains("\"tune\": [") || !json.contains("\"regret_pct\"") {
        failures += 1;
        println!("FAIL tune section missing from results/BENCH_sim.json");
    }

    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "autotune passed: decision table in results/decision_table.txt, \
         regret telemetry in results/BENCH_sim.json"
    );
}
