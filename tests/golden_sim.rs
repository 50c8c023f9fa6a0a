//! Simulated results stay bit-identical to `results/golden_sim.txt`.
//!
//! The file holds one line per case of `regla_bench::golden`'s table:
//! hashes of the outputs and taus of the executed problems, of the full
//! status vector, and of every launch's cycles and phase records. This
//! test recomputes every case and names each one whose line differs. A
//! change that moves simulated results on purpose regenerates the file
//! with `cargo run --release -p regla-bench --bin golden_sim` and lists
//! the changed lines.

use regla::core::{MatBatch, Op, RecoveryPolicy, RunOpts, Session};
use regla::gpu_sim::ExecMode;
use regla::model::Approach;
use regla_bench::golden;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("../results/golden_sim.txt");

/// Case name -> whole line.
fn by_case(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .skip(1)
        .map(|l| {
            let name = l.split_whitespace().nth(1).unwrap_or_default().to_string();
            (name, l.to_string())
        })
        .collect()
}

/// Both replay paths render the file: one host thread claims every unit
/// alone through the exclusive borrow of device memory (with the
/// disjoint-write checker off), two and three claim every multi-unit
/// launch's units through the worker pool. Three is more participants
/// than a two-core host has cores. Every case runs on a fresh session: a
/// cold schedule cache and a new, zeroed device memory.
#[test]
fn simulated_results_match_the_golden_file() {
    for threads in [1, 2, 3] {
        assert_renders_golden(threads, Session::new);
    }
}

/// A session's device-memory pool hands every call an earlier call's
/// memory, whose words outside what the call stages are stale. Poison it
/// with a `Full` call on NaN and huge values, larger than any golden
/// case's device memory, and every case must still render its line: no
/// executed block reads a word its call neither staged nor wrote.
#[test]
fn golden_file_renders_on_a_poisoned_memory_pool() {
    let session = Session::new();
    let garbage = [
        f32::NAN,
        f32::MAX,
        -f32::INFINITY,
        -3.0e38,
        f32::INFINITY,
        1.0e30,
    ];
    let poison = MatBatch::from_fn(8, 8, 4096, |k, i, j| {
        garbage[(k + i * 7 + j) % garbage.len()]
    });
    let opts = RunOpts::builder()
        .approach(Approach::PerThread)
        .exec(ExecMode::Full)
        .recovery(RecoveryPolicy::off())
        .build()
        .unwrap();
    let run = session.run_with(Op::Qr, &poison, None, &opts).unwrap().run;
    assert!(
        run.status.iter().all(|s| !s.is_settled()),
        "the poison computes nothing"
    );
    for threads in [1, 2, 3] {
        assert_renders_golden(threads, || session.clone());
    }
    assert_eq!(
        session.gpu().memories_allocated(),
        1,
        "every golden case must run on the poisoned memory"
    );
}

/// Render every golden case on a session from `session` at `threads`
/// replay threads and name each line that differs from the file.
fn assert_renders_golden(threads: usize, session: impl FnMut() -> Session) {
    assert_eq!(GOLDEN.lines().next(), Some(golden::HEADER));
    let want = by_case(GOLDEN);
    let got = by_case(&golden::render(threads, session));
    let mut diffs = Vec::new();
    for (name, line) in &got {
        match want.get(name) {
            Some(w) if w == line => {}
            Some(w) => diffs.push(format!(
                "  changed at {threads} thread(s): {w}\n                      to: {line}"
            )),
            None => diffs.push(format!("  new case at {threads} thread(s): {line}")),
        }
    }
    for name in want.keys().filter(|n| !got.contains_key(*n)) {
        diffs.push(format!("  missing case at {threads} thread(s): {name}"));
    }
    assert!(
        diffs.is_empty(),
        "{} golden case(s) differ from results/golden_sim.txt:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
