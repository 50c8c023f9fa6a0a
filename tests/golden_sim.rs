//! Simulated results stay bit-identical to `results/golden_sim.txt`.
//!
//! The file holds one line per case of `regla_bench::golden`'s table:
//! hashes of the outputs and taus of the executed problems, of the full
//! status vector, and of every launch's cycles and phase records. This
//! test recomputes every case and names each one whose line differs. A
//! change that moves simulated results on purpose regenerates the file
//! with `cargo run --release -p regla-bench --bin golden_sim` and lists
//! the changed lines.

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

/// Both replay paths render the file: one host thread replays
/// single-shard launches through the exclusive borrow of device memory
/// (with the disjoint-write checker off), two replay every multi-unit
/// launch through the worker pool.
#[test]
fn simulated_results_match_the_golden_file() {
    assert_eq!(GOLDEN.lines().next(), Some(golden::HEADER));
    let want = by_case(GOLDEN);
    let mut diffs = Vec::new();
    for threads in [1, 2] {
        let got = by_case(&golden::render(threads));
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
    }
    assert!(
        diffs.is_empty(),
        "{} golden case(s) differ from results/golden_sim.txt:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
