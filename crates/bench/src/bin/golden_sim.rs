//! Regenerate `results/golden_sim.txt` from the golden case table in
//! `regla_bench::golden`: one line per case with the hashes of its
//! executed outputs, its statuses and its launch timing. Run from the
//! repository root:
//!
//! `cargo run --release -p regla-bench --bin golden_sim`
//!
//! The root test `tests/golden_sim.rs` recomputes the same lines and
//! fails on any difference.

fn main() {
    let text = regla_bench::golden::render();
    let path = "results/golden_sim.txt";
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {} cases to {path}", text.lines().count() - 1);
}
