//! Regenerates every table and figure into `results/` (markdown + CSV),
//! plus `results/BENCH_sim.json` with per-experiment simulator wall-clock.
//!
//! `--quick` shrinks every experiment to its fast configuration (smaller
//! batches and sweeps; the sampled-execution figures replay even fewer
//! blocks) — same tables, lower fidelity. `--only <id>[,<id>…]` runs just
//! the named experiments (the ids of `regla_bench::experiments::ALL`);
//! `BENCH_sim.json` then holds only their records, and the
//! `results/README.md` index is left as it was. Any other argument, or an
//! unknown id, exits with status 2 and lists the valid ids.
use regla_bench::bench_telemetry::Collector;
use regla_bench::experiments::{Runner, ALL};
use std::fs;
use std::time::Instant;

type Experiment = (&'static str, &'static str, Runner);

/// Extract the data rows of a rendered markdown table as CSV.
fn md_to_csv(report: &str) -> String {
    let mut out = String::new();
    for line in report.lines() {
        let l = line.trim();
        if !l.starts_with('|') || l.starts_with("|-") || l.starts_with("| -") {
            continue;
        }
        if l.chars().all(|c| "|-: ".contains(c)) {
            continue; // separator row
        }
        let cells: Vec<String> = l
            .trim_matches('|')
            .split('|')
            .map(|c| {
                let c = c.trim();
                if c.contains(',') {
                    format!("\"{c}\"")
                } else {
                    c.to_string()
                }
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Parse the arguments into `--quick` and the selected experiments, in
/// `ALL`'s order (all of them unless `--only` names some).
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(bool, Vec<&'static Experiment>), String> {
    let mut quick = false;
    let mut only: Option<Vec<String>> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--only" => {
                let list = args
                    .next()
                    .ok_or("--only needs a comma-separated list of ids")?;
                for id in list.split(',') {
                    if !ALL.iter().any(|(known, ..)| *known == id) {
                        return Err(format!("unknown experiment id `{id}`"));
                    }
                    only.get_or_insert_with(Vec::new).push(id.to_string());
                }
            }
            _ => return Err(format!("unrecognised argument `{arg}`")),
        }
    }
    let selected = ALL
        .iter()
        .filter(|(id, ..)| only.as_ref().is_none_or(|ids| ids.iter().any(|o| o == id)))
        .collect();
    Ok((quick, selected))
}

fn main() {
    let (quick, selected) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        let ids: Vec<&str> = ALL.iter().map(|(id, ..)| *id).collect();
        eprintln!(
            "run_all: {e}\nusage: run_all [--quick] [--only <id>[,<id>...]]\n\
             valid ids: {}",
            ids.join(", ")
        );
        std::process::exit(2);
    });
    let fast = quick || regla_bench::fast_mode();
    fs::create_dir_all("results").expect("create results dir");
    let mut index = String::from("# regla experiment results\n\n");
    let mut telemetry = Collector::new();
    for (id, title, run) in &selected {
        let t0 = Instant::now();
        eprintln!("running {id} ...");
        let report = run(fast, &mut telemetry);
        let secs = t0.elapsed().as_secs_f64();
        fs::write(format!("results/{id}.md"), &report).expect("write report");
        fs::write(format!("results/{id}.csv"), md_to_csv(&report)).expect("write csv");
        println!("{report}");
        let rec = telemetry.record(id, secs);
        eprintln!("  {}", Collector::summary_line(rec));
        index.push_str(&format!("- [{title}]({id}.md) ({secs:.1}s)\n"));
    }
    if selected.len() == ALL.len() {
        fs::write("results/README.md", index).expect("write index");
    }
    telemetry
        .write("results/BENCH_sim.json")
        .expect("write BENCH_sim.json");
    // Mirror the per-experiment summary to the repo root so CI jobs (and
    // humans) can diff it without digging into results/.
    telemetry
        .write("BENCH_sim.json")
        .expect("write root BENCH_sim.json");
    eprintln!(
        "experiments written to results/ (markdown + CSV); simulator \
         wall-clock telemetry in results/BENCH_sim.json (mirrored to \
         ./BENCH_sim.json)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(bool, Vec<&'static str>), String> {
        let (quick, selected) = parse_args(args.iter().map(|a| a.to_string()))?;
        Ok((quick, selected.iter().map(|(id, ..)| *id).collect()))
    }

    #[test]
    fn no_arguments_select_every_experiment() {
        let all: Vec<&str> = ALL.iter().map(|(id, ..)| *id).collect();
        assert_eq!(parse(&[]), Ok((false, all.clone())));
        assert_eq!(parse(&["--quick"]), Ok((true, all)));
    }

    #[test]
    fn only_selects_exactly_the_named_experiments() {
        assert_eq!(
            parse(&["--only", "pipeline,fig9_per_block", "-q"]),
            Ok((true, vec!["fig9_per_block", "pipeline"]))
        );
        assert_eq!(
            parse(&["--only", "model_discrepancy"]),
            Ok((false, vec!["model_discrepancy"]))
        );
    }

    #[test]
    fn unknown_ids_and_arguments_are_errors() {
        for args in [
            &["--only", "fig9_per_blok"][..],
            &["--only", "pipeline,"],
            &["--only"],
            &["--quik"],
            &["pipeline"],
        ] {
            assert!(parse(args).is_err(), "{args:?} parsed");
        }
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = ALL.iter().map(|(id, ..)| *id).collect();
        ids.sort_unstable();
        let len = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), len, "a duplicated experiment id");
    }
}
