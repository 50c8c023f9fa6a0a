//! `regla-perfbench --workload <sweep|batch|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the environment, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. A traced run also
//! writes its Chrome trace under `perfbench/out/`. Exits nonzero when a call
//! fails or an output disagrees with the host reference.

use regla_perfbench::{measure, result_json, Scale, Settings, Workload};
use std::process::ExitCode;

/// Seed used when `--seed` is not given. Seed 20120521 is held out:
/// confirm a claimed change on it, since the benchmark was not tuned on it.
const DEFAULT_SEED: u64 = 1;

/// Simulator knobs that would change what is measured.
const REFUSED_ENV: [&str; 5] = [
    "REGLA_SIM_SLOW",
    "REGLA_SCHED_CACHE",
    "REGLA_SIM_THREADS",
    "REGLA_SIM_CHECK",
    "REGLA_FAST",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&val).ok_or_else(|| bad(&"expected sweep, batch or serve"))?,
                )
            }
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = val.parse().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad(&"expected 0..=3600"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("regla-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(v) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "regla-perfbench: refusing to run with {v} set; unset it to measure the default build"
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "regla-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} host_threads={nproc} profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let settings = Settings {
        workload: args.workload,
        seed: args.seed,
        host_threads: nproc,
        scale: Scale::Full,
    };
    let out = measure(&settings, args.seconds, args.trace);
    let walls: Vec<String> = out.pass_wall_s.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "pass_wall_s=[{}] worst_relative_diff={:.3e} tolerance={:.0e}",
        walls.join(","),
        out.worst_diff,
        regla_perfbench::check::TOL
    );
    if let Some(doc) = &out.trace_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.json", args.workload.name(), args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!(
                "trace written to perfbench/out/trace-{}-{}.json",
                args.workload.name(),
                args.seed
            ),
            Err(e) => eprintln!("regla-perfbench: could not write {path}: {e}"),
        }
    }
    println!("{}", result_json(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
