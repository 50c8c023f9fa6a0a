//! Per-experiment telemetry for the benchmark harness, written as
//! `results/BENCH_sim.json` so regressions in *simulator* speed — as
//! opposed to simulated GPU time — are visible across commits.
//!
//! A [`Collector`] belongs to one harness run (`run_all` or a campaign
//! binary). Experiments hand it their rows ([`Collector::add`]) and the
//! [`RecoveryStats`] of the runs their tables report
//! ([`Collector::add_recovery`]); [`Collector::record`] closes one
//! experiment, draining the simulator's process-wide launch counters
//! (`regla_gpu_sim::telemetry`) and the recovery handed in since the
//! previous record. One writer renders every section from each row's key
//! list. JSON is hand-rolled: the workspace has no serde, and the schema
//! is flat.

use regla_core::RecoveryStats;
use regla_gpu_sim::{telemetry, SimTelemetry};
use std::fmt;

/// One JSON value of a BENCH row, with the number format of its key.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    Str(String),
    Int(u64),
    /// A float written with this many decimals (`null` when not finite).
    Num(f64, usize),
    Bool(bool),
}

impl From<&str> for Val {
    fn from(s: &str) -> Self {
        Val::Str(s.to_string())
    }
}

impl From<String> for Val {
    fn from(s: String) -> Self {
        Val::Str(s)
    }
}

impl From<usize> for Val {
    fn from(v: usize) -> Self {
        Val::Int(v as u64)
    }
}

impl From<u64> for Val {
    fn from(v: u64) -> Self {
        Val::Int(v)
    }
}

impl From<bool> for Val {
    fn from(v: bool) -> Self {
        Val::Bool(v)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Str(s) => write!(f, "\"{}\"", escape(s)),
            Val::Int(v) => write!(f, "{v}"),
            Val::Num(v, decimals) if v.is_finite() => write!(f, "{v:.decimals$}"),
            Val::Num(..) => f.write_str("null"),
            Val::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One BENCH row: `(key, value)` pairs in output order.
pub type Row = Vec<(&'static str, Val)>;

/// The row sections of `BENCH_sim.json` that follow `experiments`, in
/// output order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    ModelDiscrepancy,
    Pipeline,
    SimThroughput,
    Fleet,
    Serve,
    Tune,
    Verify,
}

impl Section {
    pub const ALL: [Section; 7] = [
        Section::ModelDiscrepancy,
        Section::Pipeline,
        Section::SimThroughput,
        Section::Fleet,
        Section::Serve,
        Section::Tune,
        Section::Verify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Section::ModelDiscrepancy => "model_discrepancy",
            Section::Pipeline => "pipeline",
            Section::SimThroughput => "sim_throughput",
            Section::Fleet => "fleet",
            Section::Serve => "serve",
            Section::Tune => "tune",
            Section::Verify => "verify",
        }
    }
}

/// One experiment's host-side cost.
#[derive(Clone, Debug)]
pub struct ExperimentTelemetry {
    pub id: String,
    /// Wall-clock of the whole experiment (including CPU baselines etc.).
    pub wall_s: f64,
    /// The simulator's share: launches, functional blocks, wall time,
    /// replay thread counts, injected faults.
    pub sim: SimTelemetry,
    /// What the recovery layer did in the runs the experiment reports.
    pub recovery: RecoveryStats,
}

impl ExperimentTelemetry {
    /// The `experiments` row: every simulator column, then only the
    /// recovery counters that are non-zero.
    fn row(&self) -> Row {
        let sim = &self.sim;
        let mut row: Row = vec![
            ("id", self.id.as_str().into()),
            ("wall_s", Val::Num(self.wall_s, 6)),
            ("sim_wall_s", Val::Num(sim.wall_s, 6)),
            // Wall minus the simulator's share, clamped at zero.
            ("harness_overhead_s", Val::Num((self.wall_s - sim.wall_s).max(0.0), 6)),
            ("launches", sim.launches.into()),
            ("functional_blocks", sim.functional_blocks.into()),
            ("blocks_per_sec", Val::Num(sim.blocks_per_sec(), 1)),
            ("host_threads", sim.max_host_threads.max(1).into()),
            ("faults_injected", sim.faults_injected.into()),
        ];
        row.extend(
            self.recovery
                .counters()
                .into_iter()
                .filter(|&(_, v)| v > 0)
                .map(|(k, v)| (k, Val::Int(v))),
        );
        row
    }
}

/// Collects per-experiment telemetry and section rows for one harness
/// run.
#[derive(Default)]
pub struct Collector {
    records: Vec<ExperimentTelemetry>,
    /// Recovery handed in since the last [`Collector::record`].
    recovery: RecoveryStats,
    rows: Vec<(Section, Row)>,
}

impl Collector {
    /// Start collecting; resets the simulator's counters so the first
    /// experiment doesn't inherit earlier launches.
    pub fn new() -> Self {
        telemetry::take();
        Collector::default()
    }

    /// Count the recovery of a run the current experiment reports.
    pub fn add_recovery(&mut self, s: &RecoveryStats) {
        self.recovery.merge(s);
    }

    /// Append rows to `section`.
    pub fn add(&mut self, section: Section, rows: impl IntoIterator<Item = Row>) {
        self.rows.extend(rows.into_iter().map(|r| (section, r)));
    }

    /// Close out one experiment: drain the simulator counters and the
    /// recovery handed in since the previous call, and file them under
    /// `id`.
    pub fn record(&mut self, id: &str, wall_s: f64) -> &ExperimentTelemetry {
        self.records.push(ExperimentTelemetry {
            id: id.to_string(),
            wall_s,
            sim: telemetry::take(),
            recovery: std::mem::take(&mut self.recovery),
        });
        self.records.last().expect("a record was just pushed")
    }

    /// One-line human summary of an experiment's simulator cost.
    pub fn summary_line(r: &ExperimentTelemetry) -> String {
        let mut line = format!(
            "{}: {:.2}s wall ({:.2}s in simulator, {} launches, {} blocks \
             replayed at {:.0} blocks/s, {} host thread(s))",
            r.id,
            r.wall_s,
            r.sim.wall_s,
            r.sim.launches,
            r.sim.functional_blocks,
            r.sim.blocks_per_sec(),
            r.sim.max_host_threads.max(1),
        );
        if r.sim.faults_injected > 0 || r.recovery.faults_detected > 0 {
            line.push_str(&format!(
                " [faults: {} injected, {} detected, {} retried, {} CPU \
                 fallback, {} unrecovered]",
                r.sim.faults_injected,
                r.recovery.faults_detected,
                r.recovery.retried,
                r.recovery.fell_back,
                r.recovery.unrecovered,
            ));
        }
        if r.recovery.verify_failures > 0 {
            line.push_str(&format!(
                " [verify: {} flagged, {} recovered]",
                r.recovery.verify_failures, r.recovery.verify_recovered,
            ));
        }
        line
    }

    /// Render the `experiments` records and every section (empty ones
    /// included) as a JSON document.
    pub fn to_json(&self) -> String {
        let experiments: Vec<Row> = self.records.iter().map(ExperimentTelemetry::row).collect();
        let mut sections = vec![render_section("experiments", experiments.iter())];
        for section in Section::ALL {
            let rows = self.rows.iter().filter(|(s, _)| *s == section);
            sections.push(render_section(section.name(), rows.map(|(_, r)| r)));
        }
        format!("{{\n{}\n}}\n", sections.join(",\n"))
    }

    /// Write the JSON document to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// One section: its name, then one row object per line.
fn render_section<'a>(name: &str, rows: impl Iterator<Item = &'a Row>) -> String {
    let rows: Vec<String> = rows
        .map(|row| {
            let fields: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    let mut body = rows.join(",\n");
    if !body.is_empty() {
        body.push('\n');
    }
    format!("  \"{name}\": [\n{body}  ]")
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_one_entry_per_experiment() {
        let mut c = Collector::new();
        c.add_recovery(&RecoveryStats {
            verify_failures: 3,
            ..RecoveryStats::default()
        });
        c.record("exp_a", 0.5);
        c.record("exp_b", 1.5);
        let j = c.to_json();
        assert!(j.contains("\"id\": \"exp_a\""));
        assert!(j.contains("\"id\": \"exp_b\""));
        assert!(j.contains("\"wall_s\": 1.500000"));
        assert!(j.contains("\"faults_injected\""));
        assert_eq!(j.matches("\"launches\"").count(), 2);
        // Recovery counters are sparse: the one filed non-zero counter
        // lands in its experiment's record only, and zero counters are
        // left out.
        assert_eq!(j.matches("\"verify_failures\": 3").count(), 1);
        assert!(!j.contains("\"unrecovered\""));
        assert!(!j.contains("\"device_failovers\""));
        // Exactly one trailing comma between the two entries.
        assert_eq!(j.matches("},\n").count(), 1);
        // Every section is present even when no rows are filed.
        for s in Section::ALL {
            assert!(j.contains(&format!("\"{}\": [\n  ]", s.name())), "{}", s.name());
        }
        // Harness overhead = wall minus simulator share, clamped at zero.
        assert!(j.contains("\"harness_overhead_s\": 0.500000"));
        assert!(j.contains("\"harness_overhead_s\": 1.500000"));
    }

    #[test]
    fn rows_render_in_their_section_with_their_formats() {
        let mut c = Collector::new();
        c.record("serve_load", 0.3);
        let row = |p99: f64| -> Row {
            vec![
                ("scenario", "coalesced".into()),
                ("offered", 400usize.into()),
                ("p99_ms", Val::Num(p99, 4)),
                ("bit_identical", true.into()),
            ]
        };
        c.add(Section::Serve, [row(4.5), row(f64::NAN)]);
        let j = c.to_json();
        assert!(j.contains(
            "  \"serve\": [\n    {\"scenario\": \"coalesced\", \"offered\": 400, \
             \"p99_ms\": 4.5000, \"bit_identical\": true},\n"
        ));
        // A non-finite float stays valid JSON.
        assert!(j.contains("\"p99_ms\": null"));
        assert!(j.contains("\"tune\": [\n  ]"));
    }

    #[test]
    fn experiment_rows_keep_their_keys_and_formats() {
        use crate::experiments::{
            chaos::{fleet_rows, ChaosOutcome},
            discrepancy::discrepancy_row,
            serve::serve_row,
            throughput::ThroughputRow,
            verify::{outcome_row, VerifyAlg, VerifyOutcome},
        };
        use regla_core::{DeviceReport, FleetReport};
        use regla_model::Approach;

        let mut c = Collector::new();
        let throughput = ThroughputRow {
            workload: "fig10_pt".into(),
            op: "QrSolve".into(),
            shape: "32x32x6400".into(),
            sim_blocks: 100,
            fast_sim_s: 0.05,
            slow_sim_s: 1.0,
            fast_blocks_per_sec: 2000.0,
            slow_blocks_per_sec: 100.0,
            speedup: 20.0,
            bit_identical: true,
        };
        c.add(Section::SimThroughput, [throughput.row()]);
        let chaos = ChaosOutcome {
            problems: 2053,
            devices_killed: 0,
            all_ok: true,
            reproducible: true,
            recovery: RecoveryStats {
                cpu_degraded: 5,
                ..RecoveryStats::default()
            },
            report: FleetReport {
                devices: vec![DeviceReport {
                    name: "quadro-6000".into(),
                    problems_run: 2048,
                    rescues: 2,
                    sim_time_s: 0.0123,
                    ..DeviceReport::default()
                }],
                chunks: 4,
                cpu_pool_chunks: 1,
            },
        };
        c.add(Section::Fleet, fleet_rows("QR 8x8", &chaos));
        let serve = regla_serve::ServeReport {
            coalescing: 9.95,
            p99_ms: 4.5,
            busy_problems_per_sec: 300000.0,
            device_dispatches: vec![("quadro".into(), 25), ("gt200".into(), 15)],
            ..Default::default()
        };
        c.add(Section::Serve, [serve_row("coalesced", &serve)]);
        let verify = VerifyOutcome {
            problems: 4096,
            injected: 64,
            detected: 64,
            detection_rate: 1.0,
            false_positives: 0,
            recovery: RecoveryStats {
                verify_failures: 64,
                verify_recovered: 64,
                ..RecoveryStats::default()
            },
            clean_bit_identical: true,
            reproducible: true,
            measured_screen_ms: 3.5,
            predicted_screen_ms: 2.75,
        };
        c.add(
            Section::Verify,
            [outcome_row(VerifyAlg::Qr, Approach::PerThread, 16, &verify)],
        );
        c.add(
            Section::ModelDiscrepancy,
            [discrepancy_row(
                "Householder QR",
                "56x56".into(),
                Approach::PerBlock,
                23,
                12.5,
                -3.25,
            )],
        );
        let j = c.to_json();
        for want in [
            "\"workload\": \"fig10_pt\"",
            "\"speedup\": 20.00",
            "\"device\": \"quadro-6000\"",
            "\"rescues\": 2",
            "\"sim_time_s\": 0.012300",
            "\"device\": \"cpu-pool\", \"planned_problems\": 0, \"chunks_run\": 1, \"problems_run\": 5",
            "\"breaker_state\": \"Closed\"",
            "\"scenario\": \"coalesced\"",
            "\"coalescing\": 9.95",
            "\"p99_ms\": 4.5000",
            "\"busy_problems_per_sec\": 300000.0",
            "\"device_dispatches\": \"quadro:25; gt200:15\"",
            "\"alg\": \"Householder QR\", \"shape\": \"16x16\"",
            "\"problems\": 4096",
            "\"detection_rate\": 1.0000",
            "\"false_positives\": 0",
            "\"recovered\": 64",
            "\"bit_identical\": true",
            "\"predicted_screen_ms\": 2.750",
            "{\"alg\": \"Householder QR\", \"shape\": \"56x56\", \"approach\": \"PerBlock\", \
             \"phases\": 23, \"mean_abs_error_pct\": 12.50, \"total_error_pct\": -3.25}",
        ] {
            assert!(j.contains(want), "{want} missing from {j}");
        }
    }

    #[test]
    fn escape_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn fault_counters_reach_the_summary_line() {
        let r = ExperimentTelemetry {
            id: "resilience".into(),
            wall_s: 1.0,
            sim: SimTelemetry {
                faults_injected: 5,
                ..SimTelemetry::default()
            },
            recovery: RecoveryStats {
                faults_detected: 5,
                retried: 5,
                fell_back: 1,
                recovered: 5,
                unrecovered: 0,
                ..RecoveryStats::default()
            },
        };
        let line = Collector::summary_line(&r);
        assert!(line.contains("5 injected"));
        assert!(line.contains("0 unrecovered"));
    }
}
