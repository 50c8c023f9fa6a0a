//! Per-launch hierarchical tracing: launch → wave → phase spans.
//!
//! The process-wide counters in [`crate::telemetry`] answer "how much did
//! the simulator cost this experiment"; they cannot say *where* a QR launch
//! spends its simulated cycles, nor where the analytic model diverges from
//! the simulation. This module records that structure per launch: a
//! [`Profiler`] attached to a [`crate::LaunchConfig`] collects one
//! [`LaunchTrace`] per launch, each holding the wave schedule and, per
//! wave, the phase spans with their binding constraint and memory counters
//! (bank-conflict replays, coalesced transactions, distinct DRAM line
//! bytes, spill traffic) taken from the traced block's
//! [`PhaseRecord`](crate::PhaseRecord)s.
//!
//! Everything recorded here is a pure function of *simulated* quantities —
//! cycles, counters, occupancy — never host wall-clock, so traces are
//! bit-identical across replay thread counts and across reruns.
//!
//! Two consumers are supported:
//!
//! * [`Profiler::chrome_trace_json`] renders the spans as a Chrome-trace
//!   JSON document loadable in `chrome://tracing` or Perfetto (one process
//!   per launch, one thread row per wave, complete "X" events per phase);
//! * `regla-core`'s `profile` module joins the phase spans against the
//!   analytic model's per-phase estimates to report predicted-vs-simulated
//!   cycle discrepancy.

use crate::config::GpuConfig;
use crate::timing::{phase_time, LaunchStats, PhaseBound};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Memory and work counters of one span (per-wave totals: the traced
/// block's per-block counters scaled by the blocks in the wave).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCounters {
    /// Thread-level FLOPs.
    pub flops: u64,
    /// Thread-level shared-memory accesses.
    pub shared_accesses: u64,
    /// Bank-conflict replays.
    pub conflict_replays: u64,
    /// Coalesced global-memory transactions.
    pub global_transactions: u64,
    /// Distinct DRAM lines touched, in bytes (true DRAM traffic).
    pub global_line_bytes: u64,
    /// DRAM traffic from register spills past the L1.
    pub spill_dram_bytes: u64,
}

impl SpanCounters {
    fn accumulate(&mut self, other: &SpanCounters) {
        self.flops += other.flops;
        self.shared_accesses += other.shared_accesses;
        self.conflict_replays += other.conflict_replays;
        self.global_transactions += other.global_transactions;
        self.global_line_bytes += other.global_line_bytes;
        self.spill_dram_bytes += other.spill_dram_bytes;
    }
}

/// One phase (sync-delimited section) of one wave: a leaf span.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    pub label: String,
    /// Start cycle relative to the launch start.
    pub start_cycle: f64,
    pub end_cycle: f64,
    /// What bound the phase's duration for this wave.
    pub bound: PhaseBound,
    pub counters: SpanCounters,
}

impl PhaseSpan {
    pub fn cycles(&self) -> f64 {
        self.end_cycle - self.start_cycle
    }
}

/// One wave of co-resident blocks sweeping through the kernel.
#[derive(Clone, Debug)]
pub struct WaveSpan {
    /// Wave index within the launch (0-based).
    pub index: usize,
    /// Blocks executing in this wave (the last wave may be partial).
    pub blocks: usize,
    pub start_cycle: f64,
    pub end_cycle: f64,
    pub phases: Vec<PhaseSpan>,
}

/// The root span of one kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchTrace {
    /// Kernel name from [`crate::LaunchConfig::name`].
    pub name: String,
    pub grid_blocks: usize,
    pub threads_per_block: usize,
    /// Blocks co-resident per SM (the occupancy result).
    pub blocks_per_sm: usize,
    /// Fraction of the SM's maximum resident threads occupied.
    pub occupancy_fraction: f64,
    pub regs_per_thread: usize,
    pub regs_spilled: usize,
    /// Start cycle on the profiler's launch timeline (launches recorded by
    /// one profiler are laid end to end).
    pub start_cycle: f64,
    /// Total launch duration in hot-clock cycles (matches
    /// [`LaunchStats::cycles`]).
    pub cycles: f64,
    pub clock_ghz: f64,
    pub waves: Vec<WaveSpan>,
}

impl LaunchTrace {
    /// Sum of all phase-span durations across every wave. Equals
    /// [`Self::cycles`] up to floating-point associativity.
    pub fn span_cycle_total(&self) -> f64 {
        self.waves
            .iter()
            .flat_map(|w| w.phases.iter())
            .map(|p| p.cycles())
            .sum()
    }

    /// Aggregate span cycles and counters by phase label (summed across
    /// waves), in first-appearance order.
    pub fn phase_totals(&self) -> Vec<(String, f64, SpanCounters)> {
        let mut order: Vec<String> = Vec::new();
        let mut cycles: Vec<f64> = Vec::new();
        let mut counters: Vec<SpanCounters> = Vec::new();
        for w in &self.waves {
            for p in &w.phases {
                match order.iter().position(|l| *l == p.label) {
                    Some(i) => {
                        cycles[i] += p.cycles();
                        counters[i].accumulate(&p.counters);
                    }
                    None => {
                        order.push(p.label.clone());
                        cycles.push(p.cycles());
                        counters.push(p.counters);
                    }
                }
            }
        }
        order
            .into_iter()
            .zip(cycles)
            .zip(counters)
            .map(|((l, c), k)| (l, c, k))
            .collect()
    }
}

/// Build the hierarchical trace of one launch from its combined statistics.
///
/// Full waves reuse the wave-level [`crate::timing::PhaseTime`]s already in
/// the stats; a trailing partial wave is re-derived for its actual block
/// count (fewer blocks can shift a phase from DRAM- to latency-bound).
pub(crate) fn build_trace(cfg: &GpuConfig, stats: &LaunchStats, name: &str) -> LaunchTrace {
    let blocks_per_wave = (stats.occupancy.blocks_per_sm * cfg.num_sms).max(1);
    let full_waves = stats.grid_blocks / blocks_per_wave;
    let rem = stats.grid_blocks % blocks_per_wave;

    let scale = |c: &crate::timing::PhaseRecord, blocks: usize| SpanCounters {
        flops: c.flops * blocks as u64,
        shared_accesses: c.shared_accesses * blocks as u64,
        conflict_replays: c.conflict_replays * blocks as u64,
        global_transactions: c.global_transactions * blocks as u64,
        global_line_bytes: c.global_line_bytes * blocks as u64,
        spill_dram_bytes: c.spill_dram_bytes * blocks as u64,
    };

    let mut waves = Vec::with_capacity(full_waves + usize::from(rem > 0));
    let mut cursor = 0.0f64;
    for w in 0..full_waves {
        let start = cursor;
        let mut phases = Vec::with_capacity(stats.phase_times.len());
        for (pt, pr) in stats.phase_times.iter().zip(&stats.phases) {
            phases.push(PhaseSpan {
                label: pt.label.clone(),
                start_cycle: cursor,
                end_cycle: cursor + pt.cycles,
                bound: pt.bound,
                counters: scale(pr, blocks_per_wave.min(stats.grid_blocks)),
            });
            cursor += pt.cycles;
        }
        waves.push(WaveSpan {
            index: w,
            blocks: blocks_per_wave.min(stats.grid_blocks),
            start_cycle: start,
            end_cycle: cursor,
            phases,
        });
    }
    if rem > 0 {
        let start = cursor;
        let mut phases = Vec::with_capacity(stats.phases.len());
        for pr in &stats.phases {
            let pt = phase_time(cfg, &stats.occupancy, pr, rem);
            phases.push(PhaseSpan {
                label: pt.label,
                start_cycle: cursor,
                end_cycle: cursor + pt.cycles,
                bound: pt.bound,
                counters: scale(pr, rem),
            });
            cursor += pt.cycles;
        }
        waves.push(WaveSpan {
            index: full_waves,
            blocks: rem,
            start_cycle: start,
            end_cycle: cursor,
            phases,
        });
    }

    LaunchTrace {
        name: name.to_string(),
        grid_blocks: stats.grid_blocks,
        threads_per_block: stats.threads_per_block,
        blocks_per_sm: stats.occupancy.blocks_per_sm,
        occupancy_fraction: stats.occupancy.occupancy_fraction(cfg),
        regs_per_thread: stats.occupancy.regs_allocated,
        regs_spilled: stats.occupancy.regs_spilled,
        start_cycle: 0.0,
        cycles: stats.cycles,
        clock_ghz: stats.clock_ghz,
        waves,
    }
}

/// A shared per-launch trace sink.
///
/// Cloning is cheap and shares the underlying buffer, so one profiler can
/// be handed to many [`crate::LaunchConfig`]s (every launch of a tiled
/// factorization, every launch of a batch API call) and drained once.
/// Attach with [`crate::LaunchConfig::trace`].
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    inner: Arc<Mutex<Vec<LaunchTrace>>>,
}

/// The role a [`Profiler`] plays on a launch config (alias for call sites
/// that prefer the sink-side name).
pub type TraceSink = Profiler;

impl Profiler {
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Append one launch's trace, placing it after every trace already
    /// recorded on this profiler's launch timeline.
    pub(crate) fn record(&self, mut trace: LaunchTrace) {
        let mut inner = self.inner.lock().unwrap();
        trace.start_cycle = inner.last().map_or(0.0, |t| t.start_cycle + t.cycles);
        inner.push(trace);
    }

    /// Number of launches recorded so far.
    pub fn launch_count(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Snapshot of every recorded launch trace (in launch order).
    pub fn launches(&self) -> Vec<LaunchTrace> {
        self.inner.lock().unwrap().clone()
    }

    /// Drain the recorded traces (subsequent launches start a new timeline).
    pub fn take(&self) -> Vec<LaunchTrace> {
        std::mem::take(&mut *self.inner.lock().unwrap())
    }

    /// Total simulated cycles across every recorded launch.
    pub fn total_cycles(&self) -> f64 {
        self.inner.lock().unwrap().iter().map(|t| t.cycles).sum()
    }

    /// Render every recorded launch as a Chrome-trace JSON document
    /// (load it in `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// Layout: one trace "process" per launch, one thread row per wave
    /// plus a summary row 0 holding the whole-launch span; phases are
    /// complete ("X") events carrying cycles, the binding constraint and
    /// the memory counters in `args`. Timestamps are microseconds of
    /// simulated device time.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.inner.lock().unwrap())
    }
}

/// Cycles → microseconds of simulated device time.
fn us(cycles: f64, ghz: f64) -> f64 {
    cycles / (ghz * 1e3)
}

fn push_event(out: &mut String, first: &mut bool, body: std::fmt::Arguments) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(out, "    {body}");
}

/// Render a slice of launch traces as a Chrome-trace JSON document.
pub fn chrome_trace_json(traces: &[LaunchTrace]) -> String {
    let mut s = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut first = true;
    for (pid, t) in traces.iter().enumerate() {
        push_event(
            &mut s,
            &mut first,
            format_args!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"process_name\", \
                 \"args\": {{\"name\": \"launch {pid}: {}\"}}}}",
                json_escape(&t.name)
            ),
        );
        push_event(
            &mut s,
            &mut first,
            format_args!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"launch\"}}}}"
            ),
        );
        // Whole-launch summary span on row 0.
        push_event(
            &mut s,
            &mut first,
            format_args!(
                "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": 0, \"name\": \"{}\", \
                 \"ts\": {:.6}, \"dur\": {:.6}, \"args\": {{\"cycles\": {:.3}, \
                 \"grid_blocks\": {}, \"threads_per_block\": {}, \"blocks_per_sm\": {}, \
                 \"occupancy\": {:.4}, \"regs_per_thread\": {}, \"regs_spilled\": {}, \
                 \"waves\": {}}}}}",
                json_escape(&t.name),
                us(t.start_cycle, t.clock_ghz),
                us(t.cycles, t.clock_ghz),
                t.cycles,
                t.grid_blocks,
                t.threads_per_block,
                t.blocks_per_sm,
                t.occupancy_fraction,
                t.regs_per_thread,
                t.regs_spilled,
                t.waves.len(),
            ),
        );
        for w in &t.waves {
            let tid = w.index + 1;
            push_event(
                &mut s,
                &mut first,
                format_args!(
                    "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                     \"name\": \"thread_name\", \"args\": {{\"name\": \
                     \"wave {} ({} blocks)\"}}}}",
                    w.index, w.blocks
                ),
            );
            for p in &w.phases {
                push_event(
                    &mut s,
                    &mut first,
                    format_args!(
                        "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"{}\", \
                         \"ts\": {:.6}, \"dur\": {:.6}, \"args\": {{\"cycles\": {:.3}, \
                         \"bound\": \"{:?}\", \"flops\": {}, \"shared_accesses\": {}, \
                         \"conflict_replays\": {}, \"global_transactions\": {}, \
                         \"global_line_bytes\": {}, \"spill_dram_bytes\": {}}}}}",
                        json_escape(if p.label.is_empty() { "phase" } else { &p.label }),
                        us(t.start_cycle + p.start_cycle, t.clock_ghz),
                        us(p.cycles(), t.clock_ghz),
                        p.cycles(),
                        p.bound,
                        p.counters.flops,
                        p.counters.shared_accesses,
                        p.counters.conflict_replays,
                        p.counters.global_transactions,
                        p.counters.global_line_bytes,
                        p.counters.spill_dram_bytes,
                    ),
                );
            }
        }
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome-trace validation: a minimal JSON parser so tests and smoke bins can
// check that exported documents round-trip through the schema without
// pulling a JSON dependency into the workspace.
// ---------------------------------------------------------------------------

/// Summary of a parsed Chrome-trace document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeTraceSummary {
    /// Total events of any kind.
    pub events: usize,
    /// Complete ("X") duration events.
    pub complete_events: usize,
    /// Distinct `pid`s (launches).
    pub processes: usize,
    /// Sum of `args.cycles` over complete events on wave rows (`tid > 0`).
    pub wave_span_cycles: f64,
    /// Sum of `args.conflict_replays` over wave-row complete events.
    pub conflict_replays: u64,
}

/// Parse and validate a Chrome-trace JSON document produced by
/// [`chrome_trace_json`]. Returns a summary, or an error describing the
/// first schema violation.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceSummary, String> {
    let v = Json::parse(json)?;
    let root = v.as_object().ok_or("root is not an object")?;
    let events = root
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .ok_or("missing traceEvents")?
        .1
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut sum = ChromeTraceSummary::default();
    let mut pids = Vec::new();
    for e in events {
        let obj = e.as_object().ok_or("event is not an object")?;
        let field = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let ph = field("ph")
            .and_then(Json::as_str)
            .ok_or("event missing ph")?;
        let pid = field("pid")
            .and_then(Json::as_f64)
            .ok_or("event missing pid")? as i64;
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        field("name")
            .and_then(Json::as_str)
            .ok_or("event missing name")?;
        sum.events += 1;
        if ph == "X" {
            let dur = field("dur")
                .and_then(Json::as_f64)
                .ok_or("X event missing dur")?;
            if dur < 0.0 {
                return Err("negative dur".into());
            }
            field("ts")
                .and_then(Json::as_f64)
                .ok_or("X event missing ts")?;
            sum.complete_events += 1;
            let tid = field("tid").and_then(Json::as_f64).unwrap_or(0.0) as i64;
            if tid > 0 {
                if let Some(args) = field("args").and_then(Json::as_object) {
                    let arg = |k: &str| args.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                    sum.wave_span_cycles +=
                        arg("cycles").and_then(Json::as_f64).unwrap_or(0.0);
                    sum.conflict_replays +=
                        arg("conflict_replays").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                }
            }
        } else if ph != "M" {
            return Err(format!("unexpected event phase {ph:?}"));
        }
    }
    sum.processes = pids.len();
    Ok(sum)
}

/// A minimal JSON value (just enough to validate exported traces).
enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = Self::value(b, &mut i)?;
        Self::ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        if *i < b.len() && b[*i] == c {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, i))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Json, String> {
        Self::ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut fields = Vec::new();
                Self::ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    Self::ws(b, i);
                    let key = match Self::value(b, i)? {
                        Json::Str(s) => s,
                        _ => return Err(format!("non-string key at byte {i}")),
                    };
                    Self::ws(b, i);
                    Self::expect(b, i, b':')?;
                    fields.push((key, Self::value(b, i)?));
                    Self::ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at byte {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                Self::ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(Self::value(b, i)?);
                    Self::ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at byte {i}")),
                    }
                }
            }
            Some(b'"') => {
                *i += 1;
                let mut out = String::new();
                while *i < b.len() {
                    match b[*i] {
                        b'"' => {
                            *i += 1;
                            return Ok(Json::Str(out));
                        }
                        b'\\' => {
                            *i += 1;
                            match b.get(*i) {
                                Some(b'n') => out.push('\n'),
                                Some(b't') => out.push('\t'),
                                Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                                Some(b'u') => {
                                    let hex = b
                                        .get(*i + 1..*i + 5)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .ok_or(format!("bad \\u escape at byte {i}"))?;
                                    out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                                    *i += 4;
                                }
                                _ => return Err(format!("bad escape at byte {i}")),
                            }
                            *i += 1;
                        }
                        c => {
                            // Copy the raw byte; exported traces are ASCII
                            // but pass UTF-8 through untouched.
                            let start = *i;
                            let mut end = *i + 1;
                            while end < b.len() && b[end] & 0xC0 == 0x80 {
                                end += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&b[start..end])
                                    .map_err(|_| format!("bad utf8 at byte {start}"))?,
                            );
                            let _ = c;
                            *i = end;
                        }
                    }
                }
                Err("unterminated string".into())
            }
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Json::Bool)
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Json::Bool)
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or(format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::occupancy::occupancy;
    use crate::timing::{combine, PhaseRecord};

    fn record(label: &str, critical: u64, flops: u64) -> PhaseRecord {
        PhaseRecord {
            label: label.into(),
            critical_cycles: critical,
            sync_cycles: 40,
            block_issue_cycles: critical / 2,
            fp_instrs: flops / 32,
            ldst_instrs: 8,
            sfu_instrs: 0,
            flops,
            shared_accesses: 64,
            conflict_replays: 3,
            global_transactions: 4,
            global_line_bytes: 512,
            spill_dram_bytes: 0,
            had_sync: true,
        }
    }

    fn sample_stats(cfg: &GpuConfig, grid: usize) -> LaunchStats {
        let occ = occupancy(cfg, 64, 32, 4096);
        combine(
            cfg,
            occ,
            vec![record("load", 500, 0), record("compute", 2000, 4096), record("store", 400, 0)],
            grid,
            64,
            false,
        )
    }

    #[test]
    fn trace_spans_sum_to_launch_cycles() {
        let cfg = GpuConfig::quadro_6000();
        // 300 blocks: two full waves of 112 plus a 76-block remainder.
        let stats = sample_stats(&cfg, 300);
        let t = build_trace(&cfg, &stats, "sample");
        assert_eq!(t.waves.len(), stats.waves);
        assert_eq!(t.waves.last().unwrap().blocks, 300 - 2 * 112);
        let total = t.span_cycle_total();
        assert!(
            (total - stats.cycles).abs() <= 1e-9 * stats.cycles,
            "span total {total} != launch cycles {}",
            stats.cycles
        );
    }

    #[test]
    fn wave_counters_scale_with_blocks() {
        let cfg = GpuConfig::quadro_6000();
        let stats = sample_stats(&cfg, 300);
        let t = build_trace(&cfg, &stats, "sample");
        let full = &t.waves[0];
        let rem = t.waves.last().unwrap();
        let f = full.phases.iter().map(|p| p.counters.flops).sum::<u64>();
        let r = rem.phases.iter().map(|p| p.counters.flops).sum::<u64>();
        assert_eq!(f, 4096 * 112);
        assert_eq!(r, 4096 * 76);
        // Grid totals match the stats' whole-launch FLOP count.
        let all: u64 = t
            .waves
            .iter()
            .flat_map(|w| w.phases.iter())
            .map(|p| p.counters.flops)
            .sum();
        assert_eq!(all as f64, stats.flops);
    }

    #[test]
    fn profiler_lays_launches_end_to_end() {
        let cfg = GpuConfig::quadro_6000();
        let prof = Profiler::new();
        let stats = sample_stats(&cfg, 112);
        prof.record(build_trace(&cfg, &stats, "first"));
        prof.record(build_trace(&cfg, &stats, "second"));
        let ls = prof.launches();
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].start_cycle, 0.0);
        assert!((ls[1].start_cycle - ls[0].cycles).abs() < 1e-12);
        assert_eq!(prof.launch_count(), 2);
        assert!(prof.total_cycles() > 0.0);
        // take() drains.
        assert_eq!(prof.take().len(), 2);
        assert_eq!(prof.launch_count(), 0);
    }

    #[test]
    fn chrome_export_round_trips_through_the_validator() {
        let cfg = GpuConfig::quadro_6000();
        let prof = Profiler::new();
        prof.record(build_trace(&cfg, &sample_stats(&cfg, 300), "qr \"odd\" name"));
        prof.record(build_trace(&cfg, &sample_stats(&cfg, 112), "lu"));
        let json = prof.chrome_trace_json();
        let sum = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(sum.processes, 2);
        // 3 waves + 1 wave → 4 wave rows * 3 phases + 2 launch spans.
        assert_eq!(sum.complete_events, 4 * 3 + 2);
        let expected: f64 = prof.launches().iter().map(|t| t.cycles).sum();
        assert!((sum.wave_span_cycles - expected).abs() / expected < 1e-3);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\", \"pid\": 0}]}").is_err()
        );
        // A well-formed minimal document passes.
        let ok = "{\"traceEvents\": [{\"ph\": \"X\", \"pid\": 0, \"tid\": 1, \
                  \"name\": \"p\", \"ts\": 0.0, \"dur\": 1.5, \
                  \"args\": {\"cycles\": 10.0}}]}";
        let s = validate_chrome_trace(ok).unwrap();
        assert_eq!(s.complete_events, 1);
        assert_eq!(s.wave_span_cycles, 10.0);
    }

    #[test]
    fn phase_totals_aggregate_across_waves() {
        let cfg = GpuConfig::quadro_6000();
        let t = build_trace(&cfg, &sample_stats(&cfg, 300), "s");
        let totals = t.phase_totals();
        assert_eq!(totals.len(), 3);
        assert_eq!(totals[0].0, "load");
        let sum: f64 = totals.iter().map(|(_, c, _)| c).sum();
        assert!((sum - t.cycles).abs() <= 1e-9 * t.cycles);
    }
}
