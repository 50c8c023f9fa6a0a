//! Streams, events, and the copy/compute overlap timeline.
//!
//! CUDA exposes asynchronous execution through *streams* (per-stream FIFO
//! command queues) and *events* (markers one stream can wait on). Whether
//! queuing work in multiple streams actually buys overlap depends on the
//! host-link topology: the paper's GF100 board has a single DMA copy engine
//! that the driver additionally serializes against the compute queue, so the
//! paper reports "no benefit from using multiple streams". Tesla-class Fermi
//! boards expose two copy engines (one per direction) and get the classic
//! three-stage H2D / kernel / D2H pipeline.
//!
//! This module *simulates* that distinction instead of assuming it. Commands
//! are enqueued into [`Stream`]s on a [`Timeline`] and resolved by a small
//! discrete-event scheduler:
//!
//! * Commands dispatch in **issue order** (the order the host enqueued them),
//!   matching how the driver feeds hardware queues.
//! * A command starts no earlier than (a) the completion of the previous
//!   command in its stream, (b) every [`Event`] the stream was told to wait
//!   on, and (c) its engine becoming free — H2D and D2H copies each occupy a
//!   copy engine, kernels occupy one of `concurrent_kernels` kernel slots.
//! * With fewer than two copy engines ([`GpuConfig::copy_engines`]) the
//!   timeline degrades to the paper's behavior: **every** command additionally
//!   waits for the previously issued command, whatever its stream — full
//!   serialization, so multiple streams show ~no speedup.
//! * With two or more engines, H2D and D2H get dedicated engines and copies
//!   overlap both each other and compute.
//!
//! Copy durations come from the config's [`PcieModel`]; kernel durations are
//! supplied by the caller (typically [`crate::LaunchStats::time_s`], which
//! already includes the launch overhead). Resolution is pure arithmetic over
//! the issue list — deterministic and independent of host thread count.

use crate::config::GpuConfig;
use crate::host::PcieModel;

/// Handle to a per-stream FIFO command queue on a [`Timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Stream(usize);

impl Stream {
    /// Index of this stream on its timeline (creation order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Marker recorded into a stream; other streams can wait on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Event(usize);

/// What a resolved command was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmdKind {
    /// Host-to-device copy over PCIe.
    H2d,
    /// Device-to-host copy over PCIe.
    D2h,
    /// Kernel execution.
    Kernel,
}

impl CmdKind {
    pub fn name(&self) -> &'static str {
        match self {
            CmdKind::H2d => "h2d",
            CmdKind::D2h => "d2h",
            CmdKind::Kernel => "kernel",
        }
    }
}

enum Cmd {
    Copy {
        stream: usize,
        kind: CmdKind,
        bytes: usize,
    },
    Kernel {
        stream: usize,
        secs: f64,
        label: String,
    },
    Record {
        stream: usize,
        event: usize,
    },
    Wait {
        stream: usize,
        event: usize,
    },
}

/// One resolved command occupying `[start_s, end_s]` on the timeline.
#[derive(Clone, Debug)]
pub struct CommandSpan {
    /// Index of the issuing stream ([`Stream::index`]).
    pub stream: usize,
    pub kind: CmdKind,
    /// Kernel label, or empty for copies.
    pub label: String,
    /// Bytes moved (copies only).
    pub bytes: usize,
    pub start_s: f64,
    pub end_s: f64,
}

/// Resolved schedule of a [`Timeline`].
#[derive(Clone, Debug)]
pub struct TimelineReport {
    /// Wall-clock end of the last command.
    pub total_s: f64,
    /// Every copy / kernel command with its scheduled interval, in issue
    /// order (records and waits are zero-width and omitted).
    pub spans: Vec<CommandSpan>,
    /// Busy time of the H2D copy path.
    pub h2d_s: f64,
    /// Busy time of the D2H copy path.
    pub d2h_s: f64,
    /// Busy time of the kernel slots.
    pub kernel_s: f64,
    /// True when the single-copy-engine rule forced full serialization.
    pub serialized: bool,
}

impl TimelineReport {
    /// What the same command list costs with no overlap at all: the sum of
    /// every command duration. On a serialized (single-copy-engine) timeline
    /// `total_s == serial_s()` up to float rounding.
    pub fn serial_s(&self) -> f64 {
        self.h2d_s + self.d2h_s + self.kernel_s
    }

    /// `serial_s / total_s` — how much the schedule gained from overlap.
    pub fn overlap_speedup(&self) -> f64 {
        if self.total_s > 0.0 {
            self.serial_s() / self.total_s
        } else {
            1.0
        }
    }

    /// Stream-level watchdog over the resolved schedule.
    ///
    /// A stream is **unresolved** when one of its spans has a non-finite
    /// bound — its queue never drains (see [`Timeline::kernel`] on
    /// modelling a hung kernel as a NaN/infinite duration). On a
    /// serialized (single-copy-engine) timeline every command issued
    /// after the hang also never runs, so their streams are unresolved
    /// too. A stream is **stalled** when its work does resolve but its
    /// last command ends after `budget_s`.
    pub fn watchdog(&self, budget_s: f64) -> StreamWatchdogReport {
        let mut stalled: Vec<usize> = Vec::new();
        let mut unresolved: Vec<usize> = Vec::new();
        let mut poisoned = false;
        for s in &self.spans {
            let finite = s.start_s.is_finite() && s.end_s.is_finite();
            if !finite || (self.serialized && poisoned) {
                poisoned |= !finite;
                if !unresolved.contains(&s.stream) {
                    unresolved.push(s.stream);
                }
            } else if s.end_s > budget_s && !stalled.contains(&s.stream) {
                stalled.push(s.stream);
            }
        }
        stalled.retain(|s| !unresolved.contains(s));
        stalled.sort_unstable();
        unresolved.sort_unstable();
        StreamWatchdogReport {
            budget_s,
            stalled,
            unresolved,
        }
    }
}

/// Verdict of [`TimelineReport::watchdog`]: which streams blew the budget
/// and which never resolve at all.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamWatchdogReport {
    /// The deadline the schedule was checked against, in seconds.
    pub budget_s: f64,
    /// Streams whose final command completes after `budget_s`
    /// ([`Stream::index`] values, ascending).
    pub stalled: Vec<usize>,
    /// Streams whose queued commands never resolve (ascending).
    pub unresolved: Vec<usize>,
}

impl StreamWatchdogReport {
    /// No stream stalled and every queue drained.
    pub fn is_clean(&self) -> bool {
        self.stalled.is_empty() && self.unresolved.is_empty()
    }
}

/// Issue-order command list plus the device's overlap resources; resolves to
/// a [`TimelineReport`] via a discrete-event scan.
pub struct Timeline {
    pcie: PcieModel,
    copy_engines: usize,
    concurrent_kernels: usize,
    streams: usize,
    events: usize,
    cmds: Vec<Cmd>,
}

impl Timeline {
    pub fn new(cfg: &GpuConfig) -> Self {
        Timeline {
            pcie: PcieModel::from_config(cfg),
            copy_engines: cfg.copy_engines,
            concurrent_kernels: cfg.concurrent_kernels.max(1),
            streams: 0,
            events: 0,
            cmds: Vec::new(),
        }
    }

    /// Create a new stream (FIFO command queue).
    pub fn stream(&mut self) -> Stream {
        self.streams += 1;
        Stream(self.streams - 1)
    }

    /// Enqueue a host-to-device copy of `bytes` on `s`.
    pub fn h2d(&mut self, s: Stream, bytes: usize) {
        self.cmds.push(Cmd::Copy {
            stream: s.0,
            kind: CmdKind::H2d,
            bytes,
        });
    }

    /// Enqueue a device-to-host copy of `bytes` on `s`.
    pub fn d2h(&mut self, s: Stream, bytes: usize) {
        self.cmds.push(Cmd::Copy {
            stream: s.0,
            kind: CmdKind::D2h,
            bytes,
        });
    }

    /// Enqueue a kernel taking `secs` (including launch overhead) on `s`.
    ///
    /// A non-finite duration (NaN or infinity) models a kernel that never
    /// completes: it is preserved — not clamped — so the spans it produces
    /// carry non-finite bounds and [`TimelineReport::watchdog`] can flag
    /// the stream as unresolved.
    pub fn kernel(&mut self, s: Stream, secs: f64, label: impl Into<String>) {
        let secs = if secs.is_finite() { secs.max(0.0) } else { secs };
        self.cmds.push(Cmd::Kernel {
            stream: s.0,
            secs,
            label: label.into(),
        });
    }

    /// Record an event on `s`: it completes when all work enqueued on `s` so
    /// far has completed.
    pub fn record(&mut self, s: Stream) -> Event {
        self.events += 1;
        let e = Event(self.events - 1);
        self.cmds.push(Cmd::Record {
            stream: s.0,
            event: e.0,
        });
        e
    }

    /// Make subsequent commands on `s` wait for `e`. Waiting on an event
    /// that is never recorded is a no-op (as in CUDA).
    pub fn wait(&mut self, s: Stream, e: Event) {
        self.cmds.push(Cmd::Wait {
            stream: s.0,
            event: e.0,
        });
    }

    /// Scan the issue list and schedule every command.
    pub fn resolve(&self) -> TimelineReport {
        let serialized = self.copy_engines < 2;
        // Per-stream completion time of the last scheduled command.
        let mut stream_end = vec![0.0f64; self.streams];
        // Per-stream extra barrier imposed by event waits.
        let mut stream_gate = vec![0.0f64; self.streams];
        let mut event_time = vec![0.0f64; self.events];
        // Engine availability: H2D engine, D2H engine, kernel slots.
        let mut h2d_free = 0.0f64;
        let mut d2h_free = 0.0f64;
        let mut kernel_free = vec![0.0f64; self.concurrent_kernels];
        // End of the previously issued command, for the serialized rule.
        let mut prev_end = 0.0f64;

        let mut spans = Vec::new();
        let (mut h2d_busy, mut d2h_busy, mut kernel_busy) = (0.0f64, 0.0f64, 0.0f64);

        for cmd in &self.cmds {
            match cmd {
                Cmd::Record { stream, event } => {
                    event_time[*event] = stream_end[*stream].max(stream_gate[*stream]);
                }
                Cmd::Wait { stream, event } => {
                    stream_gate[*stream] = stream_gate[*stream].max(event_time[*event]);
                }
                Cmd::Copy {
                    stream,
                    kind,
                    bytes,
                } => {
                    let dur = self.pcie.transfer_secs(*bytes);
                    let engine_free = match kind {
                        CmdKind::H2d => &mut h2d_free,
                        _ => &mut d2h_free,
                    };
                    let mut start = stream_end[*stream]
                        .max(stream_gate[*stream])
                        .max(*engine_free);
                    if serialized {
                        start = start.max(prev_end);
                    }
                    let end = start + dur;
                    *engine_free = end;
                    stream_end[*stream] = end;
                    prev_end = end;
                    match kind {
                        CmdKind::H2d => h2d_busy += dur,
                        _ => d2h_busy += dur,
                    }
                    spans.push(CommandSpan {
                        stream: *stream,
                        kind: *kind,
                        label: String::new(),
                        bytes: *bytes,
                        start_s: start,
                        end_s: end,
                    });
                }
                Cmd::Kernel {
                    stream,
                    secs,
                    label,
                } => {
                    // Earliest-free kernel slot (lowest index on ties for
                    // determinism).
                    let (slot, slot_free) = kernel_free
                        .iter()
                        .copied()
                        .enumerate()
                        .fold((0usize, f64::INFINITY), |best, (i, t)| {
                            if t < best.1 {
                                (i, t)
                            } else {
                                best
                            }
                        });
                    let mut start = stream_end[*stream]
                        .max(stream_gate[*stream])
                        .max(slot_free);
                    if serialized {
                        start = start.max(prev_end);
                    }
                    let end = start + secs;
                    kernel_free[slot] = end;
                    stream_end[*stream] = end;
                    prev_end = end;
                    kernel_busy += secs;
                    spans.push(CommandSpan {
                        stream: *stream,
                        kind: CmdKind::Kernel,
                        label: label.clone(),
                        bytes: 0,
                        start_s: start,
                        end_s: end,
                    });
                }
            }
        }

        let total = spans.iter().map(|s| s.end_s).fold(0.0f64, f64::max);
        TimelineReport {
            total_s: total,
            spans,
            h2d_s: h2d_busy,
            d2h_s: d2h_busy,
            kernel_s: kernel_busy,
            serialized,
        }
    }

    /// Seconds one PCIe transfer of `bytes` takes on this timeline's link.
    pub fn transfer_secs(&self, bytes: usize) -> f64 {
        self.pcie.transfer_secs(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enqueue a canonical chunked pipeline: `chunks` rounds of
    /// H2D -> kernel -> D2H, round-robined over `nstreams` streams.
    fn pipelined(cfg: &GpuConfig, nstreams: usize, chunks: usize, bytes: usize, ksecs: f64) -> TimelineReport {
        let mut tl = Timeline::new(cfg);
        let streams: Vec<Stream> = (0..nstreams).map(|_| tl.stream()).collect();
        for c in 0..chunks {
            let s = streams[c % nstreams];
            tl.h2d(s, bytes);
            tl.kernel(s, ksecs, format!("chunk {c}"));
            tl.d2h(s, bytes);
        }
        tl.resolve()
    }

    #[test]
    fn single_copy_engine_gives_no_stream_speedup() {
        // Paper's claim: on the GF100 board multiple streams buy nothing.
        let cfg = GpuConfig::quadro_6000();
        assert_eq!(cfg.copy_engines, 1);
        let multi = pipelined(&cfg, 4, 8, 2 << 20, 500e-6);
        let single = pipelined(&cfg, 1, 8, 2 << 20, 500e-6);
        assert!(multi.serialized);
        assert!((multi.total_s - single.total_s).abs() < 1e-12);
        assert!((multi.total_s - multi.serial_s()).abs() < 1e-12);
        assert!((multi.overlap_speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dual_copy_engines_pipeline_three_stages() {
        // With dedicated H2D/D2H engines the steady state advances at the
        // pace of the slowest stage: total ~= fill + (chunks-1) * max_stage.
        let cfg = GpuConfig::quadro_6000_dual_copy();
        let bytes = 2 << 20;
        let ksecs = 500e-6;
        let chunks = 8;
        let r = pipelined(&cfg, 4, chunks, bytes, ksecs);
        assert!(!r.serialized);
        let t_copy = PcieModel::from_config(&cfg).transfer_secs(bytes);
        let max_stage = t_copy.max(ksecs);
        let expected = (t_copy + ksecs + t_copy) + (chunks as f64 - 1.0) * max_stage;
        assert!(
            (r.total_s - expected).abs() / expected < 0.01,
            "total {} vs 3-stage closed form {}",
            r.total_s,
            expected
        );
        assert!(r.overlap_speedup() > 1.3, "speedup {}", r.overlap_speedup());
    }

    #[test]
    fn dual_engine_single_stream_still_fifo() {
        // One stream is a FIFO even with two engines: no overlap possible.
        let cfg = GpuConfig::quadro_6000_dual_copy();
        let r = pipelined(&cfg, 1, 6, 1 << 20, 200e-6);
        assert!((r.total_s - r.serial_s()).abs() < 1e-12);
    }

    #[test]
    fn event_wait_orders_across_streams() {
        let cfg = GpuConfig::quadro_6000_dual_copy();
        let mut tl = Timeline::new(&cfg);
        let a = tl.stream();
        let b = tl.stream();
        tl.kernel(a, 1e-3, "producer");
        let e = tl.record(a);
        tl.wait(b, e);
        tl.kernel(b, 1e-4, "consumer");
        let r = tl.resolve();
        let producer = &r.spans[0];
        let consumer = &r.spans[1];
        assert_eq!(consumer.label, "consumer");
        assert!(consumer.start_s >= producer.end_s - 1e-15);

        // Without the wait, the consumer would start immediately.
        let mut tl2 = Timeline::new(&cfg);
        let a2 = tl2.stream();
        let b2 = tl2.stream();
        tl2.kernel(a2, 1e-3, "producer");
        tl2.kernel(b2, 1e-4, "consumer");
        let r2 = tl2.resolve();
        assert!(r2.spans[1].start_s < 1e-12 || cfg.concurrent_kernels == 1);
    }

    #[test]
    fn wait_before_record_is_noop() {
        // As in CUDA, a wait sees only records issued before it: waiting on
        // an event recorded later does not gate the stream.
        let cfg = GpuConfig::quadro_6000_dual_copy();
        let mut tl = Timeline::new(&cfg);
        let a = tl.stream();
        let b = tl.stream();
        tl.wait(b, Event(0));
        tl.h2d(b, 1 << 10);
        tl.kernel(a, 1e-3, "late producer");
        let e = tl.record(a);
        assert_eq!(e, Event(0));
        let r = tl.resolve();
        assert!(r.spans[0].start_s < 1e-12, "wait must not gate at 0");
    }

    #[test]
    fn resolution_is_deterministic() {
        let cfg = GpuConfig::quadro_6000_dual_copy();
        let r1 = pipelined(&cfg, 3, 11, 3 << 20, 700e-6);
        let r2 = pipelined(&cfg, 3, 11, 3 << 20, 700e-6);
        assert_eq!(r1.total_s.to_bits(), r2.total_s.to_bits());
        assert_eq!(r1.spans.len(), r2.spans.len());
        for (a, b) in r1.spans.iter().zip(&r2.spans) {
            assert_eq!(a.start_s.to_bits(), b.start_s.to_bits());
            assert_eq!(a.end_s.to_bits(), b.end_s.to_bits());
        }
    }

    #[test]
    fn watchdog_flags_stalled_and_unresolved_streams() {
        let cfg = GpuConfig::quadro_6000_dual_copy();
        let mut tl = Timeline::new(&cfg);
        let a = tl.stream();
        let b = tl.stream();
        let c = tl.stream();
        tl.kernel(a, 1e-6, "quick");
        tl.kernel(b, f64::NAN, "hung");
        // A big copy rides the D2H engine, untouched by the wedged kernel
        // slot: it resolves, but well past a 1 ms budget.
        tl.d2h(c, 64 << 20);
        let wd = tl.resolve().watchdog(1e-3);
        assert_eq!(wd.unresolved, vec![b.index()]);
        assert_eq!(wd.stalled, vec![c.index()]);
        assert!(!wd.is_clean());

        // Under a generous budget only the hung stream remains.
        let wd = tl.resolve().watchdog(10.0);
        assert_eq!(wd.unresolved, vec![b.index()]);
        assert!(wd.stalled.is_empty());

        // A kernel queued behind the hung device (one concurrent kernel
        // slot) never starts: its stream is unresolved, not stalled.
        let mut tl2 = Timeline::new(&cfg);
        let x = tl2.stream();
        let y = tl2.stream();
        tl2.kernel(x, f64::NAN, "hung");
        tl2.kernel(y, 1e-6, "starved");
        let wd = tl2.resolve().watchdog(10.0);
        assert_eq!(wd.unresolved, vec![x.index(), y.index()]);
    }

    #[test]
    fn serialized_timeline_poisons_streams_issued_after_a_hang() {
        // With one copy engine every command waits on the previous one, so
        // a hung kernel wedges every stream issued after it.
        let cfg = GpuConfig::quadro_6000();
        let mut tl = Timeline::new(&cfg);
        let a = tl.stream();
        let b = tl.stream();
        tl.kernel(a, f64::INFINITY, "hung");
        tl.kernel(b, 1e-6, "starved");
        let wd = tl.resolve().watchdog(1.0);
        assert_eq!(wd.unresolved, vec![a.index(), b.index()]);

        // A clean serialized pipeline is clean under a generous budget.
        let r = pipelined(&cfg, 2, 4, 1 << 20, 100e-6);
        assert!(r.watchdog(10.0).is_clean());
    }

    #[test]
    fn copies_in_opposite_directions_overlap_with_two_engines() {
        let cfg = GpuConfig::quadro_6000_dual_copy();
        let mut tl = Timeline::new(&cfg);
        let a = tl.stream();
        let b = tl.stream();
        tl.h2d(a, 8 << 20);
        tl.d2h(b, 8 << 20);
        let r = tl.resolve();
        // Both copies run concurrently: wall clock ~= one transfer.
        assert!(r.total_s < 1.5 * tl.transfer_secs(8 << 20));
        // Same direction serializes on the shared engine.
        let mut tl2 = Timeline::new(&cfg);
        let a2 = tl2.stream();
        let b2 = tl2.stream();
        tl2.h2d(a2, 8 << 20);
        tl2.h2d(b2, 8 << 20);
        let r2 = tl2.resolve();
        assert!(r2.total_s > 1.9 * tl2.transfer_secs(8 << 20));
        let _ = (a, b);
    }
}
