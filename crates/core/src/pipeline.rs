//! Chunked, stream-pipelined batch execution (copy/compute overlap).
//!
//! The paper's end-to-end times are transfer-gated: for small
//! factorizations the PCIe copies rival the kernel, so the only way to
//! approach the kernel-only rate is to split the batch into chunks and
//! overlap each chunk's transfers with another chunk's compute. This module
//! is the host-side driver for that pipeline:
//!
//! * the batch is split into `chunks` contiguous problem ranges,
//! * every chunk is executed through [`Session::run_with`] (so under
//!   [`regla_gpu_sim::ExecMode::Full`] results are bit-identical to a
//!   synchronous run — chunking only re-groups problems whose kernels never
//!   interact; under the sampled modes each chunk runs its own sample, so
//!   a different set of problems is computed),
//! * the chunk's H2D copy, kernel, and D2H copy are enqueued on one of
//!   `streams` round-robined [`regla_gpu_sim::Stream`]s of a
//!   [`regla_gpu_sim::Timeline`], whose discrete-event resolution decides
//!   how much overlap the device's copy engines actually allow,
//! * the resolved schedule is compared against
//!   [`regla_model::pipeline::estimate`] — the model's pipelined-time term
//!   — in a [`PipelineReport`].
//!
//! On the paper's single-copy-engine Quadro 6000 the timeline serializes
//! everything and the pipeline buys nothing; on a dual-copy-engine config
//! the classic three-stage pipeline emerges.

use crate::api::RunOpts;
use crate::batch::MatBatch;
use crate::elem::DeviceScalar;
use crate::error::ReglaError;
use crate::profile::PipelineReport;
use crate::session::{Op, OpOutput, Session};
use regla_gpu_sim::Timeline;

/// Chunking and stream configuration for [`Session::pipelined`].
#[derive(Clone, Copy, Debug)]
pub struct PipelineOpts {
    /// Streams the chunks are round-robined over.
    pub streams: usize,
    /// Chunks the batch is split into. Must be between 1 and the problem
    /// count: more chunks than problems would run empty launches, so
    /// [`Session::pipelined`] rejects it with
    /// [`ReglaError::InvalidConfig`] instead of silently clamping.
    pub chunks: usize,
}

impl Default for PipelineOpts {
    fn default() -> Self {
        PipelineOpts {
            streams: 4,
            chunks: 8,
        }
    }
}

impl PipelineOpts {
    pub fn new(streams: usize, chunks: usize) -> Self {
        PipelineOpts { streams, chunks }
    }
}

/// Result of a pipelined run: the merged outputs (bit-identical to a
/// synchronous [`Session::run`] under [`regla_gpu_sim::ExecMode::Full`])
/// plus the end-to-end overlap report.
#[derive(Clone, Debug)]
pub struct PipelinedRun<T> {
    /// Merged outputs of every chunk, in problem order.
    pub output: OpOutput<T>,
    /// Resolved timeline vs. the model's pipelined-time prediction.
    pub report: PipelineReport,
}

/// Device bytes of one batch (what a PCIe copy of it moves).
fn batch_bytes<T: DeviceScalar>(b: &MatBatch<T>) -> usize {
    b.words_per_mat() * b.count() * 4
}

pub(crate) fn run_pipelined<T: DeviceScalar>(
    session: &Session,
    op: Op,
    a: &MatBatch<T>,
    b: Option<&MatBatch<T>>,
    popts: &PipelineOpts,
    opts: &RunOpts,
) -> Result<PipelinedRun<T>, ReglaError> {
    if popts.streams == 0 || popts.chunks == 0 {
        return Err(ReglaError::InvalidConfig(
            "pipelined execution needs at least one stream and one chunk".into(),
        ));
    }
    let count = a.count();
    if popts.chunks > count {
        return Err(ReglaError::InvalidConfig(format!(
            "cannot split {count} problems into {} chunks: chunks must not \
             exceed the problem count",
            popts.chunks
        )));
    }
    let chunks = popts.chunks;
    let streams = popts.streams;

    // Balanced contiguous split: the first `count % chunks` chunks carry one
    // extra problem.
    let base = count / chunks;
    let extra = count % chunks;

    let mut tl = Timeline::new(session.config());
    let stream_handles: Vec<_> = (0..streams).map(|_| tl.stream()).collect();

    let mut chunk_outputs: Vec<OpOutput<T>> = Vec::with_capacity(chunks);
    let (mut h2d_total, mut d2h_total) = (0usize, 0usize);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        let ca = a.slice_problems(start, len);
        let cb = b.map(|b| b.slice_problems(start, len));
        let out = session.run_with(op, &ca, cb.as_ref(), opts)?;

        let h2d = batch_bytes(&ca) + cb.as_ref().map_or(0, batch_bytes);
        let d2h = batch_bytes(&out.run.out)
            + out.run.taus.as_ref().map_or(0, batch_bytes)
            + out.solution.as_ref().map_or(0, batch_bytes);
        h2d_total += h2d;
        d2h_total += d2h;

        let s = stream_handles[c % streams];
        tl.h2d(s, h2d);
        tl.kernel(s, out.run.stats.time_s, format!("{} chunk {c}", op.name()));
        tl.d2h(s, d2h);

        chunk_outputs.push(out);
        start += len;
    }

    let sim = tl.resolve();

    // Model prediction for the same schedule: the first chunk is the
    // largest, so its stage times bound the steady state the way the
    // scheduler sees it. Kernel time is the model's price of the plan a
    // chunk runs; operations the model cannot time (GEMM) reuse the
    // measured mean, predicting only the overlap structure.
    let chunk0 = base + usize::from(extra > 0);
    let mean_kernel_s =
        chunk_outputs.iter().map(|o| o.run.stats.time_s).sum::<f64>() / chunks as f64;
    let rhs = b.map_or(0, |b| b.cols());
    let predicted_kernel = session
        .price::<T>(op, a.rows(), a.cols(), rhs, chunk0, opts)
        .map(|cycles| session.config().cycles_to_secs(cycles));
    let est = regla_model::pipeline::estimate(
        session.config(),
        chunks,
        streams,
        h2d_total.div_ceil(chunks),
        d2h_total.div_ceil(chunks),
        predicted_kernel.unwrap_or(mean_kernel_s),
    );

    let report = PipelineReport {
        op: op.name(),
        batch: count,
        chunks,
        streams,
        copy_engines: session.config().copy_engines,
        h2d_bytes: h2d_total,
        d2h_bytes: d2h_total,
        h2d_s: sim.h2d_s,
        d2h_s: sim.d2h_s,
        kernel_s: sim.kernel_s,
        sync_s: sim.serial_s(),
        pipelined_s: sim.total_s,
        predicted_sync_s: est.sync_s,
        predicted_pipelined_s: est.pipelined_s,
        kernel_modeled: predicted_kernel.is_some(),
        serialized: sim.serialized,
    };

    let mut output = OpOutput::concat(chunk_outputs);
    if let Some(p) = output.run.profile.as_mut() {
        p.pipeline = Some(report.clone());
    }
    Ok(PipelinedRun { output, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regla_gpu_sim::GpuConfig;

    fn dd_batch(n: usize, count: usize) -> MatBatch<f32> {
        MatBatch::from_fn(n, n, count, |k, i, j| {
            let v = (((k * 37 + i * 11 + j * 5) % 23) as f32) / 23.0 - 0.3;
            if i == j {
                v + n as f32
            } else {
                v
            }
        })
    }

    #[test]
    fn pipelined_results_are_bit_identical_to_synchronous() {
        let session = Session::with_config(GpuConfig::quadro_6000_dual_copy());
        let a = dd_batch(16, 260); // 260 does not divide evenly into 8
        let sync = session.qr(&a).unwrap();
        let piped = session
            .pipelined(Op::Qr, &a, None, &PipelineOpts::default())
            .unwrap();
        assert_eq!(piped.output.run.out.data(), sync.out.data());
        assert_eq!(
            piped.output.run.taus.as_ref().unwrap().data(),
            sync.taus.as_ref().unwrap().data()
        );
        assert_eq!(piped.output.run.status, sync.status);
    }

    #[test]
    fn single_copy_engine_pipelines_to_exactly_sync_time() {
        // The paper's claim, end to end: on the 1-copy-engine board the
        // chunked pipeline runs in the synchronous time.
        let session = Session::with_config(GpuConfig::quadro_6000());
        let a = dd_batch(12, 256);
        let r = session
            .pipelined(Op::Qr, &a, None, &PipelineOpts::new(4, 8))
            .unwrap();
        assert!(r.report.serialized);
        assert!((r.report.pipelined_s - r.report.sync_s).abs() / r.report.sync_s < 1e-9);
        assert!((r.report.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dual_copy_engines_overlap_transfers_with_compute() {
        let session = Session::with_config(GpuConfig::quadro_6000_dual_copy());
        let a = dd_batch(16, 1024);
        let r = session
            .pipelined(Op::Qr, &a, None, &PipelineOpts::new(4, 8))
            .unwrap();
        assert!(!r.report.serialized);
        assert!(
            r.report.speedup() > 1.2,
            "speedup {} report:\n{}",
            r.report.speedup(),
            r.report.render()
        );
        // The model's pipelined end-to-end time tracks the simulation.
        assert!(r.report.kernel_modeled);
        assert!(
            r.report.pipelined_error_pct().abs() < 15.0,
            "model error {:+.1}%\n{}",
            r.report.pipelined_error_pct(),
            r.report.render()
        );
    }

    #[test]
    fn report_rides_on_the_profile_when_tracing() {
        let prof = regla_gpu_sim::Profiler::new();
        let session = Session::builder()
            .config(GpuConfig::quadro_6000_dual_copy())
            .profiler(prof)
            .build();
        let a = dd_batch(12, 128);
        let r = session
            .pipelined(Op::Qr, &a, None, &PipelineOpts::new(2, 4))
            .unwrap();
        let p = r.output.run.profile.expect("traced run carries a profile");
        let pl = p.pipeline.expect("pipeline report attached");
        assert_eq!(pl.chunks, 4);
        assert_eq!(pl.op, "qr");
    }

    #[test]
    fn rhs_ops_pipeline_and_merge_solutions() {
        let session = Session::with_config(GpuConfig::quadro_6000_dual_copy());
        let a = dd_batch(10, 96);
        let b = MatBatch::from_fn(10, 1, 96, |k, i, _| (k + i) as f32 / 7.0);
        let sync = session.run(Op::GjSolve, &a, Some(&b)).unwrap();
        let piped = session
            .pipelined(Op::GjSolve, &a, Some(&b), &PipelineOpts::new(3, 6))
            .unwrap();
        assert_eq!(piped.output.run.out.data(), sync.run.out.data());
        assert_eq!(piped.output.run.status, sync.run.status);
    }

    #[test]
    fn zero_streams_or_chunks_is_invalid() {
        let session = Session::new();
        let a = dd_batch(8, 16);
        assert!(session
            .pipelined(Op::Qr, &a, None, &PipelineOpts::new(0, 4))
            .is_err());
        assert!(session
            .pipelined(Op::Qr, &a, None, &PipelineOpts::new(4, 0))
            .is_err());
    }

    #[test]
    fn more_chunks_than_problems_is_a_structured_error() {
        let session = Session::new();
        let a = dd_batch(8, 5);
        let err = session
            .pipelined(Op::Qr, &a, None, &PipelineOpts::new(2, 6))
            .unwrap_err();
        assert!(
            matches!(&err, ReglaError::InvalidConfig(m) if m.contains("chunks")),
            "unexpected error: {err}"
        );
        // Exactly one chunk per problem is the boundary and stays valid.
        let r = session
            .pipelined(Op::Qr, &a, None, &PipelineOpts::new(2, 5))
            .unwrap();
        assert_eq!(r.output.run.out.count(), 5);
    }
}
