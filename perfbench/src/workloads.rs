//! The three workloads, driven through the program's public entry points:
//! `Session::run_with` (sweep, batch) and `ServeEngine::serve` over a
//! `Fleet` (serve). Each pass records every call into the program with
//! the counters the call returned, and checks a seeded sample of outputs
//! against the host reference.

use crate::check::{self, SAMPLE, TOL};
use crate::gen::{self, derive, Kind};
use crate::price::price_cycles;
use crate::trace::Recorder;
use crate::{Scale, Settings, Workload};
use regla_core::{
    BatchRun, DeviceScalar, Fleet, MatBatch, Op, RecoveryStats, RunOpts, Session, VerifyMode,
};
use regla_gpu_sim::{ExecMode, FaultKind, FaultPlan, GpuConfig};
use regla_model::{Approach, Plan, PlanKey};
use regla_serve::{
    generate_requests, ServeConfig, ServeEngine, ServeReport, SolveRequest, TrafficConfig,
};
use std::time::Instant;

/// Which public entry point a call went through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Session::run_with` in the timed phase.
    Session,
    /// The same call re-run with `VerifyMode::Off` (traced passes only;
    /// recorded as a span, its time lands in the verified call's
    /// `verify_s`).
    VerifyOff,
    /// Fleet and engine construction plus `ServeEngine::serve`.
    Serve,
    /// A serve dispatch replayed through `Fleet::run_with` (traced passes
    /// only): the engine returns no launch counters, the replica does.
    FleetReplica,
}

impl Layer {
    pub fn span(self) -> &'static str {
        match self {
            Layer::Session => "core.session",
            Layer::VerifyOff => "core.verify_off",
            Layer::Serve => "serve",
            Layer::FleetReplica => "core.fleet.replica",
        }
    }
}

/// Launch counters summed over a call's `LaunchStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Launches {
    pub count: usize,
    /// Host seconds inside `Gpu::launch`.
    pub host_s: f64,
    /// Launches that traced block 0 (no schedule-cache hit).
    pub traced_blocks: usize,
    /// Blocks replayed functionally.
    pub replay_blocks: usize,
    pub cache_hits: usize,
    pub fast: usize,
    /// Sum and count of replay-worker utilization over launches that
    /// replayed at least one block.
    pub util_sum: f64,
    pub util_n: usize,
    /// Simulated device cycles.
    pub sim_cycles: f64,
}

impl Launches {
    fn of<T>(run: &BatchRun<T>) -> Self {
        let mut t = Launches::default();
        for l in &run.stats.launches {
            t.count += 1;
            t.host_s += l.sim_wall_s;
            t.traced_blocks += usize::from(!l.sim_sched_cache_hit);
            t.replay_blocks += l.sim_blocks;
            t.cache_hits += usize::from(l.sim_sched_cache_hit);
            t.fast += usize::from(l.sim_fast);
            if l.sim_blocks > 0 {
                t.util_sum += l.sim_worker_utilization;
                t.util_n += 1;
            }
            t.sim_cycles += l.cycles;
        }
        t
    }
}

/// One call into the program and the counters it returned.
#[derive(Clone, Debug)]
pub struct Call {
    pub layer: Layer,
    pub host_s: f64,
    pub launches: Launches,
    pub staged_bytes: f64,
    pub problems: usize,
    pub executed: usize,
    /// Problems the verification screens ran over.
    pub verified: usize,
    /// Host seconds this call spent over the same call with
    /// `VerifyMode::Off` (traced passes only).
    pub verify_s: f64,
    pub recovery: RecoveryStats,
    /// Simulated seconds and GFLOP/s of the run.
    pub sim_s: f64,
    pub gflops: f64,
    /// Approach that ran, with predicted and simulated cycles.
    pub model: Option<(Approach, f64, f64)>,
}

impl Call {
    fn new(layer: Layer, host_s: f64) -> Self {
        Call {
            layer,
            host_s,
            launches: Launches::default(),
            staged_bytes: 0.0,
            problems: 0,
            executed: 0,
            verified: 0,
            verify_s: 0.0,
            recovery: RecoveryStats::default(),
            sim_s: 0.0,
            gflops: 0.0,
            model: None,
        }
    }

    fn span_args(&self) -> Vec<(&'static str, f64)> {
        let l = &self.launches;
        vec![
            ("launch_s", l.host_s),
            ("launches", l.count as f64),
            ("traced_blocks", l.traced_blocks as f64),
            ("replay_blocks", l.replay_blocks as f64),
            ("cache_hits", l.cache_hits as f64),
            ("fast_launches", l.fast as f64),
            ("problems", self.problems as f64),
            ("executed", self.executed as f64),
            ("staged_mb", self.staged_bytes / MIB),
            ("verify_failures", self.recovery.verify_failures as f64),
            ("retried", self.recovery.retried as f64),
            ("sim_ms", self.sim_s * 1e3),
        ]
    }
}

/// One rate of the serve workload.
#[derive(Clone, Debug)]
pub struct ServeRate {
    pub report: ServeReport,
    /// Simulated latency of every served request.
    pub latencies_s: Vec<f64>,
    /// Offered requests served correctly within their latency budget.
    pub slo_ok: usize,
    /// GFLOP served.
    pub gflop: f64,
    /// Model-predicted fleet busy seconds over the reconstructed
    /// dispatches (`report.busy_s` is the simulated value).
    pub predicted_busy_s: f64,
    /// Fleet failovers, steals and deadline misses.
    pub failovers: u64,
    pub steals: u64,
    pub deadline_misses: u64,
}

/// Everything one pass over a workload recorded.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub calls: Vec<Call>,
    /// Serve only: the light rate, then the busy rate.
    pub serve: Vec<ServeRate>,
    /// Operations attempted and those that returned `Ok` and matched the
    /// host reference (sweep points, batch problems, offered requests).
    pub attempted: usize,
    pub ok: usize,
    /// Checked problems that disagreed with the host reference.
    pub mismatches: usize,
    /// Calls that returned an error.
    pub errors: usize,
    /// Largest relative difference seen by the output check.
    pub worst_diff: f64,
    /// Host seconds the benchmark spent generating inputs and checking.
    pub gen_s: f64,
    pub check_s: f64,
}

impl Pass {
    /// Host seconds inside timed calls into the program.
    pub fn wall_s(&self) -> f64 {
        self.calls
            .iter()
            .filter(|c| matches!(c.layer, Layer::Session | Layer::Serve))
            .map(|c| c.host_s)
            .sum()
    }
}

/// A set-up program, ready for the timed phase.
pub enum Program {
    Session(Box<Session>),
    Serve,
}

const MIB: f64 = (1u64 << 20) as f64;

fn base_opts(s: &Settings) -> RunOpts {
    RunOpts::builder()
        .host_threads(s.host_threads)
        .build()
        .expect("host thread count is a valid option")
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/// One call's shape and options.
#[derive(Clone, Copy, Debug)]
struct Point {
    op: Op,
    m: usize,
    n: usize,
    rhs: usize,
    complex: bool,
    count: usize,
    kind: Kind,
    approach: Option<Approach>,
    exec: ExecMode,
    verify: VerifyMode,
    /// Seeded silent flips injected into the launch.
    flips: usize,
}

impl Point {
    fn new(op: Op, m: usize, n: usize, count: usize) -> Self {
        Point {
            op,
            m,
            n,
            rhs: 0,
            complex: false,
            count,
            kind: Kind::DiagDominant,
            approach: None,
            exec: ExecMode::Full,
            verify: VerifyMode::Off,
            flips: 0,
        }
    }

    fn opts(&self, base: &RunOpts, seed: u64) -> RunOpts {
        let mut o = base.clone();
        o.approach = self.approach;
        o.exec = self.exec;
        o.verify = self.verify;
        if self.flips > 0 {
            o.fault = Some(FaultPlan::new(seed, self.flips).kind(FaultKind::SilentFlip));
        }
        o
    }
}

/// The design-space sweep: per-thread and per-block QR and LU across
/// sizes, plus Table VII's three STAP complex QRs.
fn sweep_points(scale: Scale) -> Vec<Point> {
    let (pt_sizes, pt_count, pb_sizes, pb_cap, stap): (Vec<usize>, usize, Vec<usize>, usize, &[_]) =
        match scale {
            Scale::Full => (
                (4..=12).collect(),
                64_000,
                (8..=96).step_by(8).collect(),
                8_000,
                &[
                    (80, 16, 384, Approach::PerBlock),
                    (240, 66, 128, Approach::Tiled),
                    (192, 96, 128, Approach::Tiled),
                ],
            ),
            Scale::Tiny => (
                vec![4, 8],
                256,
                vec![8, 16],
                64,
                &[
                    (80, 16, 8, Approach::PerBlock),
                    (240, 66, 4, Approach::Tiled),
                ],
            ),
        };
    let mut pts = Vec::new();
    for n in pt_sizes {
        for op in [Op::Qr, Op::Lu] {
            pts.push(Point {
                approach: Some(Approach::PerThread),
                exec: ExecMode::Sampled(8),
                ..Point::new(op, n, n, pt_count)
            });
        }
    }
    for n in pb_sizes {
        for op in [Op::Qr, Op::Lu] {
            pts.push(Point {
                approach: Some(Approach::PerBlock),
                exec: ExecMode::Representative,
                ..Point::new(op, n, n, pb_cap.min(48_000_000 / (n * n)))
            });
        }
    }
    for &(m, n, count, approach) in stap {
        pts.push(Point {
            complex: true,
            kind: Kind::Plain,
            approach: Some(approach),
            exec: ExecMode::Representative,
            ..Point::new(Op::Qr, m, n, count)
        });
    }
    pts
}

/// The sweep's declared warm-up: one call per approach at half of its
/// sweep batch.
fn sweep_warmup(scale: Scale) -> Vec<Point> {
    let k = if scale == Scale::Full { 2 } else { 256 };
    sweep_points(Scale::Full)
        .into_iter()
        .filter(|p| matches!((p.op, p.n), (Op::Qr, 8) | (Op::Qr, 66)))
        .map(|p| Point {
            count: (p.count / k).max(4),
            ..p
        })
        .collect()
}

/// One round of the library batch: six shapes, verification on the QR
/// family, and seeded silent flips on the per-thread QR.
fn batch_round(scale: Scale) -> Vec<Point> {
    let d = if scale == Scale::Full { 1 } else { 32 };
    let per_thread = Some(Approach::PerThread);
    vec![
        Point {
            approach: per_thread,
            ..Point::new(Op::Lu, 8, 8, 8_000 / d)
        },
        Point {
            approach: per_thread,
            verify: VerifyMode::Full,
            flips: 4,
            ..Point::new(Op::Qr, 8, 8, 8_000 / d)
        },
        Point {
            approach: Some(Approach::PerBlock),
            ..Point::new(Op::Lu, 32, 32, 800 / d)
        },
        Point {
            rhs: 1,
            verify: VerifyMode::Full,
            ..Point::new(Op::QrSolve, 32, 32, 800 / d)
        },
        Point {
            kind: Kind::Spd,
            ..Point::new(Op::Cholesky, 24, 24, 1_000 / d)
        },
        Point {
            complex: true,
            kind: Kind::Plain,
            verify: VerifyMode::Full,
            ..Point::new(Op::Qr, 80, 16, 384 / d.min(16))
        },
    ]
}

fn batch_rounds(scale: Scale) -> usize {
    if scale == Scale::Full {
        8
    } else {
        1
    }
}

/// Offered rates of the serve workload (requests per simulated second).
pub const SERVE_RATES: [f64; 2] = [2_500.0, 40_000.0];

/// Requests per rate in one pass.
fn serve_requests(scale: Scale) -> usize {
    if scale == Scale::Full {
        1_000
    } else {
        60
    }
}

fn fleet(opts: &RunOpts) -> Fleet {
    Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::gt200())
        .opts(opts.clone())
        .build()
        .expect("a Quadro 6000 + GT200 fleet is valid")
}

fn engine(opts: &RunOpts) -> ServeEngine {
    ServeEngine::new(fleet(opts), ServeConfig::default().opts(opts.clone()))
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Construct the program and run the workload's declared warm-up.
/// Returns the program and the host seconds that took (input generation
/// excluded).
pub fn setup(s: &Settings) -> (Program, f64) {
    let opts = base_opts(s);
    match s.workload {
        Workload::Sweep | Workload::Batch => {
            let warm = if s.workload == Workload::Sweep {
                sweep_warmup(s.scale)
            } else {
                batch_round(s.scale)
            };
            let inputs: Vec<Inputs> = warm
                .iter()
                .enumerate()
                .map(|(i, p)| Inputs::gen(p, derive(s.seed, &[u64::MAX, i as u64])))
                .collect();
            let t = Instant::now();
            let session = Session::builder().opts(opts.clone()).build();
            for (p, inp) in warm.iter().zip(&inputs) {
                let o = p.opts(&opts, derive(s.seed, &[u64::MAX - 1]));
                let ok = match inp {
                    Inputs::Real(a, b) => session.run_with(p.op, a, b.as_ref(), &o).is_ok(),
                    Inputs::Complex(a) => session.run_with(p.op, a, None, &o).is_ok(),
                };
                assert!(ok, "warm-up call {:?} {}x{} failed", p.op, p.m, p.n);
            }
            (
                Program::Session(Box::new(session)),
                t.elapsed().as_secs_f64(),
            )
        }
        Workload::Serve => {
            let reqs = generate_requests(&TrafficConfig::mixed(
                serve_requests(s.scale) * 2 / 5,
                SERVE_RATES[1],
                derive(s.seed, &[u64::MAX]),
            ));
            let t = Instant::now();
            let out = engine(&opts).serve(reqs);
            assert_eq!(out.report.request_errors, 0, "warm-up stream failed");
            (Program::Serve, t.elapsed().as_secs_f64())
        }
    }
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

enum Inputs {
    Real(MatBatch<f32>, Option<MatBatch<f32>>),
    Complex(MatBatch<regla_core::C32>),
}

impl Inputs {
    fn gen(p: &Point, seed: u64) -> Self {
        if p.complex {
            Inputs::Complex(gen::complex(p.m, p.n, p.count, seed))
        } else {
            let a = gen::real(p.m, p.n, p.count, p.kind, seed);
            let b = (p.rhs > 0).then(|| gen::real(p.m, p.rhs, p.count, Kind::Plain, seed ^ 0xB));
            Inputs::Real(a, b)
        }
    }
}

/// How a workload counts operations for `ok_frac`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// One operation per call (a sweep point).
    Call,
    /// One operation per problem (library batches).
    Problem,
}

struct Cx<'a> {
    s: &'a Settings,
    pass: Pass,
    rec: &'a mut Recorder,
    index: u64,
    /// Timed calls made so far in the pass (trace-only calls excluded, so
    /// traced and untraced passes draw the same seeds).
    timed: u64,
}

impl Cx<'_> {
    fn seed(&self, tag: u64) -> u64 {
        derive(self.s.seed, &[self.index, self.timed, tag])
    }
}

/// Run one pass of the workload. `index` numbers the pass in its run and
/// seeds its inputs.
pub fn run_pass(program: &Program, s: &Settings, index: usize, rec: &mut Recorder) -> Pass {
    rec.open("bench.pass", format!("{} pass {index}", s.workload.name()));
    let mut cx = Cx {
        s,
        pass: Pass::default(),
        rec,
        index: index as u64,
        timed: 0,
    };
    match (program, s.workload) {
        (Program::Session(session), Workload::Sweep) => {
            for (i, p) in sweep_points(s.scale).iter().enumerate() {
                let t = Instant::now();
                let inputs = Inputs::gen(p, derive(s.seed, &[cx.index, i as u64]));
                cx.pass.gen_s += t.elapsed().as_secs_f64();
                point_call(&mut cx, session, p, &inputs, Unit::Call);
            }
        }
        (Program::Session(session), Workload::Batch) => {
            let round = batch_round(s.scale);
            for r in 0..batch_rounds(s.scale) {
                let t = Instant::now();
                let inputs: Vec<Inputs> = round
                    .iter()
                    .enumerate()
                    .map(|(i, p)| Inputs::gen(p, derive(s.seed, &[cx.index, r as u64, i as u64])))
                    .collect();
                cx.pass.gen_s += t.elapsed().as_secs_f64();
                for (p, inp) in round.iter().zip(&inputs) {
                    point_call(&mut cx, session, p, inp, Unit::Problem);
                }
            }
        }
        (Program::Serve, Workload::Serve) => serve_pass(&mut cx),
        _ => unreachable!("program and workload are set up together"),
    }
    cx.rec.close();
    cx.pass
}

fn point_call(cx: &mut Cx, session: &Session, p: &Point, inputs: &Inputs, unit: Unit) {
    let opts = p.opts(session.opts(), cx.seed(1));
    match inputs {
        Inputs::Real(a, b) => session_call(cx, session, p, a, b.as_ref(), &opts, unit),
        Inputs::Complex(a) => session_call(cx, session, p, a, None, &opts, unit),
    }
}

fn label(p: &Point) -> String {
    let rhs = if p.rhs > 0 {
        format!("+{}", p.rhs)
    } else {
        String::new()
    };
    let c = if p.complex { " c32" } else { "" };
    format!("{} {}x{}{rhs} x{}{c}", p.op.name(), p.m, p.n, p.count)
}

fn session_call<T: DeviceScalar>(
    cx: &mut Cx,
    session: &Session,
    p: &Point,
    a: &MatBatch<T>,
    b: Option<&MatBatch<T>>,
    opts: &RunOpts,
    unit: Unit,
) {
    let units = if unit == Unit::Call { 1 } else { p.count };
    cx.pass.attempted += units;
    let start = cx.rec.now_s();
    let t = Instant::now();
    let res = session.run_with(p.op, a, b, opts);
    let host_s = t.elapsed().as_secs_f64();
    let mut call = Call::new(Layer::Session, host_s);
    call.problems = p.count;
    call.staged_bytes =
        ((a.words_per_mat() + b.map_or(0, |b| b.words_per_mat())) * a.count() * 4) as f64;
    match res {
        Err(e) => {
            eprintln!("error: {} failed: {e}", label(p));
            cx.pass.errors += 1;
        }
        Ok(out) => {
            let run = &out.run;
            call.launches = Launches::of(run);
            call.recovery = run.recovery;
            call.sim_s = run.time_s();
            call.gflops = run.gflops();
            let executed = check::executed_problems(run, opts.exec, p.count);
            call.executed = executed.len();
            if opts.verify != VerifyMode::Off {
                call.verified = executed.len();
            }
            call.model = price_call(session, opts, p, run, T::WORDS);

            let tc = Instant::now();
            let mut bad = 0;
            for q in check::sample(&executed, SAMPLE, cx.seed(2)) {
                if run.status[q].is_ok() {
                    let d = check::rel_diff(p.op, a, b, &run.out, q);
                    cx.pass.worst_diff = cx.pass.worst_diff.max(d);
                    if d.is_nan() || d > TOL {
                        eprintln!(
                            "mismatch: {} problem {q}: relative difference {d:.3e}",
                            label(p)
                        );
                        bad += 1;
                    }
                }
            }
            cx.pass.check_s += tc.elapsed().as_secs_f64();
            cx.pass.mismatches += bad;
            let not_ok = run.status.iter().filter(|s| !s.is_ok()).count();
            cx.pass.ok += match unit {
                Unit::Call => usize::from(bad == 0 && not_ok == 0),
                Unit::Problem => p.count - not_ok - bad,
            };
        }
    }
    if cx.rec.armed() && opts.verify != VerifyMode::Off {
        let mut off = opts.clone();
        off.verify = VerifyMode::Off;
        let t = Instant::now();
        let res = session.run_with(p.op, a, b, &off);
        let off_s = t.elapsed().as_secs_f64();
        let mut replay = Call::new(Layer::VerifyOff, off_s);
        if let Ok(o) = &res {
            replay.launches = Launches::of(&o.run);
        }
        cx.rec.leaf(
            Layer::VerifyOff.span(),
            || label(p),
            cx.rec.now_s() - off_s,
            off_s,
            replay.span_args(),
        );
        call.verify_s = host_s - off_s;
    }
    let args = call.span_args();
    cx.rec
        .leaf(Layer::Session.span(), || label(p), start, host_s, args);
    cx.pass.calls.push(call);
    cx.timed += 1;
}

/// Price the call for the approach that ran, at its exact batch size.
fn price_call<T>(
    session: &Session,
    opts: &RunOpts,
    p: &Point,
    run: &BatchRun<T>,
    ew: usize,
) -> Option<(Approach, f64, f64)> {
    let alg = p.op.model_algorithm()?;
    let key = PlanKey::new(alg, p.m, p.n, p.rhs, ew, p.count, opts.math);
    let planned = opts.planner.plan(session.params(), session.config(), &key);
    let mut plan = Plan::new(run.approach).with_panel(opts.panel.unwrap_or(planned.panel));
    if run.approach == Approach::PerBlock {
        plan = plan.with_threads(run.stats.launches.first()?.threads_per_block);
    }
    let sim = Launches::of(run).sim_cycles;
    let pred = price_cycles(session.params(), session.config(), &key, p.count, &plan)?;
    (sim > 0.0).then_some((run.approach, pred, sim))
}

// ---------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------

fn serve_pass(cx: &mut Cx) {
    let opts = base_opts(cx.s);
    for (r, &rate) in SERVE_RATES.iter().enumerate() {
        // Passes cycle through `sim_passes` streams fixed by the run's
        // seed, which together serve 4 000 requests per rate.
        let t = Instant::now();
        let stream = cx.index % crate::sim_passes(Workload::Serve) as u64;
        let reqs = generate_requests(&TrafficConfig::mixed(
            serve_requests(cx.s.scale),
            rate,
            derive(cx.s.seed, &[r as u64, stream]),
        ));
        let offered = reqs.clone();
        cx.pass.gen_s += t.elapsed().as_secs_f64();

        let start = cx.rec.now_s();
        let t = Instant::now();
        let mut eng = engine(&opts);
        let outcome = eng.serve(offered);
        let host_s = t.elapsed().as_secs_f64();
        let report = outcome.report;

        let tc = Instant::now();
        let budget_s = eng.config().latency_budget_s;
        let checked = check::sample(&(0..reqs.len()).collect::<Vec<_>>(), 4 * SAMPLE, cx.seed(3));
        let (mut ok, mut slo_ok, mut gflop) = (0, 0, 0.0);
        let mut latencies_s = Vec::with_capacity(report.served);
        for resp in &outcome.responses {
            let req = &reqs[resp.id as usize];
            let Ok(out) = &resp.result else { continue };
            latencies_s.push(resp.latency_s());
            let mut good = out.run.status.iter().all(|s| s.is_ok());
            if good && checked.contains(&(resp.id as usize)) {
                let q = check::sample(
                    &(0..req.a.count()).collect::<Vec<_>>(),
                    1,
                    cx.seed(4 + resp.id),
                )[0];
                let d = check::rel_diff(req.op, &req.a, req.b.as_ref(), &out.run.out, q);
                cx.pass.worst_diff = cx.pass.worst_diff.max(d);
                if d.is_nan() || d > TOL {
                    eprintln!(
                        "mismatch: serve request {} problem {q}: relative difference {d:.3e}",
                        resp.id
                    );
                    cx.pass.mismatches += 1;
                    good = false;
                }
            }
            if good {
                ok += 1;
                slo_ok += usize::from(resp.latency_s() <= req.latency_budget_s.unwrap_or(budget_s));
                if let Some(alg) = req.op.model_algorithm() {
                    gflop += alg.flops(req.a.rows(), req.a.cols()) * req.a.count() as f64 / 1e9;
                }
            }
        }
        cx.pass.check_s += tc.elapsed().as_secs_f64();
        cx.pass.attempted += report.offered;
        cx.pass.ok += ok;
        cx.pass.errors += report.request_errors;

        let dispatches = dispatches(&reqs, &outcome.responses);
        let predicted_busy_s = dispatches
            .iter()
            .map(|d| fleet_seconds(&eng, &reqs, d))
            .sum();
        let totals = eng.fleet().recovery_totals();
        let mut call = Call::new(Layer::Serve, host_s);
        call.problems = report.problems;
        cx.rec.leaf(
            Layer::Serve.span(),
            || format!("serve {rate} req/s x{}", report.offered),
            start,
            host_s,
            vec![
                ("dispatches", report.dispatches as f64),
                ("served", report.served as f64),
                ("shed", report.shed as f64),
                ("late", report.late as f64),
                ("sim_busy_s", report.busy_s),
            ],
        );
        cx.pass.calls.push(call);
        cx.timed += 1;
        if cx.rec.armed() {
            replay_dispatches(cx, &opts, &reqs, &dispatches);
        }
        cx.pass.serve.push(ServeRate {
            report,
            latencies_s,
            slo_ok,
            gflop,
            predicted_busy_s,
            failovers: totals.device_failovers,
            steals: totals.shards_stolen,
            deadline_misses: totals.deadline_misses,
        });
    }
}

/// Reconstruct the engine's dispatches from its responses: the riders of
/// one coalesced dispatch share its completion instant, and dispatches
/// complete one after another. Each dispatch lists its request ids in
/// coalescing (arrival) order.
fn dispatches(
    reqs: &[SolveRequest<f32>],
    responses: &[regla_serve::Response<f32>],
) -> Vec<Vec<usize>> {
    let mut done: Vec<(f64, usize)> = responses
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| (r.completion_s, r.id as usize))
        .collect();
    done.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut last: Option<(f64, Op)> = None;
    for (t, id) in done {
        let op = reqs[id].op;
        match (last, out.last_mut()) {
            (Some((lt, lop)), Some(group)) if lt == t && lop == op => group.push(id),
            _ => out.push(vec![id]),
        }
        last = Some((t, op));
    }
    out
}

/// Model-predicted simulated seconds for one dispatch on the engine's
/// fleet: each device priced for the whole dispatch with the plan its
/// planner picks, and the work split in proportion to device speed.
fn fleet_seconds(eng: &ServeEngine, reqs: &[SolveRequest<f32>], ids: &[usize]) -> f64 {
    let r0 = &reqs[ids[0]];
    let Some(alg) = r0.op.model_algorithm() else {
        return 0.0;
    };
    let problems: usize = ids.iter().map(|&i| reqs[i].a.count()).sum();
    let rhs = r0.b.as_ref().map_or(0, |b| b.cols());
    let key = PlanKey::new(alg, r0.a.rows(), r0.a.cols(), rhs, 1, problems, r0.math);
    let planner = &eng.config().opts.planner;
    let rate: f64 = eng
        .fleet()
        .sessions()
        .filter_map(|s| {
            let plan = planner.plan(s.params(), s.config(), &key);
            let cycles = price_cycles(s.params(), s.config(), &key, problems, &plan)?;
            Some(1.0 / s.config().cycles_to_secs(cycles))
        })
        .sum();
    if rate > 0.0 {
        1.0 / rate
    } else {
        0.0
    }
}

/// Replay the reconstructed dispatches through a fresh fleet, whose
/// `FleetRun` carries the launch counters the engine does not return.
fn replay_dispatches(
    cx: &mut Cx,
    opts: &RunOpts,
    reqs: &[SolveRequest<f32>],
    groups: &[Vec<usize>],
) {
    let replica = fleet(opts);
    for ids in groups {
        let r0 = &reqs[ids[0]];
        let a =
            MatBatch::concat_problems(&ids.iter().map(|&i| reqs[i].a.clone()).collect::<Vec<_>>());
        let b = r0.b.as_ref().map(|_| {
            MatBatch::concat_problems(
                &ids.iter()
                    .map(|&i| {
                        reqs[i]
                            .b
                            .clone()
                            .expect("a coalesced group shares its rhs shape")
                    })
                    .collect::<Vec<_>>(),
            )
        });
        let mut o = opts.clone();
        o.math = r0.math;
        let start = cx.rec.now_s();
        let t = Instant::now();
        let res = replica.run_with(r0.op, &a, b.as_ref(), &o);
        let host_s = t.elapsed().as_secs_f64();
        let mut call = Call::new(Layer::FleetReplica, host_s);
        call.problems = a.count();
        call.executed = a.count();
        call.staged_bytes = ((a.words_per_mat() + b.as_ref().map_or(0, |b| b.words_per_mat()))
            * a.count()
            * 4) as f64;
        if let Ok(fr) = &res {
            call.launches = Launches::of(&fr.output.run);
            call.recovery = fr.output.run.recovery;
        }
        let args = call.span_args();
        cx.rec.leaf(
            Layer::FleetReplica.span(),
            || {
                format!(
                    "{} {}x{} x{}",
                    r0.op.name(),
                    r0.a.rows(),
                    r0.a.cols(),
                    a.count()
                )
            },
            start,
            host_s,
            args,
        );
        cx.pass.calls.push(call);
    }
}
