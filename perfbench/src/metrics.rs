//! End-to-end and per-layer metrics derived from the recorded passes.

use crate::workloads::{Call, Layer, Pass, ServeRate};
use crate::Workload;
use regla_model::Approach;

/// One reported metric. `exact` marks the deterministic ones (simulated
/// quantities, counts and ratios of counts), which must repeat bit for
/// bit at any replay thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub exact: bool,
}

fn host(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: false,
    }
}

fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: true,
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile (`q` in 0..=1), as `ServeReport` computes it.
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (s / n as f64).exp()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn session_calls(p: &Pass) -> impl Iterator<Item = &Call> {
    p.calls.iter().filter(|c| c.layer == Layer::Session)
}

/// The end-to-end metrics of an untraced run. Simulated metrics come from
/// the first [`crate::sim_passes`] passes, so they do not depend on how
/// many passes the host managed; host metrics are medians over passes.
pub fn end_to_end(w: Workload, passes: &[Pass], setup_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let ok: usize = passes.iter().map(|p| p.ok).sum();
    let ok_frac = ratio(ok as f64, attempted as f64);
    let sim = &passes[..crate::sim_passes(w).min(passes.len())];
    let walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let mut out = vec![
        host("wall_s", "s", median(&walls)),
        host("setup_s", "s", median(setup_s)),
        host("peak_rss_mb", "MiB", peak_rss_mb),
        exact("ok_frac", "ratio", ok_frac),
    ];
    let pct = |v: &[f64]| (percentile(v, 0.5), percentile(v, 0.99));
    let (gflops, err_pct, light, busy, slo) = if w == Workload::Serve {
        // Rate `i` pooled over the simulated passes.
        let rate = |i: usize| sim.iter().map(move |p| &p.serve[i]);
        let sum = |i: usize, f: &dyn Fn(&ServeRate) -> f64| rate(i).map(f).sum::<f64>();
        let rates = 0..sim[0].serve.len();
        let gflops = geomean(
            rates
                .clone()
                .map(|i| sum(i, &|r| r.gflop) / sum(i, &|r| r.report.busy_s)),
        );
        let err = rates
            .clone()
            .map(|i| {
                let busy = sum(i, &|r| r.report.busy_s);
                (sum(i, &|r| r.predicted_busy_s) - busy).abs() / busy * 100.0
            })
            .sum::<f64>()
            / rates.len() as f64;
        let lat_ms = |i: usize| -> Vec<f64> {
            rate(i)
                .flat_map(|r| r.latencies_s.iter().map(|l| l * 1e3))
                .collect()
        };
        let offered: f64 = rates
            .clone()
            .map(|i| sum(i, &|r| r.report.offered as f64))
            .sum();
        let slo_ok: f64 = rates.map(|i| sum(i, &|r| r.slo_ok as f64)).sum();
        (
            gflops,
            err,
            pct(&lat_ms(0)),
            pct(&lat_ms(1)),
            ratio(slo_ok, offered),
        )
    } else {
        let first = &sim[0];
        let calls: Vec<&Call> = session_calls(first).collect();
        let gflops = geomean(calls.iter().map(|c| c.gflops).filter(|&g| g > 0.0));
        let priced: Vec<f64> = calls
            .iter()
            .filter_map(|c| {
                c.model
                    .map(|(_, pred, sim)| (pred - sim).abs() / sim * 100.0)
            })
            .collect();
        let err = priced.iter().sum::<f64>() / priced.len().max(1) as f64;
        // A closed loop has no queue: a call's latency is its simulated
        // duration. The busy figures offer the same calls all at once to
        // one device, so each waits for every call before it.
        let lat_ms: Vec<f64> = calls.iter().map(|c| c.sim_s * 1e3).collect();
        let burst_ms: Vec<f64> = lat_ms
            .iter()
            .scan(0.0, |acc, x| {
                *acc += x;
                Some(*acc)
            })
            .collect();
        let first_ok = ratio(first.ok as f64, first.attempted as f64);
        (gflops, err, pct(&lat_ms), pct(&burst_ms), first_ok)
    };
    out.extend([
        exact("sim_gflops", "GFLOP/s", gflops),
        exact("model_err_pct", "%", err_pct),
        exact("sim_p50_ms", "sim_ms", light.0),
        exact("sim_p99_ms", "sim_ms", light.1),
        exact("sim_p50_ms.busy", "sim_ms", busy.0),
        exact("sim_p99_ms.busy", "sim_ms", busy.1),
        exact("slo_frac", "ratio", slo),
    ]);
    out
}

/// Per-layer metrics of one traced pass.
fn layer_pass(p: &Pass) -> Vec<Metric> {
    let sess: Vec<&Call> = session_calls(p).collect();
    // Calls that launched kernels for the workload: the session calls, or
    // the fleet replica of the serve dispatches.
    let launching: Vec<&Call> = p
        .calls
        .iter()
        .filter(|c| matches!(c.layer, Layer::Session | Layer::FleetReplica))
        .collect();
    let sum = |cs: &[&Call], f: &dyn Fn(&Call) -> f64| cs.iter().map(|c| f(c)).sum::<f64>();
    let session_s = sum(&sess, &|c| c.host_s);
    let session_launch_s = sum(&sess, &|c| c.launches.host_s);
    let launches = sum(&launching, &|c| c.launches.count as f64);
    let launch_s = sum(&launching, &|c| c.launches.host_s);
    let traced = sum(&launching, &|c| c.launches.traced_blocks as f64);
    let replay = sum(&launching, &|c| c.launches.replay_blocks as f64);
    let util_n = sum(&launching, &|c| c.launches.util_n as f64);
    let model_err = |ap| {
        let errs: Vec<f64> = sess
            .iter()
            .filter_map(|c| c.model)
            .filter(|m| m.0 == ap)
            .map(|(_, pred, sim)| (pred - sim).abs() / sim * 100.0)
            .collect();
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    };
    let serve_s: f64 = p
        .calls
        .iter()
        .filter(|c| c.layer == Layer::Serve)
        .map(|c| c.host_s)
        .sum();
    let rates = &p.serve;
    let rsum = |f: &dyn Fn(&ServeRate) -> f64| rates.iter().map(f).sum::<f64>();
    let dispatches = rsum(&|r| r.report.dispatches as f64);
    let fleet_launches = rsum(&|r| {
        r.report
            .device_dispatches
            .iter()
            .map(|d| d.1 as f64)
            .sum::<f64>()
    });
    vec![
        exact("core.session.calls", "count", sess.len() as f64),
        host("core.session.s", "s", session_s),
        host("core.harness_s", "s", session_s - session_launch_s),
        exact(
            "core.staged_mb",
            "MiB",
            sum(&launching, &|c| c.staged_bytes) / (1u64 << 20) as f64,
        ),
        exact(
            "core.executed_frac",
            "ratio",
            ratio(
                sum(&launching, &|c| c.executed as f64),
                sum(&launching, &|c| c.problems as f64),
            ),
        ),
        exact("gpu-sim.launches", "count", launches),
        host("gpu-sim.launch_s", "s", launch_s),
        exact("gpu-sim.traced_blocks", "count", traced),
        exact("gpu-sim.replay_blocks", "count", replay),
        exact(
            "gpu-sim.cache_hit_frac",
            "ratio",
            ratio(sum(&launching, &|c| c.launches.cache_hits as f64), launches),
        ),
        exact(
            "gpu-sim.fast_frac",
            "ratio",
            ratio(sum(&launching, &|c| c.launches.fast as f64), launches),
        ),
        host(
            "gpu-sim.worker_util",
            "ratio",
            ratio(sum(&launching, &|c| c.launches.util_sum), util_n),
        ),
        host(
            "gpu-sim.host_us_per_block",
            "us",
            ratio(launch_s * 1e6, traced + replay),
        ),
        exact(
            "core.verify.problems",
            "count",
            sum(&sess, &|c| c.verified as f64),
        ),
        exact(
            "core.verify.failures",
            "count",
            sum(&sess, &|c| c.recovery.verify_failures as f64),
        ),
        host("core.verify_s", "s", sum(&sess, &|c| c.verify_s)),
        exact(
            "core.recovery.retried",
            "count",
            sum(&sess, &|c| c.recovery.retried as f64),
        ),
        exact(
            "core.recovery.fell_back",
            "count",
            sum(&sess, &|c| c.recovery.fell_back as f64),
        ),
        exact(
            "core.recovery.unrecovered",
            "count",
            sum(&sess, &|c| c.recovery.unrecovered as f64),
        ),
        exact(
            "model.err_pct.per_thread",
            "%",
            model_err(Approach::PerThread),
        ),
        exact(
            "model.err_pct.per_block",
            "%",
            model_err(Approach::PerBlock),
        ),
        exact("model.err_pct.tiled", "%", model_err(Approach::Tiled)),
        exact("core.fleet.launches", "count", fleet_launches),
        exact(
            "core.fleet.launches_per_dispatch",
            "ratio",
            ratio(fleet_launches, dispatches),
        ),
        exact(
            "core.fleet.failovers",
            "count",
            rsum(&|r| r.failovers as f64),
        ),
        exact("core.fleet.steals", "count", rsum(&|r| r.steals as f64)),
        exact(
            "core.fleet.deadline_misses",
            "count",
            rsum(&|r| r.deadline_misses as f64),
        ),
        host("serve.s", "s", serve_s),
        exact("serve.dispatches", "count", dispatches),
        host(
            "serve.host_ms_per_dispatch",
            "ms",
            ratio(serve_s * 1e3, dispatches),
        ),
        exact(
            "serve.coalescing",
            "ratio",
            ratio(rsum(&|r| r.report.served as f64), dispatches),
        ),
        exact(
            "serve.busy_frac",
            "ratio",
            ratio(rsum(&|r| r.report.busy_s), rsum(&|r| r.report.makespan_s)),
        ),
        exact("serve.late", "count", rsum(&|r| r.report.late as f64)),
        exact("serve.shed", "count", rsum(&|r| r.report.shed as f64)),
        host("bench.gen_s", "s", p.gen_s),
        host("bench.check_s", "s", p.check_s),
    ]
}

/// The per-layer metrics of a traced run: each one the median over the
/// traced passes, plus the traced and untraced wall time per pass and the
/// tracing overhead between them.
pub fn per_layer(traced: &[Pass], untraced: &[Pass]) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = traced.iter().map(layer_pass).collect();
    let mut out: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(&per_pass.iter().map(|p| p[i].value).collect::<Vec<_>>()),
            ..m.clone()
        })
        .collect();
    let wall = |ps: &[Pass]| median(&ps.iter().map(Pass::wall_s).collect::<Vec<_>>());
    let (t, u) = (wall(traced), wall(untraced));
    out.extend([
        host("bench.wall_s.traced", "s", t),
        host("bench.wall_s.untraced", "s", u),
        host("bench.trace_overhead_pct", "%", ratio(t - u, u) * 100.0),
    ]);
    out
}
