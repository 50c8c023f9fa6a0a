//! Serving-layer invariants: served outputs are bit-identical to direct
//! `Session` runs for any interleaving, the traffic generator and the
//! whole served campaign are deterministic across host-thread counts,
//! and admission control sheds with structured errors.

use proptest::prelude::*;
use regla_core::{Fleet, MatBatch, Op, RunOpts, Session};
use regla_gpu_sim::GpuConfig;
use regla_serve::{generate_requests, ServeConfig, ServeEngine, ServeError, SolveRequest, TrafficConfig};

fn dd_batch(n: usize, count: usize, seed: usize) -> MatBatch<f32> {
    MatBatch::from_fn(n, n, count, |k, i, j| {
        let h = ((k * 131 + i * 37 + j * 101 + seed) % 97) as f32 / 97.0;
        h + if i == j { n as f32 } else { 0.0 }
    })
}

fn rhs_batch(n: usize, count: usize, seed: usize) -> MatBatch<f32> {
    MatBatch::from_fn(n, 1, count, |k, i, _| ((k + i * 3 + seed) % 11) as f32 - 5.0)
}

fn bits(b: &MatBatch<f32>) -> Vec<u32> {
    b.data().iter().map(|v| v.to_bits()).collect()
}

fn single_device_engine(cfg: ServeConfig) -> ServeEngine {
    let fleet = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .build()
        .unwrap();
    ServeEngine::new(fleet, cfg)
}

/// Build the request a proptest case described.
fn make_request(id: u64, case: (usize, usize, usize, usize)) -> SolveRequest<f32> {
    let (op_idx, n, count, gap_us) = case;
    let op = [Op::Lu, Op::Qr, Op::GjSolve][op_idx % 3];
    let a = dd_batch(n, count, id as usize * 7 + n);
    let mut req = SolveRequest::new(id, op, a)
        .arrival_s(id as f64 * 1e-7 + gap_us as f64 * 1e-6)
        .client(id as usize % 3);
    if op.needs_rhs() {
        req = req.rhs(rhs_batch(n, count, id as usize));
    }
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of served requests — whatever the coalescer does
    /// with them — produces per-request outputs bit-identical to running
    /// each request directly on a single `Session`.
    #[test]
    fn served_outputs_match_direct_session_bit_for_bit(
        cases in prop::collection::vec(
            (0usize..3, 5usize..10, 1usize..24, 0usize..40),
            1..7,
        ),
        latency_budget_us in prop::sample::select(vec![1usize, 50, 5000]),
    ) {
        let reqs: Vec<SolveRequest<f32>> = cases
            .iter()
            .enumerate()
            .map(|(i, c)| make_request(i as u64, *c))
            .collect();
        let originals = reqs.clone();

        let cfg = ServeConfig::default()
            .latency_budget_s(latency_budget_us as f64 * 1e-6)
            .backlog_budget_s(f64::INFINITY);
        let mut engine = single_device_engine(cfg);
        let outcome = engine.serve(reqs);
        prop_assert_eq!(outcome.report.served, originals.len());
        prop_assert_eq!(outcome.report.request_errors, 0);

        let session = Session::with_config(GpuConfig::quadro_6000());
        for resp in &outcome.responses {
            let orig = &originals[resp.id as usize];
            let direct = session
                .run(orig.op, &orig.a, orig.b.as_ref())
                .expect("direct run succeeds");
            let served = resp.result.as_ref().expect("request served");
            prop_assert_eq!(bits(&served.run.out), bits(&direct.run.out));
            prop_assert_eq!(&served.run.status, &direct.run.status);
            match (&served.run.taus, &direct.run.taus) {
                (Some(a), Some(b)) => prop_assert_eq!(bits(a), bits(b)),
                (None, None) => {}
                _ => prop_assert!(false, "tau presence diverged"),
            }
            match (&served.solution, &direct.solution) {
                (Some(a), Some(b)) => prop_assert_eq!(bits(a), bits(b)),
                (None, None) => {}
                _ => prop_assert!(false, "solution presence diverged"),
            }
        }
    }
}

/// The synthetic traffic stream is a pure function of its seed, and the
/// whole served campaign — latencies, shed decisions, output bits — is
/// identical whether dispatches replay on 1 or 4 host threads.
#[test]
fn served_campaign_is_deterministic_across_host_threads() {
    let traffic = TrafficConfig::mixed(48, 1500.0, 0x5EED);
    let r1 = generate_requests(&traffic);
    let r2 = generate_requests(&traffic);
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
        assert_eq!(a.op, b.op);
        assert_eq!(bits(&a.a), bits(&b.a));
    }

    let outcome_with = |threads: usize| {
        let opts = RunOpts::builder().host_threads(threads).build().unwrap();
        let mut engine = single_device_engine(ServeConfig::default().opts(opts));
        engine.serve(generate_requests(&traffic))
    };
    let o1 = outcome_with(1);
    let o4 = outcome_with(4);
    assert_eq!(o1.report, o4.report);
    for (a, b) in o1.responses.iter().zip(&o4.responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.completion_s.to_bits(), b.completion_s.to_bits());
        match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => assert_eq!(bits(&x.run.out), bits(&y.run.out)),
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("outcome diverged across host-thread counts"),
        }
    }
}

#[test]
fn queue_capacity_sheds_with_structured_error() {
    // Capacity 1 and a huge latency budget: the second simultaneous
    // request finds the queue full.
    let cfg = ServeConfig::default()
        .queue_capacity(1)
        .latency_budget_s(1.0)
        .backlog_budget_s(f64::INFINITY);
    let mut engine = single_device_engine(cfg);
    let reqs = vec![
        SolveRequest::new(0, Op::Lu, dd_batch(8, 16, 1)).arrival_s(0.0),
        SolveRequest::new(1, Op::Lu, dd_batch(8, 16, 2)).arrival_s(1e-9),
    ];
    let outcome = engine.serve(reqs);
    assert_eq!(outcome.report.served, 1);
    assert_eq!(outcome.report.shed, 1);
    assert!(outcome.report.shed_rate > 0.49);
    let shed = &outcome.responses[1];
    assert!(matches!(
        shed.result,
        Err(ServeError::QueueFull { queued: 1, capacity: 1 })
    ));
}

#[test]
fn backlog_budget_sheds_with_structured_error() {
    let cfg = ServeConfig::default().backlog_budget_s(1e-12);
    let mut engine = single_device_engine(cfg);
    let outcome = engine.serve(vec![
        SolveRequest::new(0, Op::Lu, dd_batch(8, 64, 1)).arrival_s(0.0)
    ]);
    assert_eq!(outcome.report.shed, 1);
    match &outcome.responses[0].result {
        Err(ServeError::BacklogExceeded {
            predicted_backlog_s,
            budget_s,
        }) => {
            assert!(*predicted_backlog_s > *budget_s);
        }
        other => panic!("expected BacklogExceeded, got {other:?}"),
    }
}

#[test]
fn malformed_requests_fail_without_dispatching() {
    let mut engine = single_device_engine(ServeConfig::default());
    let outcome = engine.serve(vec![
        // Missing right-hand side.
        SolveRequest::new(0, Op::GjSolve, dd_batch(8, 4, 1)).arrival_s(0.0),
        // Empty batch.
        SolveRequest::new(1, Op::Lu, MatBatch::<f32>::zeros(8, 8, 0)).arrival_s(1e-6),
    ]);
    assert_eq!(outcome.report.request_errors, 2);
    assert_eq!(outcome.report.dispatches, 0);
    assert!(matches!(
        outcome.responses[0].result,
        Err(ServeError::InvalidRequest(_))
    ));
}

#[test]
fn compatible_requests_coalesce_and_incompatible_do_not() {
    let cfg = ServeConfig::default()
        .latency_budget_s(1.0)
        .backlog_budget_s(f64::INFINITY);
    let mut engine = single_device_engine(cfg.clone());
    // Three compatible LU 8x8 requests arriving together: one dispatch.
    let outcome = engine.serve(vec![
        SolveRequest::new(0, Op::Lu, dd_batch(8, 8, 1)).arrival_s(0.0),
        SolveRequest::new(1, Op::Lu, dd_batch(8, 8, 2)).arrival_s(1e-9),
        SolveRequest::new(2, Op::Lu, dd_batch(8, 8, 3)).arrival_s(2e-9),
    ]);
    assert_eq!(outcome.report.dispatches, 1);
    assert!((outcome.report.coalescing - 3.0).abs() < 1e-12);

    // A shape mismatch splits the dispatch.
    let mut engine = single_device_engine(cfg);
    let outcome = engine.serve(vec![
        SolveRequest::new(0, Op::Lu, dd_batch(8, 8, 1)).arrival_s(0.0),
        SolveRequest::new(1, Op::Lu, dd_batch(9, 8, 2)).arrival_s(1e-9),
    ]);
    assert_eq!(outcome.report.dispatches, 2);
}

/// Chaos under load: a device death mid-campaign surfaces as latency (the
/// fleet rescues the shards), never as request errors, and the campaign
/// reruns bit-identically.
#[test]
fn device_death_under_load_causes_no_request_errors() {
    use regla_core::ChaosPlan;
    let run_once = || {
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::gt200())
            .chaos(ChaosPlan::new(13).device_death(1, 2))
            .build()
            .unwrap();
        let mut engine = ServeEngine::new(
            fleet,
            ServeConfig::default().backlog_budget_s(f64::INFINITY),
        );
        engine.serve(generate_requests(&TrafficConfig::mixed(40, 1200.0, 77)))
    };
    let o1 = run_once();
    assert_eq!(o1.report.request_errors, 0);
    assert_eq!(o1.report.served + o1.report.shed, o1.report.offered);
    assert!(o1.report.served > 0);
    let o2 = run_once();
    assert_eq!(o1.report, o2.report);
    for (a, b) in o1.responses.iter().zip(&o2.responses) {
        if let (Ok(x), Ok(y)) = (&a.result, &b.result) {
            assert_eq!(bits(&x.run.out), bits(&y.run.out));
        }
    }
}

/// A healthy two-device fleet launches each device's share of a dispatch
/// once, so a served stream issues at most one device dispatch per
/// device per fleet dispatch.
#[test]
fn healthy_fleet_dispatches_each_device_at_most_once_per_dispatch() {
    let fleet = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::gt200())
        .build()
        .unwrap();
    let mut engine = ServeEngine::new(
        fleet,
        ServeConfig::default().backlog_budget_s(f64::INFINITY),
    );
    let report = engine
        .serve(generate_requests(&TrafficConfig::mixed(40, 1200.0, 77)))
        .report;
    assert!(report.dispatches > 0);
    let device_dispatches: usize = report.device_dispatches.iter().map(|(_, n)| n).sum();
    assert!(
        device_dispatches <= 2 * report.dispatches,
        "{device_dispatches} device dispatches for {} fleet dispatches",
        report.dispatches
    );
}
