//! Every simulated and count metric of every workload is bit-identical at
//! one and two replay threads: what simulator-speed changes must preserve.

use regla_perfbench::metrics::Metric;
use regla_perfbench::{measure, Scale, Settings, Workload};

fn exact_metrics(w: Workload, host_threads: usize, traced: bool) -> Vec<Metric> {
    let s = Settings {
        workload: w,
        seed: 7,
        host_threads,
        scale: Scale::Tiny,
    };
    let out = measure(&s, 0.0, traced);
    assert!(
        out.correct,
        "{} outputs must match the host reference",
        w.name()
    );
    assert_eq!(out.failed, 0, "{}: no operation may fail", w.name());
    out.metrics.into_iter().filter(|m| m.exact).collect()
}

fn assert_bit_identical(w: Workload, traced: bool) {
    let one = exact_metrics(w, 1, traced);
    let two = exact_metrics(w, 2, traced);
    assert!(!one.is_empty());
    assert_eq!(one.len(), two.len());
    for (a, b) in one.iter().zip(&two) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "{} {}: {} at 1 thread vs {} at 2",
            w.name(),
            a.name,
            a.value,
            b.value
        );
    }
}

#[test]
fn sweep_is_bit_identical_across_replay_threads() {
    assert_bit_identical(Workload::Sweep, false);
    assert_bit_identical(Workload::Sweep, true);
}

#[test]
fn batch_is_bit_identical_across_replay_threads() {
    assert_bit_identical(Workload::Batch, false);
    assert_bit_identical(Workload::Batch, true);
}

#[test]
fn serve_is_bit_identical_across_replay_threads() {
    assert_bit_identical(Workload::Serve, false);
    assert_bit_identical(Workload::Serve, true);
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in Workload::ALL {
        let s = Settings {
            workload: w,
            seed: 7,
            host_threads: 2,
            scale: Scale::Tiny,
        };
        for m in measure(&s, 0.0, false).metrics {
            assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
        }
    }
}
