//! Quickstart: solve a few thousand small linear systems on the simulated
//! GPU, check the residuals, and compare against the predictive model.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use regla::core::host;
use regla::core::prelude::*;
use regla::model::{self, Algorithm, Plan, PlanKey};

fn main() {
    let session = Session::new();
    println!("device: {}\n", session.config().name);

    // 4096 diagonally dominant 32x32 systems A x = b.
    let n = 32;
    let count = 4096;
    let mut a = MatBatch::from_fn(n, n, count, |k, i, j| {
        (((k * 31 + i * 17 + j * 13) % 29) as f32) / 29.0 - 0.4
    });
    for k in 0..count {
        let mut m = a.mat(k);
        m.make_diagonally_dominant();
        a.set_mat(k, &m);
    }
    let b = MatBatch::from_fn(n, 1, count, |k, i, _| ((k + i) % 7) as f32 - 3.0);

    // Price every approach with the predictive model.
    let cfg = session.config();
    let flops = Algorithm::QrSolve.flops(n, n) * count as f64;
    let key = PlanKey::new(Algorithm::QrSolve, n, n, 1, 1, count, MathMode::Fast);
    println!("model-priced design space for {count} systems of size {n}x{n}:");
    for approach in Approach::ALL {
        let plan = Plan::new(approach);
        if let Some(cycles) = model::price(session.params(), cfg, &key, &plan, count) {
            let secs = cfg.cycles_to_secs(cycles);
            println!(
                "  {:28} {:>8.1} GFLOPS  ({:.3} ms)",
                approach.name(),
                flops / secs / 1e9,
                secs * 1e3
            );
        }
    }

    // Solve on the (simulated) GPU via QR, next to the model's price of
    // the plan the session resolves for this call.
    let priced = session.price::<f32>(Op::QrSolve, n, n, 1, count, session.opts());
    let run = session.qr_solve(&a, &b).unwrap();
    println!(
        "\nexecuted with {} in {:.3} ms at {:.1} GFLOPS (model: {:.3} ms)",
        run.approach.name(),
        run.time_s() * 1e3,
        run.gflops(),
        cfg.cycles_to_secs(priced.expect("the model prices a QR solve")) * 1e3
    );

    // Launch anatomy from the simulator.
    print!("\n{}", run.stats.launches[0].summary());

    // Verify the residuals against the original systems.
    let mut worst: f64 = 0.0;
    for k in 0..count {
        let x: Vec<f32> = (0..n).map(|i| run.out.get(k, i, n)).collect();
        let bk: Vec<f32> = (0..n).map(|i| b.get(k, i, 0)).collect();
        worst = worst.max(host::residual_norm(&a.mat(k), &x, &bk));
    }
    println!("worst residual over {count} systems: {worst:.2e}");
    assert!(worst < 1e-2, "solutions verified");
    println!("all systems solved correctly");
}
