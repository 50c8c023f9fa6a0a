//! Explore the design space with the predictive model (the paper's
//! Section VI discussion turned into a tool): for a grid of problem sizes
//! and batch counts, price every approach with `regla::model::price` and
//! print the cheapest one with its predicted throughput.
//!
//! ```sh
//! cargo run --release --example model_explorer
//! ```

use regla::core::prelude::*;
use regla::model::{price, Algorithm, ModelParams, Plan, PlanKey};

fn main() {
    let params = ModelParams::table_iv();
    let cfg = Gpu::quadro_6000().cfg;
    println!(
        "model-priced design space for batched single-precision QR on {}\n",
        cfg.name
    );

    // Every priced approach for `batch` n x n QRs with its predicted
    // seconds and GFLOP/s, cheapest first.
    let design_space = |n: usize, batch: usize| {
        let key = PlanKey::new(Algorithm::Qr, n, n, 0, 1, batch, MathMode::Fast);
        let flops = Algorithm::Qr.flops(n, n) * batch as f64;
        let mut priced: Vec<(Approach, f64, f64)> = Approach::ALL
            .into_iter()
            .filter_map(|a| {
                let secs = cfg.cycles_to_secs(price(&params, &cfg, &key, &Plan::new(a), batch)?);
                Some((a, secs, flops / secs / 1e9))
            })
            .collect();
        priced.sort_by(|x, y| x.1.total_cmp(&y.1));
        priced
    };

    let sizes = [4, 8, 16, 32, 56, 72, 96, 144, 240, 512, 2048, 8192];
    let batches = [1usize, 100, 10_000];

    println!(
        "{:>6} | {:>24} {:>24} {:>24}",
        "n", "batch=1", "batch=100", "batch=10000"
    );
    println!("{}", "-".repeat(84));
    for &n in &sizes {
        let mut cells = Vec::new();
        for &batch in &batches {
            let (a, _, gflops) = design_space(n, batch)[0];
            cells.push(format!("{} ({gflops:.0} GF)", short(a)));
        }
        println!(
            "{:>6} | {:>24} {:>24} {:>24}",
            n, cells[0], cells[1], cells[2]
        );
    }

    println!(
        "\nThe boundaries follow the paper's Figure 10: register-resident sizes \
         (and n = 8, whose mild spill the per-thread price tolerates) go \
         one-problem-per-thread, the batched small-to-medium regime goes \
         one-problem-per-block, tiled takes over beyond a block's register \
         file, and single or very large factorizations go to the hybrid \
         CPU+GPU library."
    );

    // Every priced approach at the paper's flagship size.
    println!("\nfull design space at 56x56, batch 5000:");
    for (i, (a, secs, gflops)) in design_space(56, 5000).into_iter().enumerate() {
        println!(
            "  {:28} {:>8.1} GFLOPS  ({:.3} ms){}",
            a.name(),
            gflops,
            secs * 1e3,
            if i == 0 { "  <= cheapest" } else { "" }
        );
    }
}

fn short(a: Approach) -> &'static str {
    match a {
        Approach::PerThread => "per-thread",
        Approach::PerBlock => "per-block",
        Approach::Tiled => "tiled",
        Approach::Hybrid => "hybrid",
    }
}
