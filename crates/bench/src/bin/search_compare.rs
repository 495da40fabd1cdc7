//! Compare the four distribution-search strategies of the companion
//! work \[26\] — Generalized Binary Search over the spectrum, genetic,
//! simulated annealing, and random — all using MHETA as the evaluation
//! function (§5.3).
//!
//! For each (configuration, application): run every search with the
//! same evaluation budget, then *actually execute* the found
//! distribution to score it against the spectrum's true best.
//!
//! ```text
//! cargo run --release -p mheta-bench --bin search_compare
//! ```
//!
//! Pass `--telemetry <dir>` to also write each (configuration,
//! application) pair's convergence curves as JSON and CSV (see
//! `mheta_obs::telemetry`). Everything printed and written is a pure
//! function of the flags: two runs `cmp` equal.

use mheta_apps::{anchor_inputs, build_model, run_measured};
use mheta_bench::{experiment_iters, select_apps, Flags};
use mheta_dist::{
    gbs_search, genetic_search, random_search, simulated_annealing, AnnealingConfig, GbsConfig,
    GenBlock, GeneticConfig, RandomConfig, SearchOutcome, SpectrumPath,
};
use mheta_obs::telemetry;
use mheta_sim::presets;

fn main() {
    let flags = Flags::from_env();
    let budget = flags.usize_or("--budget", 64);
    let telemetry_dir = flags.value("--telemetry").map(str::to_string);
    if let Some(dir) = &telemetry_dir {
        std::fs::create_dir_all(dir).expect("create telemetry dir");
    }

    println!("Distribution search comparison (budget {budget} MHETA evaluations)");
    println!(
        "{:<5} {:<8} {:<9} {:>6} {:>10} {:>10} {:>8} {:>7}",
        "arch", "app", "search", "evals", "pred(s)", "actual(s)", "vs Blk", "delta%"
    );

    for spec in [presets::io(), presets::hy1(), presets::hy2()] {
        for bench in select_apps(&flags) {
            let iters = experiment_iters(&bench);
            let model = build_model(&bench, &spec, false)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), spec.name));
            let inp = anchor_inputs(&model);
            let path = SpectrumPath::new(&inp);
            let n = spec.len();
            let total = bench.total_rows();
            let blk = GenBlock::block(total, n);
            let blk_act = run_measured(&bench, &spec, &blk, iters, false)
                .expect("Blk run")
                .secs;

            let searches: Vec<(&str, SearchOutcome)> = vec![
                (
                    "GBS",
                    gbs_search(
                        &path,
                        &model,
                        GbsConfig {
                            max_evals: budget,
                            ..GbsConfig::default()
                        },
                    ),
                ),
                (
                    "genetic",
                    genetic_search(
                        total,
                        n,
                        std::slice::from_ref(&blk),
                        &model,
                        GeneticConfig {
                            max_evals: budget,
                            ..GeneticConfig::default()
                        },
                    ),
                ),
                (
                    "anneal",
                    simulated_annealing(
                        &blk,
                        &model,
                        AnnealingConfig {
                            max_evals: budget,
                            ..AnnealingConfig::default()
                        },
                    ),
                ),
                (
                    "random",
                    random_search(
                        total,
                        n,
                        &model,
                        RandomConfig {
                            max_evals: budget,
                            ..RandomConfig::default()
                        },
                    ),
                ),
            ];

            if let Some(dir) = &telemetry_dir {
                let runs: Vec<(&str, &SearchOutcome)> =
                    searches.iter().map(|(n, o)| (*n, o)).collect();
                let stem = format!("{}_{}", spec.name, bench.name().to_lowercase());
                std::fs::write(
                    format!("{dir}/search_{stem}.json"),
                    telemetry::searches_json(&runs),
                )
                .expect("write telemetry json");
                std::fs::write(
                    format!("{dir}/convergence_{stem}.csv"),
                    telemetry::convergence_csv(&runs),
                )
                .expect("write convergence csv");
            }

            for (name, outcome) in searches {
                let act = run_measured(&bench, &spec, &outcome.best, iters, false)
                    .expect("search-result run")
                    .secs;
                println!(
                    "{:<5} {:<8} {:<9} {:>6} {:>9.2}s {:>9.2}s {:>7.2}x {:>6.0}%",
                    spec.name,
                    bench.name(),
                    name,
                    outcome.evaluations,
                    outcome.score_ns * f64::from(iters) / 1e9,
                    act,
                    blk_act / act,
                    outcome.delta.hit_rate() * 100.0,
                );
            }
        }
    }
    println!("\n'vs Blk' = actual speedup of the found distribution over the Block default.");
    println!(
        "'delta%' = share of evaluations answered incrementally from cached \
         leaves (random's samples share almost nothing with a base: ~0)."
    );
}
