//! # mheta-dist — data distributions and distribution search
//!
//! The `GEN_BLOCK` machinery around the MHETA model: validated
//! distributions ([`GenBlock`]), the four anchor distributions of the
//! paper's Figure 8 ([`anchors`]), the interpolated spectrum walked in
//! the evaluation ([`SpectrumPath`]), and the four search algorithms of
//! the companion work \[26\] — Generalized Binary Search, genetic,
//! simulated annealing, and random — all using MHETA as their
//! evaluation function.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod anchors;
pub mod delta;
pub mod fitness;
pub mod genblock;
pub mod online;
pub mod redistribution;
pub mod search;
pub mod spectrum;

pub use anchors::{bal, blk, ic, ic_bal, AnchorInputs};
pub use delta::{DeltaEvaluator, DeltaModel, DeltaSession, DeltaStats};
pub use fitness::{EvalError, Evaluator, FallibleFn};
pub use genblock::{GenBlock, GenBlockError};
pub use online::{OnlinePolicy, Replan};
pub use redistribution::{
    move_clocks, predict_cost_ns, rows_moved, switch_benefit_ns, transfer_plan, Transfer,
};
pub use search::{
    gbs_search, genetic_search, portfolio_search, random_search, simulated_annealing,
    AnnealingConfig, GbsConfig, GeneticConfig, IterPoint, PortfolioConfig, PortfolioOutcome,
    RandomConfig, SearchOutcome, Strategy, StrategyRun,
};
pub use spectrum::{SpectrumPath, SpectrumPoint};
