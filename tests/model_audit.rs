//! Property-based tests of the two exactness guarantees behind the
//! prediction-accuracy attribution engine:
//!
//! 1. the model's term decomposition sums *exactly* (bitwise, not
//!    within an epsilon) at every level of the hierarchy — stages fold
//!    into sections, sections into ranks, and the coarse
//!    `NodeBreakdown` view is precisely the grouped terms;
//! 2. the audit's per-term residual lines partition the total residual
//!    (predicted − actual) exactly, and its actual-side terms partition
//!    each rank's timed window exactly, across seeds, applications,
//!    and fault plans.
//!
//! Only `per_node_ns` — which comes off the simulated warmup clock, not
//! the term fold — is compared with a relative epsilon.

use mheta::obs::AuditReport;
use mheta::prelude::*;
use mheta::sim::{DegradeSpec, FaultSpec, RecoverSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared heterogeneous model (building per case would dominate).
fn shared_model() -> &'static (Mheta, usize) {
    static MODEL: OnceLock<(Mheta, usize)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut spec = ClusterSpec::homogeneous(4);
        spec.nodes[1].cpu_power = 0.5;
        spec.nodes[2].memory_bytes = 4 * 1024;
        let bench = Benchmark::Jacobi(Jacobi::small());
        let model = build_model(&bench, &spec, false).expect("model builds");
        (model, bench.total_rows())
    })
}

fn arb_distribution(total: usize, n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1.0f64..100.0, n..=n)
        .prop_map(move |w| GenBlock::apportion(total, &w).rows().to_vec())
}

/// A noise-free spec with an explicit seed and mild heterogeneity.
fn quiet(n: usize, seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(n);
    spec.nodes[1].cpu_power = 0.6;
    spec.noise.amplitude = 0.0;
    spec.seed = seed;
    spec
}

/// The fault plan used by the "faulty" audit cases: every fault class
/// enabled at a moderate rate, and a degrade window whose rank and
/// start `seed` picks.
fn faults(seed: u64) -> FaultSpec {
    let from = 6_000_000 + seed % 2_000_000;
    FaultSpec {
        disk_read_fault_rate: 0.10,
        disk_write_fault_rate: 0.05,
        msg_resend_rate: 0.05,
        degrades: vec![DegradeSpec::at_time((seed % 4) as usize, from, 1.5)
            .recovering(RecoverSpec::at_time(from + 2_000_000))],
        ..FaultSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary distributions, the hierarchy of term folds is
    /// bitwise self-consistent: summing stage terms then comm per
    /// section, then sections per rank, reproduces `rank_terms`
    /// exactly, and the coarse `NodeBreakdown` is the grouped view of
    /// the same numbers.
    #[test]
    fn term_folds_are_bitwise_exact_at_every_level(
        rows in arb_distribution(64, 4),
    ) {
        let (model, _) = shared_model();
        let p = model.predict(&rows).unwrap();
        for (rank, rt) in p.terms.iter().enumerate() {
            // Manual fixed-order fold over the leaves.
            let mut manual = mheta::core::TermBreakdown::default();
            for sec in &rt.sections {
                let mut sec_total = mheta::core::TermBreakdown::default();
                for st in &sec.stages {
                    sec_total.add(&st.terms);
                    // Stage leaves never carry comm terms.
                    prop_assert_eq!(st.terms.comm_ns(), 0.0);
                }
                sec_total.add(&sec.comm);
                // The section's own fold agrees bitwise.
                prop_assert_eq!(
                    sec_total.total_ns().to_bits(),
                    sec.totals().total_ns().to_bits()
                );
                manual.add(&sec_total);
            }
            let folded = p.rank_terms(rank);
            prop_assert_eq!(manual.total_ns().to_bits(), folded.total_ns().to_bits());

            // Coarse view == grouped terms, exactly.
            prop_assert_eq!(p.breakdown[rank].compute_ns.to_bits(), folded.compute_ns.to_bits());
            prop_assert_eq!(p.breakdown[rank].io_ns.to_bits(), folded.io_ns().to_bits());
            prop_assert_eq!(p.breakdown[rank].comm_ns.to_bits(), folded.comm_ns().to_bits());

            // The clock-derived steady-state time matches the fold to
            // f64 accumulation error only.
            let total = folded.total_ns();
            prop_assert!(
                (total - p.per_node_ns[rank]).abs() <= 1e-6 * p.per_node_ns[rank].abs() + 1e-6,
                "rank {}: fold {} vs clock {}", rank, total, p.per_node_ns[rank]
            );
        }
    }
}

proptest! {
    // Each case runs the simulator, so keep the count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The audit's invariants hold for any seed, application, and
    /// fault plan: the actual-side terms partition each rank's timed
    /// window exactly (u64 arithmetic), and the per-term residual
    /// lines fold bitwise into the rank and report residuals.
    #[test]
    fn audit_terms_partition_the_residual_exactly(
        seed in any::<u64>(),
        app in 0usize..4,
        faulty in any::<bool>(),
    ) {
        // The model is built (microbenchmarks included) on the
        // fault-free spec; faults apply to the audited run only.
        let mut spec = quiet(4, seed);
        let bench = Benchmark::small_four().swap_remove(app);
        let iters = 2;
        let model = build_model(&bench, &spec, false).unwrap();
        if faulty {
            spec.faults = faults(seed);
        }
        let blk = GenBlock::block(bench.total_rows(), spec.len());
        let pred = model.predict(blk.rows()).unwrap();
        let obs = run_observed(&bench, &spec, &blk, iters, false).unwrap();
        let report = AuditReport::audit(&pred, iters, &obs.traces, &obs.windows);

        let mut report_fold = 0.0f64;
        for audit in &report.ranks {
            // Actual-side terms partition the window, exactly.
            let actual: u64 = audit.lines.iter().map(|l| l.actual_ns).sum();
            prop_assert_eq!(actual, audit.window_ns);
            prop_assert_eq!(audit.actual_total_ns(), audit.window_ns);

            // Residual lines fold bitwise into the rank residual.
            let fold = audit.lines.iter().fold(0.0f64, |a, l| a + l.residual_ns);
            prop_assert_eq!(fold.to_bits(), audit.residual_ns().to_bits());

            // And each line is itself predicted − actual.
            for l in &audit.lines {
                let expect = l.predicted_ns - l.actual_ns as f64;
                prop_assert_eq!(l.residual_ns.to_bits(), expect.to_bits());
            }
            report_fold += audit.residual_ns();
        }
        prop_assert_eq!(report_fold.to_bits(), report.total_residual_ns().to_bits());
    }
}
