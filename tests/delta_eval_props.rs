//! Differential tests pinning the incremental (delta) evaluator to the
//! full model: for every application, every Table-1 cluster preset, and
//! arbitrary random move sequences, an incremental evaluation must be
//! **bitwise-identical** (`f64::to_bits`) to a from-scratch
//! `try_eval_ns` — including under injected leaf faults, where an
//! `EvalError` must poison the session's cache and never leak stale
//! terms into a later answer, and under non-finite leaves, which must
//! fail the evaluation rather than score.
//!
//! Case count follows `PROPTEST_CASES` (default 256); CI's `delta-diff`
//! job runs this suite at 256 cases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mheta::dist::{
    random_search, DeltaEvaluator, DeltaModel, DeltaSession, EvalError, Evaluator, RandomConfig,
};
use mheta::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every (application, Table-1 preset) model, built once: 5 apps × 4
/// architectures. Building a model per proptest case would dominate.
fn models() -> &'static Vec<(String, Mheta, usize)> {
    static MODELS: OnceLock<Vec<(String, Mheta, usize)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let specs = [presets::dc(), presets::io(), presets::hy1(), presets::hy2()];
        let benches = [
            Benchmark::Jacobi(Jacobi::small()),
            Benchmark::Cg(Cg::small()),
            Benchmark::Rna(Rna::small()),
            Benchmark::Lanczos(Lanczos::small()),
            Benchmark::Multigrid(Multigrid::small()),
        ];
        let mut out = Vec::new();
        for spec in &specs {
            for bench in &benches {
                let model = build_model(bench, spec, false)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), spec.name));
                out.push((
                    format!("{}@{}", bench.name(), spec.name),
                    model,
                    bench.total_rows(),
                ));
            }
        }
        out
    })
}

/// A random valid distribution of `total` rows over `n` ranks.
fn random_distribution(rng: &mut SmallRng, total: usize, n: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
    GenBlock::apportion(total, &weights).rows().to_vec()
}

/// Apply a random move in the searches' vocabulary to `rows` in place:
/// mostly boundary shifts (the SA/GBS step, clamped so the donor keeps
/// one row), plus swaps and 3-rank cycles (the GA repair step). Returns
/// `false`, leaving `rows` untouched, when the move is a no-op.
fn random_move(rng: &mut SmallRng, rows: &mut [usize]) -> bool {
    let n = rows.len();
    match rng.gen_range(0u32..10) {
        0..=6 => {
            let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let amount = rng.gen_range(1..=4usize).min(rows[from] - 1);
            if from == to || amount == 0 {
                return false;
            }
            rows[from] -= amount;
            rows[to] += amount;
        }
        7 | 8 => {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a == b {
                return false;
            }
            rows.swap(a, b);
        }
        _ => {
            // A 3-rank cycle that preserves the total and the one-row
            // minimum: each listed rank takes its left neighbor's count.
            let i = rng.gen_range(0..n);
            let (j, k) = ((i + 1) % n, (i + 2) % n);
            (rows[i], rows[j], rows[k]) = (rows[k], rows[i], rows[j]);
        }
    }
    true
}

/// Wraps a model so every Nth `rank_cost` call fails, deterministically.
struct FaultyMheta<'a> {
    inner: &'a Mheta,
    calls: AtomicU64,
    fail_every: u64,
}

impl Evaluator for FaultyMheta<'_> {
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        self.inner.try_eval_ns(rows)
    }
}

impl DeltaModel for FaultyMheta<'_> {
    fn leaf_len(&self) -> usize {
        DeltaModel::leaf_len(self.inner)
    }

    fn leaf_terms(&self) -> usize {
        DeltaModel::leaf_terms(self.inner)
    }

    fn rank_cost(&self, rank: usize, rows: usize, out: &mut [f64]) -> Result<(), EvalError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if self.fail_every > 0 && n.is_multiple_of(self.fail_every) {
            return Err(EvalError("injected leaf fault".into()));
        }
        DeltaModel::rank_cost(self.inner, rank, rows, out)
    }

    fn assemble(
        &self,
        rows: &[usize],
        leaves: &[f64],
        scratch: &mut Vec<f64>,
    ) -> Result<f64, EvalError> {
        self.inner.assemble(rows, leaves, scratch)
    }
}

/// Wraps a model so one rank's first cost leaf is `value`.
struct PoisonedLeaf<'a> {
    inner: &'a Mheta,
    rank: usize,
    value: f64,
}

impl Evaluator for PoisonedLeaf<'_> {
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        DeltaEvaluator::new(self).try_eval_ns(rows)
    }

    fn delta_session(&self) -> Box<dyn DeltaSession + '_> {
        Box::new(DeltaEvaluator::new(self))
    }
}

impl DeltaModel for PoisonedLeaf<'_> {
    fn leaf_len(&self) -> usize {
        DeltaModel::leaf_len(self.inner)
    }

    fn leaf_terms(&self) -> usize {
        DeltaModel::leaf_terms(self.inner)
    }

    fn rank_cost(&self, rank: usize, rows: usize, out: &mut [f64]) -> Result<(), EvalError> {
        DeltaModel::rank_cost(self.inner, rank, rows, out)?;
        if rank == self.rank {
            out[0] = self.value;
        }
        Ok(())
    }

    fn assemble(
        &self,
        rows: &[usize],
        leaves: &[f64],
        scratch: &mut Vec<f64>,
    ) -> Result<f64, EvalError> {
        self.inner.assemble(rows, leaves, scratch)
    }
}

/// A NaN or +∞ cost leaf must never become a finite score — a search
/// would keep it, and a `max` that drops NaN turns `∞ − ∞` into a
/// perfect 0: `score_from_leaves` returns it non-finite, and a session,
/// a search and `Mheta`'s own `try_eval_ns` all report it as a failed
/// evaluation. One paper-size model per communication pattern, the
/// leaf on the first, middle and last rank.
#[test]
fn a_non_finite_leaf_never_scores_finite() {
    let spec = presets::hy1();
    let n = spec.len();
    let cases = [
        ("nearest-neighbour", Benchmark::Jacobi(Jacobi::default())),
        ("reduction", Benchmark::Cg(Cg::default())),
        ("pipelined", Benchmark::Rna(Rna::default())),
    ];
    for (pattern, bench) in cases {
        let model = build_model(&bench, &spec, false).expect(pattern);
        let total = bench.total_rows();
        let rows = GenBlock::block(total, n).rows().to_vec();
        let width = model.leaf_len();
        let mut clean = vec![0.0; n * width];
        for (rank, out) in clean.chunks_exact_mut(width).enumerate() {
            model.rank_cost_into(rank, rows[rank], out);
        }
        for rank in [0, n / 2, n - 1] {
            for value in [f64::NAN, f64::INFINITY] {
                let what = format!("{pattern}: {value} on rank {rank}");
                let mut leaves = clean.clone();
                leaves[rank * width] = value;
                let score = model
                    .score_from_leaves(&rows, &leaves, &mut Vec::new())
                    .expect(&what);
                assert!(!score.is_finite(), "{what}: score_from_leaves gave {score}");

                let poisoned = PoisonedLeaf {
                    inner: &model,
                    rank,
                    value,
                };
                let mut session = DeltaEvaluator::new(&poisoned);
                let scored = session.try_eval_ns(&rows);
                assert!(scored.is_err(), "{what}: a session scored {scored:?}");
                assert_eq!(session.stats().fallback_error, 1, "{what}");
                let cfg = RandomConfig {
                    max_evals: 8,
                    ..RandomConfig::default()
                };
                let out = random_search(total, n, &poisoned, cfg);
                assert_eq!(out.failed_evals, out.evaluations, "{what}: a search");
                assert_eq!(out.score_ns, f64::INFINITY, "{what}: a search");

                // The same leaf from a model input: a non-finite seek
                // cost on a rank with no memory, so its share streams.
                let mut arch = model.arch().clone();
                arch.memory_bytes[rank] = 0;
                arch.disks[rank].o_read = value;
                arch.disks[rank].o_write = value;
                let broken = Mheta::new(model.structure().clone(), arch, model.profile().clone())
                    .expect(&what);
                let full = broken.try_eval_ns(&rows);
                assert!(full.is_err(), "{what}: try_eval_ns gave {full:?}");
                let cold = DeltaEvaluator::new(&broken).try_eval_ns(&rows);
                assert!(
                    cold.is_err(),
                    "{what}: a session over the model gave {cold:?}"
                );
            }
        }
    }
}

proptest! {
    // `PROPTEST_CASES` overrides (CI pins 256 in the delta-diff job).
    #![proptest_config(ProptestConfig::default())]

    /// The core differential property: a delta session fed an arbitrary
    /// interleaving of moves, acceptances, and random restarts answers
    /// bitwise-identically to full evaluation, on every app × preset.
    #[test]
    fn random_move_sequences_evaluate_bitwise_identical(
        which in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let (name, model, total) = &models()[which % models().len()];
        let n = model.arch().len();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut session = DeltaEvaluator::new(model);

        let mut current = random_distribution(&mut rng, *total, n);
        let mut evals = 0usize;
        while evals < 24 {
            let cand = if rng.gen_range(0u32..8) == 0 {
                // Random restart: most ranks dirty, exercising the
                // all-dirty / many-dirty paths.
                random_distribution(&mut rng, *total, n)
            } else {
                let mut cand = current.clone();
                if !random_move(&mut rng, &mut cand) {
                    continue;
                }
                cand
            };
            let incremental = session.try_eval_ns(&cand).expect(name);
            let full = model.try_eval_ns(&cand).expect(name);
            prop_assert_eq!(
                incremental.to_bits(), full.to_bits(),
                "{}: delta {} != full {} on {:?}", name, incremental, full, cand
            );
            if rng.gen_bool(0.5) {
                session.note_accept(&cand);
                current = cand;
            }
            evals += 1;
        }
        let stats = session.stats();
        prop_assert_eq!(stats.total(), 24, "every evaluation tallied once");
        prop_assert!(stats.delta_hits > 0, "{}: no incremental reuse in 24 evals", name);
    }

    /// Fault injection: when a leaf computation fails mid-evaluation,
    /// the error surfaces, the cache is poisoned, and every subsequent
    /// successful answer is still bitwise-identical to full evaluation
    /// — stale terms never leak.
    #[test]
    fn faults_poison_the_cache_and_never_leak_stale_terms(
        which in 0usize..1000,
        seed in any::<u64>(),
        fail_every in 5u64..12,
    ) {
        let (name, model, total) = &models()[which % models().len()];
        let n = model.arch().len();
        let mut rng = SmallRng::seed_from_u64(seed);
        let faulty = FaultyMheta { inner: model, calls: AtomicU64::new(0), fail_every };
        let mut session = DeltaEvaluator::new(&faulty);

        let mut current = random_distribution(&mut rng, *total, n);
        let mut failures = 0usize;
        for _ in 0..32 {
            let mut cand = current.clone();
            if !random_move(&mut rng, &mut cand) {
                continue;
            }
            match session.try_eval_ns(&cand) {
                Ok(incremental) => {
                    let full = model.try_eval_ns(&cand).expect(name);
                    prop_assert_eq!(
                        incremental.to_bits(), full.to_bits(),
                        "{}: stale terms leaked after {} failures", name, failures
                    );
                    session.note_accept(&cand);
                    current = cand;
                }
                Err(e) => {
                    prop_assert_eq!(&e.0, "injected leaf fault");
                    failures += 1;
                }
            }
        }
        let stats = session.stats();
        prop_assert!(failures > 0, "{}: fault injection never fired", name);
        prop_assert_eq!(stats.fallback_error, failures as u64);
    }
}

/// Shape changes and model-level errors surface identically through the
/// session and through full evaluation, and leave no stale state.
#[test]
fn shape_mismatch_and_model_errors_poison_consistently() {
    let (name, model, total) = &models()[0];
    let n = model.arch().len();
    let mut session = DeltaEvaluator::new(model);

    let base: Vec<usize> = GenBlock::block(*total, n).rows().to_vec();
    let a = session.try_eval_ns(&base).expect(name);
    assert_eq!(a.to_bits(), model.try_eval_ns(&base).unwrap().to_bits());
    session.note_accept(&base);

    // Wrong rank count: both paths must reject it.
    let wrong: Vec<usize> = base[..n - 1].to_vec();
    assert!(session.try_eval_ns(&wrong).is_err());
    assert!(model.try_eval_ns(&wrong).is_err());

    // Wrong total: likewise.
    let mut bad_total = base.clone();
    bad_total[0] += 1;
    assert!(session.try_eval_ns(&bad_total).is_err());
    assert!(model.try_eval_ns(&bad_total).is_err());

    // After the errors the cache is poisoned; the next answer must be
    // recomputed from scratch and still bitwise-exact.
    let again = session.try_eval_ns(&base).expect(name);
    assert_eq!(again.to_bits(), a.to_bits());
    let stats = session.stats();
    assert!(stats.fallback_error >= 2, "errors recorded: {stats:?}");
}
