//! Allocation guard for the evaluation kernel: once a session has seen
//! one candidate, evaluating through it — memo hits, partial deltas,
//! all-dirty fulls, promotions and rebases alike — touches the heap
//! zero times. The count is exact and repeats, which is what keeps the
//! kernel's gain from eroding one `Vec` at a time.
//!
//! This file is its own test binary, so the counting allocator below
//! affects nothing else. `Mheta::predict` is exempt: it returns owned
//! detail.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mheta::dist::{DeltaEvaluator, DeltaSession};
use mheta::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell<u64>` with no destructor, so touching it cannot
// allocate or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

enum Step {
    Eval(Vec<usize>),
    Accept(Vec<usize>),
}

/// A walk from Block holding 1,000 evaluations: mostly two- and
/// three-rank moves, some repeats of the base (memo hits), some random
/// restarts (all-dirty fulls); a third of the candidates are accepted
/// right after their evaluation (promotion), and now and then Block is
/// accepted without being evaluated (rebase).
fn steps(total: usize, n: usize, seed: u64) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let block = GenBlock::block(total, n).rows().to_vec();
    let mut current = block.clone();
    let mut out = Vec::new();
    for _ in 0..1_000 {
        let mut cand = current.clone();
        match rng.gen_range(0u32..10) {
            0 => {} // the base again
            1 => {
                let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
                cand = GenBlock::apportion(total, &weights).rows().to_vec();
            }
            2 | 3 => {
                let i = rng.gen_range(0..n);
                let (j, k) = ((i + 1) % n, (i + 2) % n);
                (cand[i], cand[j], cand[k]) = (cand[k], cand[i], cand[j]);
            }
            _ => {
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let amount = rng.gen_range(1..=4usize).min(cand[from] - 1);
                cand[from] -= amount;
                cand[to] += amount;
            }
        }
        out.push(Step::Eval(cand.clone()));
        if rng.gen_range(0u32..3) == 0 {
            out.push(Step::Accept(cand.clone()));
            current = cand;
        } else if rng.gen_range(0u32..25) == 0 {
            out.push(Step::Accept(block.clone()));
            current.clone_from(&block);
        }
    }
    out
}

#[test]
fn a_warm_session_evaluates_without_allocating() {
    let cases = [
        (Benchmark::Jacobi(Jacobi::small()), presets::hy1(), true),
        (Benchmark::Rna(Rna::small()), presets::io(), false),
        (Benchmark::Cg(Cg::small()), presets::dc(), false),
    ];
    // The counter is live: a zero below means something.
    let probe = allocations();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert!(allocations() > probe, "the counting allocator is installed");

    for (bench, spec, prefetch) in cases {
        let model = build_model(&bench, &spec, prefetch).expect("the model builds");
        let (total, n) = (bench.total_rows(), spec.len());
        let steps = steps(total, n, 0xA110C);
        let mut session = DeltaEvaluator::new(&model);
        session
            .try_eval_ns(GenBlock::block(total, n).rows())
            .expect("the warm-up candidate evaluates");

        let before = allocations();
        let mut checksum = 0.0;
        for step in &steps {
            match step {
                Step::Eval(rows) => {
                    checksum += session.try_eval_ns(rows).expect("a valid distribution");
                }
                Step::Accept(rows) => session.note_accept(rows),
            }
        }
        let allocated = allocations() - before;

        assert!(checksum.is_finite());
        assert_eq!(
            allocated,
            0,
            "{} on {}: heap allocations over 1,000 warm evaluations",
            bench.name(),
            spec.name
        );
        // The zero above covered every path.
        let stats = session.stats();
        assert_eq!(stats.total(), 1_001, "{stats:?}");
        assert!(
            stats.terms_reused > 0 && stats.delta_hits > 100,
            "{stats:?}"
        );
        assert!(stats.fallback_all_dirty > 10, "{stats:?}");
        assert_eq!(stats.fallback_error, 0, "{stats:?}");
    }
}
