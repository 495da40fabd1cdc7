//! The gate on what virtual time may read: every clock advance, trace
//! event and hook event is charged from an operation's arguments, never
//! from a value it moves (DESIGN §5). The model build stands on it, since
//! the instrumented iteration computes no values at all.
//!
//! The property: change every input value of an application and keep
//! its shape, and each rank's loop window, trace events and hook events
//! stay bit for bit what they were, in the normal and in the
//! instrumented mode. Only the check value may differ.

use std::fmt::Debug;

use mheta_dist::GenBlock;
use mheta_mpi::{run_app, ExecMode, HookEvent, RunOptions, VecRecorder};
use mheta_sim::{presets, ClusterSpec, Event, NoiseSpec, SimResult};
use proptest::prelude::*;

use crate::harness::Benchmark;
use crate::{Cg, Jacobi, Lanczos, Multigrid, Rna};

/// Every application at both sizes, Jacobi also with prefetching:
/// `(application, prefetch)`.
fn every_app() -> Vec<(Benchmark, bool)> {
    let small = [
        Benchmark::Jacobi(Jacobi::small()),
        Benchmark::Cg(Cg::small()),
        Benchmark::Rna(Rna::small()),
        Benchmark::Lanczos(Lanczos::small()),
        Benchmark::Multigrid(Multigrid::small()),
    ];
    let paper = [
        Benchmark::Jacobi(Jacobi::default()),
        Benchmark::Cg(Cg::default()),
        Benchmark::Rna(Rna::default()),
        Benchmark::Lanczos(Lanczos::default()),
        Benchmark::Multigrid(Multigrid::default()),
    ];
    small
        .into_iter()
        .chain(paper)
        .flat_map(|bench| {
            let prefetch = bench.supports_prefetch();
            [(bench.clone(), true), (bench, false)]
                .into_iter()
                .filter(move |&(_, p)| prefetch || !p)
        })
        .collect()
}

/// `bench` with every input value changed and its shape kept: a new data
/// seed where the seed sets only values, and for CG, whose seed also
/// sets the fill pattern, new seeds for the values alone.
fn revalued(bench: &Benchmark, salt: u64) -> Benchmark {
    let mut bench = bench.clone();
    match &mut bench {
        Benchmark::Jacobi(a) => a.seed ^= salt,
        Benchmark::Cg(a) => a.value_salt ^= salt,
        Benchmark::Rna(a) => a.seed ^= salt,
        Benchmark::Lanczos(a) => a.seed ^= salt,
        Benchmark::Multigrid(a) => a.seed ^= salt,
    }
    bench
}

/// What one rank's run charged: its loop window, its trace events and
/// its hook events.
type Charges = Vec<((u64, u64), Vec<Event>, Vec<HookEvent>)>;

/// Run `bench` under Block on `spec` in `mode`, traced and hooked: two
/// iterations in the normal mode, the one a model build runs in the
/// instrumented mode. Returns what each rank charged, and the check value.
fn charges(
    bench: &Benchmark,
    spec: &ClusterSpec,
    mode: ExecMode,
    prefetch: bool,
) -> SimResult<(Charges, f64)> {
    let structure = bench.structure(prefetch);
    let dist = GenBlock::block(bench.total_rows(), spec.len());
    let iters = if mode == ExecMode::Normal { 2 } else { 1 };
    let run = run_app(
        spec,
        RunOptions {
            tracing: true,
            mode,
        },
        |_| VecRecorder::default(),
        |comm| bench.dispatch(comm, &structure, &dist, iters, prefetch),
    )?;
    let check = run.results[0].check;
    let ranks = run
        .results
        .iter()
        .zip(run.traces)
        .zip(run.recorders)
        .map(|((r, trace), rec)| ((r.t0_ns, r.t1_ns), trace.events, rec.events))
        .collect();
    Ok((ranks, check))
}

/// The first index at which `a` and `b` differ, compared through their
/// `Debug` renderings, which tell every `f64` bit pattern but NaN's apart.
fn first_unequal<T: Debug>(a: &[T], b: &[T]) -> Option<usize> {
    let render = |x: Option<&T>| x.map(|x| format!("{x:?}"));
    (0..a.len().max(b.len())).find(|&k| render(a.get(k)) != render(b.get(k)))
}

/// The first charge in which `a` and `b` differ, if any.
fn first_difference(a: &Charges, b: &Charges) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} ranks against {}", a.len(), b.len()));
    }
    a.iter().zip(b).enumerate().find_map(|(rank, (x, y))| {
        if x.0 != y.0 {
            return Some(format!("rank {rank}: window {:?} against {:?}", x.0, y.0));
        }
        if let Some(k) = first_unequal(&x.1, &y.1) {
            let (p, q) = (x.1.get(k), y.1.get(k));
            return Some(format!("rank {rank}: trace event {k}: {p:?} against {q:?}"));
        }
        let k = first_unequal(&x.2, &y.2)?;
        let (p, q) = (x.2.get(k), y.2.get(k));
        Some(format!("rank {rank}: hook event {k}: {p:?} against {q:?}"))
    })
}

/// One of `sim::presets`' seventeen architectures: as defined, noisier
/// under a new seed, with the standard fault profile, or with a node
/// degraded from the second iteration on.
fn arb_spec() -> impl Strategy<Value = ClusterSpec> {
    let archs = presets::seventeen_architectures();
    (0..archs.len(), 0u8..4, any::<u64>(), 0.0f64..0.2).prop_map(
        move |(arch, variant, seed, amplitude)| {
            let spec = archs[arch].clone();
            match variant {
                0 => spec,
                1 => ClusterSpec {
                    seed,
                    noise: NoiseSpec { amplitude },
                    ..spec
                },
                2 => ClusterSpec {
                    seed,
                    faults: presets::standard_fault_profile(),
                    ..spec
                },
                _ => presets::with_degrade(spec, (seed % 8) as usize, 1, 2.0),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every application, at both sizes and with prefetching where it
    /// has it, charges the same with every input value changed: in both
    /// modes, on every rank, each clock, trace event and hook event.
    #[test]
    fn virtual_time_never_reads_values(spec in arb_spec(), salt in 1u64..u64::MAX) {
        for (bench, prefetch) in every_app() {
            let other = revalued(&bench, salt);
            for mode in [ExecMode::Normal, ExecMode::Instrument] {
                let at = format!("{} prefetch {prefetch} on {} in {mode:?}", bench.name(), spec.name);
                let (a, b) = (
                    charges(&bench, &spec, mode, prefetch),
                    charges(&other, &spec, mode, prefetch),
                );
                match (a, b) {
                    (Ok((a, _)), Ok((b, _))) => {
                        let diff = first_difference(&a, &b);
                        prop_assert!(diff.is_none(), "{}: {}", at, diff.unwrap_or_default());
                    }
                    (a, b) => prop_assert_eq!(a.err(), b.err(), "{}", at),
                }
            }
        }
    }
}

/// The perturbation is not empty: the changed inputs change the check
/// value of every small application, so the property above compares
/// runs that computed different numbers.
#[test]
fn revalued_inputs_change_the_check() {
    let spec = presets::dc();
    for (bench, prefetch) in every_app().into_iter().take(6) {
        let check = |b: &Benchmark| charges(b, &spec, ExecMode::Normal, prefetch).unwrap().1;
        let (a, b) = (check(&bench), check(&revalued(&bench, 0x5a17)));
        assert_ne!(
            a.to_bits(),
            b.to_bits(),
            "{} prefetch {prefetch}",
            bench.name()
        );
    }
}
