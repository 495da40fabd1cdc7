//! `simulate`: the "actual" side of every accuracy figure. The same
//! sim + mpi + apps layers a cold plan crosses, used differently:
//! Normal mode, several iterations, out-of-core disk streams and async
//! prefetch, rank bodies that compute in parallel.

use std::time::Duration;

use mheta_apps::{run_measured, run_observed, Observed};
use mheta_core::Prediction;
use mheta_mpi::{allreduce, Comm, ExecMode, NullRecorder, ReduceOp};
use mheta_obs::AuditReport;
use mheta_serve::fnv1a64;
use mheta_sim::{run_cluster, ClusterSpec};

use crate::cases::{Case, ARCHS};
use crate::golden::{bits, Golden, Tally};
use crate::run::{sample, sample_arms, splitmix64, timed, Ledger, Workload};
use crate::spans::{layer_self_per_request, Tracer};
use crate::stats::{median_ns, sweep_totals};

/// Iterations of every simulated run.
const ITERS: u32 = 5;
/// The 16 grid cases plus Jacobi-with-prefetch on each cluster.
const CASES: usize = 20;

struct Run {
    case: Case,
    /// The model's prediction under Block.
    prediction: Prediction,
    /// Simulated seconds and check value as bit patterns, from the
    /// verification run; every measured run must reproduce them.
    expect: (u64, u64),
}

pub struct Simulate {
    runs: Vec<Run>,
    /// The order the sweep visits the cases in, drawn from `--seed`.
    order: Vec<usize>,
}

impl Simulate {
    fn run(r: &Run) -> (u64, u64) {
        let c = &r.case;
        let m = run_measured(&c.bench, &c.spec, &c.blk, ITERS, c.prefetch)
            .expect("the simulated run completes");
        (m.secs.to_bits(), m.check.to_bits())
    }

    fn observe(r: &Run) -> Observed {
        let c = &r.case;
        run_observed(&c.bench, &c.spec, &c.blk, ITERS, c.prefetch)
            .expect("the observed run completes")
    }

    fn check(r: &Run, got: (u64, u64)) -> Result<(), String> {
        if got == r.expect {
            Ok(())
        } else {
            Err(format!(
                "{}: simulated (secs, check) bits {got:x?}, verified {:x?}",
                r.case.label, r.expect
            ))
        }
    }
}

/// A Fisher–Yates shuffle of `0..n` driven by SplitMix64.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

impl Workload for Simulate {
    const NAME: &'static str = "simulate";
    const CALLS_PER_SWEEP: usize = CASES;
    const P50_PER_CALL: bool = false;
    const P50_NAME: &'static str = "sim_sweep_ms_p50";
    const P95_NAME: &'static str = "sim_run_ms_p95";

    fn set_up(seed: u64) -> Self {
        let prefetching = ARCHS.iter().map(|arch| Case::build("jacobi", arch, true));
        let runs = Case::grid()
            .into_iter()
            .chain(prefetching)
            .map(|case| Run {
                prediction: case.model.predict(case.blk.rows()).expect("Block predicts"),
                expect: (0, 0),
                case,
            })
            .collect();
        Simulate {
            runs,
            order: permutation(CASES, seed),
        }
    }

    fn verify(&mut self, golden: &mut Golden, tally: &mut Tally, ledger: &mut Ledger) {
        let (mut events, mut errors, mut secs_bits) = (0, Vec::new(), Vec::new());
        for r in &mut self.runs {
            r.expect = Self::run(r);
            let observed = Self::observe(r);
            let case_events: usize = observed.traces.iter().map(|t| t.events.len()).sum();
            golden.check(
                format!("simulate/{}", r.case.label),
                format!(
                    "secs={:016x} check={:016x} events={case_events} observed_secs={}",
                    r.expect.0,
                    r.expect.1,
                    bits(observed.measured.secs)
                ),
                tally,
            );
            events += case_events;
            let simulated = f64::from_bits(r.expect.0);
            errors.push(100.0 * (r.prediction.app_secs(ITERS) - simulated).abs() / simulated);
            secs_bits.extend(r.expect.0.to_le_bytes());
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let max = errors.iter().copied().fold(0.0, f64::max);
        golden.check(
            "simulate/model_error_pct".into(),
            format!("mean={} max={}", bits(mean), bits(max)),
            tally,
        );
        ledger.set("model_error_pct_mean", mean, CASES);
        ledger.set("model_error_pct_max", max, CASES);
        ledger.set("sim.events_per_sweep", events as f64, CASES);
        // 52 bits survive a JSON number exactly.
        let checksum = fnv1a64(&secs_bits) & ((1 << 52) - 1);
        ledger.set("sim.makespan_checksum", checksum as f64, CASES);
    }

    fn call(&mut self, i: u64) -> (u64, Result<(), String>) {
        let r = &self.runs[self.order[i as usize % CASES]];
        let (ns, got) = timed(|| Self::run(r));
        (ns, Self::check(r, got))
    }

    fn layers(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) {
        let slice = budget / 6;
        let (runs, order) = (&self.runs, &self.order);
        let sweeps = 40 * CASES;

        let mut off = Tracer::new(false);
        let [untraced, traced] = sample_arms(2 * slice, CASES, sweeps, |i, arm| {
            let r = &runs[order[i % CASES]];
            let tr = if arm == 0 { &mut off } else { &mut *tracer };
            let got = tr.request("apps.run_measured", i as u64, |_| Self::run(r));
            tally.record(Self::check(r, got));
        });
        ledger.calls += (untraced.len() + traced.len()) as u64;
        let (traced_ns, untraced_ns) = (median_ns(&traced, 1.0), median_ns(&untraced, 1.0));
        ledger.set(
            "trace.overhead_pct",
            100.0 * (traced_ns - untraced_ns) / untraced_ns,
            traced.len(),
        );
        let layers = layer_self_per_request(&tracer.spans, |name| name.contains('.'));
        ledger.set(
            "trace.coverage_pct",
            100.0 * median_ns(&layers, 1.0) / untraced_ns,
            layers.len(),
        );

        // Each application's share of a sweep.
        let measured_sweeps = sweep_totals(&untraced, CASES);
        for (name, app, prefetch) in [
            ("apps.run_ms.jacobi", "jacobi", false),
            ("apps.run_ms.cg", "cg", false),
            ("apps.run_ms.rna", "rna", false),
            ("apps.run_ms.lanczos", "lanczos", false),
            ("apps.run_ms.jacobi_prefetch", "jacobi", true),
        ] {
            let slots: Vec<usize> = (0..CASES)
                .filter(|&slot| {
                    let c = &runs[order[slot]].case;
                    c.app == app && c.prefetch == prefetch
                })
                .collect();
            let shares: Vec<u64> = untraced
                .chunks_exact(CASES)
                .map(|sweep| slots.iter().map(|&slot| sweep[slot]).sum())
                .collect();
            ledger.set_median(name, &shares, 1e6);
        }
        let sweep_ns = median_ns(&measured_sweeps, 1.0);
        ledger.set(
            "sim.host_ns_per_event",
            sweep_ns / ledger.get("sim.events_per_sweep"),
            measured_sweeps.len(),
        );

        // What full observability costs, off every measured path.
        let mut kept: Vec<Option<Observed>> = (0..CASES).map(|_| None).collect();
        let [plain, observed] = sample_arms(2 * slice, CASES, sweeps, |i, arm| {
            let slot = order[i % CASES];
            if arm == 0 {
                std::hint::black_box(Self::run(&runs[slot]));
            } else {
                kept[slot] = Some(Self::observe(&runs[slot]));
            }
        });
        let plain_ns = median_ns(&sweep_totals(&plain, CASES), 1.0);
        let observed_ns = median_ns(&sweep_totals(&observed, CASES), 1.0);
        ledger.set(
            "obs.trace_overhead_pct",
            100.0 * (observed_ns - plain_ns) / plain_ns,
            observed.len() / CASES,
        );
        let audit = sample(slice / 2, CASES, 10 * CASES, |i| {
            let (r, o) = (
                &runs[i % CASES],
                kept[i % CASES].as_ref().expect("observed"),
            );
            std::hint::black_box(AuditReport::audit(
                &r.prediction,
                ITERS,
                &o.traces,
                &o.windows,
            ));
        });
        ledger.set_median("obs.audit_ms", &audit, 1e6);

        sim_kernels(slice / 4, ledger);
    }
}

/// The simulator substrate alone: the four `benches/sim_engine.rs`
/// kernels.
fn sim_kernels(slice: Duration, ledger: &mut Ledger) {
    let eight = ClusterSpec::homogeneous(8);
    let spawn = sample(slice, 20, 400, |_| {
        run_cluster(&eight, false, |ctx| {
            ctx.compute(10.0, u64::MAX);
            Ok(())
        })
        .expect("the cluster runs");
    });
    ledger.set_median("sim.spawn_us", &spawn, 1e3);

    let two = ClusterSpec::homogeneous(2);
    let pingpong = sample(slice, 20, 400, |_| {
        run_cluster(&two, false, |ctx| {
            for tag in 0..1000u32 {
                if ctx.rank() == 0 {
                    ctx.send(1, tag, vec![0u8; 64])?;
                    ctx.recv(1, tag)?;
                } else {
                    ctx.recv(0, tag)?;
                    ctx.send(0, tag, vec![0u8; 64])?;
                }
            }
            Ok(())
        })
        .expect("the cluster runs");
    });
    ledger.set_median("sim.msg_rtt_us", &pingpong, 1e3 * 1000.0);

    let one = ClusterSpec::homogeneous(1);
    let disk = sample(slice, 20, 400, |_| {
        run_cluster(&one, false, |ctx| {
            ctx.disk.create(1, 131_072);
            let mut buf = vec![0.0; 8_192];
            for k in 0..16 {
                ctx.disk_read(1, k * 8_192, &mut buf)?;
                ctx.disk_write(1, k * 8_192, &buf)?;
            }
            Ok(())
        })
        .expect("the cluster runs");
    });
    ledger.set_median("sim.disk_op_us", &disk, 1e3 * 32.0);

    let reduce = sample(slice, 20, 400, |_| {
        run_cluster(&eight, false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let mut v = vec![1.0; 16];
            for _ in 0..100 {
                allreduce(&mut comm, ReduceOp::Sum, &mut v)?;
            }
            Ok(())
        })
        .expect("the cluster runs");
    });
    ledger.set_median("mpi.allreduce_us", &reduce, 1e3 * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_order_is_a_seeded_permutation() {
        let a = permutation(CASES, 1);
        assert_eq!(a, permutation(CASES, 1));
        assert_ne!(a, permutation(CASES, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..CASES).collect::<Vec<_>>());
    }
}
