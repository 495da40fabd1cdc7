//! Fault injection end to end: deterministic fault schedules, the
//! retry/backoff I/O layer, fault visibility in traces and hooks,
//! degradation of MHETA's accuracy as a slow spell lengthens, and
//! searches that tolerate failing evaluations.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use std::cell::Cell;

use mheta::dist::{random_search, EvalError, Evaluator, FallibleFn, RandomConfig};
use mheta::mpi::{run_app, ExecMode, HookEvent, NullRecorder, RunOptions, VecRecorder};
use mheta::prelude::*;
use mheta::sim::{DegradeSpec, FaultKind, FaultSpec, RecoverSpec, SimError};

fn main() {
    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    spec.seed = 7;
    let bench = Benchmark::Jacobi(Jacobi::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let iters = 4;

    // ---- 1. Faults cost time but never correctness. -----------------
    let clean = run_measured(&bench, &spec, &dist, iters, false).expect("clean run");
    let mut faulty_spec = spec.clone();
    faulty_spec.faults = presets::standard_fault_profile();
    let faulty = run_measured(&bench, &faulty_spec, &dist, iters, false).expect("faulty run");
    println!("Jacobi under the standard fault profile:");
    println!("  clean : {:>9.6} s  check {:e}", clean.secs, clean.check);
    println!("  faulty: {:>9.6} s  check {:e}", faulty.secs, faulty.check);
    assert_eq!(clean.check, faulty.check, "retries must hide every fault");
    assert!(faulty.secs > clean.secs);
    println!(
        "  -> identical numerics, +{:.1}% virtual time\n",
        100.0 * (faulty.secs - clean.secs) / clean.secs
    );

    // ---- 2. Every injected fault is visible in traces and hooks. ----
    // Each disk operation makes up to three attempts; at these rates
    // every fault is absorbed.
    let mut io_spec = spec.clone();
    io_spec.faults = FaultSpec {
        disk_read_fault_rate: 0.10,
        disk_write_fault_rate: 0.10,
        msg_resend_rate: 0.25,
        degrades: vec![
            DegradeSpec::at_time(2, 10_000_000, 1.5).recovering(RecoverSpec::at_time(30_000_000))
        ],
        ..FaultSpec::default()
    };
    let run = run_app(
        &io_spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| VecRecorder::default(),
        |comm| {
            let data: Vec<f64> = (0..256).map(|i| i as f64).collect();
            comm.ctx().disk.create(1, data.len());
            for round in 0..12u32 {
                comm.file_write(1, 0, &data)?;
                let mut out = vec![0.0; 256];
                comm.file_read(1, 0, &mut out)?;
                assert_eq!(out, data, "an absorbed fault delivers the real bytes");
                comm.compute(2_000.0, u64::MAX);
                let to = (comm.rank() + 1) % comm.size();
                let from = (comm.rank() + comm.size() - 1) % comm.size();
                comm.send_f64s(to, round, &data[..32])?;
                let _ = comm.recv_f64s(from, round)?;
            }
            Ok(())
        },
    )
    .expect("faulty I/O app");

    let faults: Vec<FaultKind> = run.traces.iter().flat_map(|t| t.faults()).collect();
    let count = |p: fn(&FaultKind) -> bool| faults.iter().filter(|f| p(f)).count();
    let retries: usize = run
        .recorders
        .iter()
        .map(|r| {
            r.events
                .iter()
                .filter(|e| matches!(e, HookEvent::Retry { .. }))
                .count()
        })
        .sum();
    println!("fault events recorded in the rank traces:");
    println!(
        "  read faults {}, write faults {}, resends {}, degrades {}",
        count(|f| matches!(f, FaultKind::ReadFault { .. })),
        count(|f| matches!(f, FaultKind::WriteFault { .. })),
        count(|f| matches!(f, FaultKind::MessageResend { .. })),
        count(|f| matches!(f, FaultKind::Degrade { .. })),
    );
    println!(
        "  retry hook events observed by the MPI-Jack layer: {retries} \
         (every disk fault absorbed, the data intact)\n"
    );

    // ---- 3. Exhausted retries surface a typed error. ----------------
    let mut hostile = spec.clone();
    hostile.faults.disk_read_fault_rate = 0.97;
    let err = run_app(
        &hostile,
        RunOptions::default(),
        |_| NullRecorder,
        |comm| {
            comm.ctx().disk.create(5, 8);
            comm.file_write(5, 0, &[1.0; 8])?;
            let mut out = [0.0; 8];
            comm.file_read(5, 0, &mut out)?;
            Ok(())
        },
    )
    .expect_err("a 97% fault rate exhausts three attempts");
    assert!(matches!(err, SimError::TransientIo { .. }));
    println!("when all three attempts fail the app fails loudly:\n  {err}\n");

    // ---- 4. Model error grows smoothly with a slow spell. ----------
    let model = build_model(&bench, &spec, false).expect("model");
    let predicted = model.predict(dist.rows()).expect("predict").app_secs(iters);
    // A degrade window: rank 1 runs 1.6x slower from t = 6 ms (the
    // first sweep starts at 6.4 ms, once the initial data is on disk).
    println!("prediction error vs the length of a 1.6x slow spell on rank 1:");
    for len_ns in [0, 1_000_000, 2_000_000, 3_000_000] {
        let mut s = spec.clone();
        if len_ns > 0 {
            s.faults.degrades = vec![DegradeSpec::at_time(1, 6_000_000, 1.6)
                .recovering(RecoverSpec::at_time(6_000_000 + len_ns))];
        }
        let actual = run_measured(&bench, &s, &dist, iters, false)
            .expect("run")
            .secs;
        println!(
            "  {:>4.2} ms: actual {:>9.6} s, error {:>5.1}%",
            len_ns as f64 / 1.0e6,
            actual,
            percent_difference(predicted, actual)
        );
    }
    println!();

    // ---- 5. Searches tolerate failing evaluations. ------------------
    let calls = Cell::new(0usize);
    let flaky = FallibleFn(|rows: &[usize]| {
        calls.set(calls.get() + 1);
        if calls.get().is_multiple_of(5) {
            Err(EvalError("injected model failure".into()))
        } else {
            model.try_eval_ns(rows)
        }
    });
    let out = random_search(
        bench.total_rows(),
        4,
        &flaky,
        RandomConfig {
            max_evals: 60,
            ..Default::default()
        },
    );
    println!("random search with a 20% evaluator failure rate:");
    println!(
        "  {} evals, {} failed (each scored as +inf), best {:.3} ms",
        out.evaluations,
        out.failed_evals,
        out.score_ns / 1.0e6
    );
    if let Some(e) = &out.last_failure {
        println!("  last failure: {e}");
    }
}
