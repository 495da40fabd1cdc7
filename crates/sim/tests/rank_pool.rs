//! `run_cluster`'s parked workers: reused across runs, shared by
//! concurrent callers without changing a bit of what a run computes, and
//! kept through a rank that panics.
//!
//! One `#[test]` in a binary of its own, so no sibling test runs a
//! cluster on the same pool while this one counts threads.

#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use mheta_sim::{run_cluster, ClusterRun, ClusterSpec, RankCtx, SimResult};

/// The process's thread count, as the kernel reports it.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs is mounted")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

/// Each rank passes a value around the ring for four rounds, computing
/// between hops, so every rank blocks on its neighbour.
fn ring(ctx: &mut RankCtx) -> SimResult<u64> {
    let (rank, n) = (ctx.rank(), ctx.size());
    let mut carried = rank as u64;
    for round in 0..4 {
        ctx.compute(1_000.0 * (rank + 1) as f64, u64::MAX);
        ctx.send((rank + 1) % n, round, carried.to_le_bytes().to_vec())?;
        let got = ctx.recv((rank + n - 1) % n, round)?;
        let got = u64::from_le_bytes(got.try_into().expect("eight bytes"));
        carried = carried.wrapping_mul(31) ^ got;
    }
    Ok(carried ^ ctx.now().as_nanos())
}

/// Every rank reports to rank 0, which answers each only after it has
/// heard from all: no rank finishes before all have started, so the run
/// holds a worker per rank at once and the pool ends up with one per
/// rank. (A ring run may finish its first ranks before its last is
/// handed out, and then a worker serves two ranks of one run.)
fn all_started(ctx: &mut RankCtx) -> SimResult<()> {
    let n = ctx.size();
    if ctx.rank() == 0 {
        for src in 1..n {
            ctx.recv(src, 0)?;
        }
        for dst in 1..n {
            ctx.send(dst, 0, Vec::new())?;
        }
    } else {
        ctx.send(0, 0, Vec::new())?;
        ctx.recv(0, 0)?;
    }
    Ok(())
}

/// Results and traces, every `f64` in the shortest form that reads back
/// to the same bits.
fn fingerprint(run: &ClusterRun<u64>) -> String {
    format!("{:?} {:?}", run.results, run.traces)
}

#[test]
fn parked_workers_are_reused_shared_and_outlive_a_panicking_rank() {
    let spec = ClusterSpec::homogeneous(8);
    run_cluster(&spec, false, all_started).expect("the warm-up runs");
    let ring_run = || fingerprint(&run_cluster(&spec, true, ring).expect("the ring runs"));
    let sequential = ring_run();

    let warm = threads();
    for _ in 0..50 {
        assert_eq!(ring_run(), sequential);
    }
    assert_eq!(
        threads(),
        warm,
        "50 more runs reuse the first run's workers"
    );

    std::thread::scope(|s| {
        let callers: Vec<_> = (0..4)
            .map(|_| s.spawn(|| (0..10).map(|_| ring_run()).collect::<Vec<_>>()))
            .collect();
        for caller in callers {
            for run in caller.join().expect("a caller thread finishes") {
                assert_eq!(run, sequential, "a run shared with others is the same run");
            }
        }
    });
    let shared = threads();
    assert!(
        shared <= warm + 4 * 8,
        "four callers of 8 ranks grew the process from {warm} to {shared} threads"
    );

    let panic = catch_unwind(AssertUnwindSafe(|| {
        run_cluster(&spec, false, |ctx| {
            if ctx.rank() == 3 {
                panic!("boom");
            }
            Ok(())
        })
    }))
    .expect_err("run_cluster re-raises the rank's panic");
    assert_eq!(
        panic.downcast_ref::<String>().map(String::as_str),
        Some("simulated rank 3 panicked: boom")
    );
    let after_panic = threads();
    assert!(after_panic <= shared);
    assert_eq!(ring_run(), sequential);
    assert!(
        threads() <= after_panic,
        "the worker whose rank panicked serves the next run"
    );
}
