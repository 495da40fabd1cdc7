//! Cluster-wide application launcher.
//!
//! [`run_app`] is the analogue of `mpirun`: it runs each rank on one
//! parked worker thread, reused across runs, builds each rank a
//! [`Comm`] wired to a freshly constructed recorder, runs the
//! application body, and collects results, recorders (instrumentation
//! output), and traces.

use mheta_sim::{run_cluster, ClusterSpec, RankTrace, SimResult, SimTime};

use crate::comm::{Comm, ExecMode};
use crate::hooks::Recorder;

/// Everything a cluster-wide application run produces.
#[derive(Debug)]
pub struct AppRun<T, R> {
    /// Per-rank application return values.
    pub results: Vec<T>,
    /// Per-rank recorders, carrying whatever instrumentation the hook
    /// implementation accumulated.
    pub recorders: Vec<R>,
    /// Per-rank operational traces (empty unless tracing was enabled).
    pub traces: Vec<RankTrace>,
}

impl<T, R> AppRun<T, R> {
    /// The simulated wall time of the run: the last rank's finish time.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.traces
            .iter()
            .map(|t| t.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Options for [`run_app`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Record per-rank operational traces.
    pub tracing: bool,
    /// Execution mode handed to every rank's communicator.
    pub mode: ExecMode,
}

/// Run `body` once per rank of `spec`. `make_recorder` constructs each
/// rank's hook sink (use [`crate::hooks::NullRecorder`] for production
/// runs, `mheta-core`'s profile recorder for the instrumented
/// iteration).
pub fn run_app<T, R, MR, F>(
    spec: &ClusterSpec,
    opts: RunOptions,
    make_recorder: MR,
    body: F,
) -> SimResult<AppRun<T, R>>
where
    T: Send,
    R: Recorder + 'static,
    MR: Fn(usize) -> R + Sync,
    F: Fn(&mut Comm<'_, R>) -> SimResult<T> + Sync,
{
    let run = run_cluster(spec, opts.tracing, |ctx| {
        let mut rec = make_recorder(ctx.rank());
        let value = {
            let mut comm = Comm::new(ctx, &mut rec, opts.mode);
            body(&mut comm)?
        };
        Ok((value, rec))
    })?;
    let mut results = Vec::with_capacity(run.results.len());
    let mut recorders = Vec::with_capacity(run.results.len());
    for (value, rec) in run.results {
        results.push(value);
        recorders.push(rec);
    }
    Ok(AppRun {
        results,
        recorders,
        traces: run.traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce, ReduceOp};
    use crate::hooks::{HookEvent, VecRecorder};
    use mheta_sim::ClusterSpec;

    #[test]
    fn run_app_collects_results_and_recorders() {
        let mut spec = ClusterSpec::homogeneous(4);
        spec.noise.amplitude = 0.0;
        let run = run_app(
            &spec,
            RunOptions::default(),
            |_rank| VecRecorder::default(),
            |comm| {
                comm.begin_section(0);
                let mut v = vec![comm.rank() as f64];
                allreduce(comm, ReduceOp::Sum, &mut v)?;
                comm.end_section(0);
                Ok(v[0])
            },
        )
        .unwrap();
        assert_eq!(run.results, vec![6.0; 4]);
        for rec in &run.recorders {
            // Every rank saw at least section enter/exit plus some ops.
            assert!(rec.events.len() >= 3);
            assert!(rec.events.iter().any(|e| matches!(e, HookEvent::Op { .. })));
        }
    }

    #[test]
    fn makespan_positive_and_deterministic() {
        let spec = ClusterSpec::homogeneous(3);
        let go = || {
            run_app(
                &spec,
                RunOptions::default(),
                |_| crate::hooks::NullRecorder,
                |comm| {
                    comm.compute(1000.0, u64::MAX);
                    Ok(())
                },
            )
            .unwrap()
            .makespan()
        };
        let a = go();
        let b = go();
        assert_eq!(a, b);
        assert!(a.as_secs_f64() > 0.0);
    }
}
