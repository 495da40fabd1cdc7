//! Lanczos iteration, the paper's full-scale application: an iterative
//! method over a symmetric dense `n × n` matrix (the paper solves
//! `A x = b` with `A` symmetric positive definite and dense).
//!
//! Each iteration of the three-term recurrence:
//!
//! 0. `w = A v` — the dense mat-vec streaming the row-distributed,
//!    **read-only** matrix from disk, then `α = v·w` by reduction;
//! 1. `w ← w − α v − β v_prev` and `β² = w·w`, local row work plus a
//!    scalar reduction;
//! 2. `v_next = w / β`, re-assembled into every node's full copy by a
//!    padded allreduce.
//!
//! Verification uses Lanczos invariants: the iterate stays unit-norm
//! and consecutive basis vectors are orthogonal.

use mheta_core::{CommPattern, ProgramStructure, SectionSpec, StageSpec, Variable};
use mheta_dist::GenBlock;
use mheta_mpi::{allreduce, barrier, Comm, Recorder, ReduceOp};
use mheta_sim::{SimResult, VarId};

use crate::app::{chunks, hash01, rank_plans, unit, HashRun, RankResult};

/// Variable ID of the dense matrix.
pub const VAR_A: VarId = 1;
/// Variable ID of the replicated full Lanczos vector.
pub const VAR_V: VarId = 2;
/// Variable ID of the resident per-row working vectors (`w`, `v_prev`).
pub const VAR_W: VarId = 3;

/// The Lanczos benchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Lanczos {
    /// Matrix dimension (rows = the distribution axis).
    pub n: usize,
    /// Data seed.
    pub seed: u64,
}

impl Default for Lanczos {
    fn default() -> Self {
        Lanczos { n: 640, seed: 0x1a }
    }
}

impl Lanczos {
    /// A reduced-size instance for tests.
    #[must_use]
    pub fn small() -> Self {
        Lanczos { n: 64, seed: 0x1a }
    }

    /// Matrix entry `A[r][c]` (symmetric; heavy diagonal keeps the
    /// spectrum well behaved).
    #[must_use]
    pub fn entry(&self, r: usize, c: usize) -> f64 {
        let (a, b) = (r.min(c) as u64, r.max(c) as u64);
        let v = hash01(self.seed, a, b) - 0.5;
        if r == c {
            v + self.n as f64 / 4.0
        } else {
            v
        }
    }

    /// Append rows `[offset, offset + m)` of the matrix to `out`, `n`
    /// values each: each row's [`Lanczos::entry`]s, written as two
    /// straight runs around the diagonal (columns before it hash `(c,
    /// r)`, a run along `a`; columns after it `(r, c)`, a run along `b`),
    /// with no per-entry `min`/`max`.
    fn rows_into(&self, offset: usize, m: usize, out: &mut Vec<f64>) {
        let (n, seed) = (self.n, self.seed);
        for r in offset..offset + m {
            for q in HashRun::along_a(seed, 0, r as u64).take(r) {
                out.push(unit(q) - 0.5);
            }
            out.push(self.entry(r, r));
            for q in HashRun::along_b(seed, r as u64, r as u64 + 1).take(n - r - 1) {
                out.push(unit(q) - 0.5);
            }
        }
    }

    /// The MHETA program structure.
    #[must_use]
    pub fn structure(&self) -> ProgramStructure {
        ProgramStructure {
            name: "lanczos".into(),
            sections: vec![
                SectionSpec {
                    id: 0,
                    tiles: 1,
                    stages: vec![StageSpec::new(0, vec![VAR_A], vec![], false)],
                    comm: CommPattern::Reduction { msg_elems: 1 },
                },
                SectionSpec {
                    id: 1,
                    tiles: 1,
                    stages: vec![StageSpec::new(0, vec![], vec![], false)],
                    comm: CommPattern::Reduction { msg_elems: 1 },
                },
                SectionSpec {
                    id: 2,
                    tiles: 1,
                    stages: vec![StageSpec::new(0, vec![], vec![], false)],
                    comm: CommPattern::Reduction { msg_elems: self.n },
                },
            ],
            variables: vec![
                Variable::streamed(VAR_A, "A", self.n, self.n as f64, true),
                // v_full and the assembly buffer.
                Variable::replicated(VAR_V, "v", 2 * self.n),
                Variable::resident_local(VAR_W, "w/v_prev", self.n, 2.0),
            ],
        }
    }

    /// Run the benchmark on one rank. `structure` is this instance's
    /// [`Lanczos::structure`], built once by the caller for the whole run.
    pub fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        structure: &ProgramStructure,
        dist: &GenBlock,
        iters: u32,
    ) -> SimResult<RankResult> {
        let rank = comm.rank();
        let m = dist.rows()[rank];
        let offset = dist.offsets()[rank];
        let n = self.n;

        // ---- setup: my dense rows on disk -----------------------------
        {
            let mut flat = Vec::with_capacity(m * n);
            self.rows_into(offset, m, &mut flat);
            comm.ctx().disk.store(VAR_A, flat);
        }

        // All resident data is declared in the structure.
        let plans = rank_plans(comm, structure, m, 0.0, &[]);
        let plan = plans[&VAR_A];
        let core: Option<Vec<f64>> = if plan.in_core {
            Some(comm.file_take(VAR_A)?)
        } else {
            None
        };

        // ---- Lanczos state --------------------------------------------
        // v = normalized all-ones; v_prev = 0; beta = 0.
        let mut v_full = vec![1.0 / (n as f64).sqrt(); n];
        let mut v_prev_local = vec![0.0; m];
        let mut w = vec![0.0; m];
        let mut beta = 0.0f64;
        let mut ortho = 0.0f64;
        let mut alpha_last = 0.0f64;
        // The re-assembly buffer: each iteration's outgoing `v_full`.
        let mut next = vec![0.0; n];

        barrier(comm)?;
        let t0 = comm.ctx_ref().now().as_nanos();

        for it in 0..iters {
            comm.begin_iteration(it);

            // ---- section 0: w = A v, alpha = v.w ----------------------
            comm.begin_section(0);
            comm.begin_stage(0);
            if let Some(a) = core.as_ref() {
                dot_rows(a, &v_full, &mut w);
                comm.compute((m * n) as f64, (m * n * 8) as u64);
            } else {
                for (s, l) in chunks(m, plan.icla_rows) {
                    comm.file_read_with(VAR_A, s * n, l * n, |a| {
                        dot_rows(a, &v_full, &mut w[s..s + l]);
                    })?;
                    comm.compute((l * n) as f64, (l * n * 8) as u64);
                }
            }
            comm.end_stage(0);
            let alpha = {
                let mut acc = [(0..m).map(|i| v_full[offset + i] * w[i]).sum::<f64>()];
                allreduce(comm, ReduceOp::Sum, &mut acc)?;
                acc[0]
            };
            comm.end_section(0);

            // ---- section 1: orthogonalize, norm -----------------------
            comm.begin_section(1);
            comm.begin_stage(0);
            let mut nsq_local = 0.0;
            for i in 0..m {
                w[i] -= alpha * v_full[offset + i] + beta * v_prev_local[i];
                nsq_local += w[i] * w[i];
            }
            comm.compute(3.0 * m as f64, (3 * m * 8) as u64);
            comm.end_stage(0);
            let nsq = {
                let mut acc = [nsq_local];
                allreduce(comm, ReduceOp::Sum, &mut acc)?;
                acc[0]
            };
            comm.end_section(1);
            let beta_new = nsq.sqrt();

            // ---- section 2: v_next = w / beta, reassemble -------------
            comm.begin_section(2);
            comm.begin_stage(0);
            v_prev_local.copy_from_slice(&v_full[offset..offset + m]);
            next[..offset].fill(0.0);
            next[offset + m..].fill(0.0);
            for i in 0..m {
                next[offset + i] = w[i] / beta_new;
            }
            comm.compute(m as f64, (m * 8) as u64);
            comm.end_stage(0);
            allreduce(comm, ReduceOp::Sum, &mut next)?;
            comm.end_section(2);

            // Track the invariant: v_next . v (should be ~0).
            ortho = ortho.max(
                next.iter()
                    .zip(&v_full)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
                    .abs(),
            );
            std::mem::swap(&mut v_full, &mut next);
            beta = beta_new;
            alpha_last = alpha;

            comm.end_iteration(it);
        }

        let t1 = comm.ctx_ref().now().as_nanos();
        let _ = alpha_last;
        Ok(RankResult {
            t0_ns: t0,
            t1_ns: t1,
            // Check value: max observed |v_{j+1} . v_j| plus the norm
            // error of the final iterate.
            check: ortho + (v_full.iter().map(|x| x * x).sum::<f64>().sqrt() - 1.0).abs(),
        })
    }
}

/// `out[i]` = row `i` of `rows` (`out.len()` rows of `v.len()` values,
/// back to back) dotted with `v`, each folded in column order as
/// `Iterator::sum` folds it. Four rows' chains run side by side, each
/// accumulator starting from the value `sum` starts from; the rows left
/// over take the plain `sum`. Bit for bit the same either way.
fn dot_rows(rows: &[f64], v: &[f64], out: &mut [f64]) {
    let n = v.len();
    let start: f64 = std::iter::empty::<f64>().sum();
    let done = out.len() / 4 * 4;
    let mut outs = out.chunks_exact_mut(4);
    for (g, o) in (&mut outs).enumerate() {
        let group = &rows[4 * g * n..][..4 * n];
        let (r0, r1, r2, r3) = (
            &group[..n],
            &group[n..2 * n],
            &group[2 * n..3 * n],
            &group[3 * n..],
        );
        let mut acc = [start; 4];
        for c in 0..n {
            acc[0] += r0[c] * v[c];
            acc[1] += r1[c] * v[c];
            acc[2] += r2[c] * v[c];
            acc[3] += r3[c] * v[c];
        }
        o.copy_from_slice(&acc);
    }
    for (i, o) in outs.into_remainder().iter_mut().enumerate() {
        *o = rows[(done + i) * n..][..n]
            .iter()
            .zip(v)
            .map(|(x, y)| x * y)
            .sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    use mheta_sim::ClusterSpec;

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    fn run_lanczos(spec: &ClusterSpec, dist: GenBlock, iters: u32) -> Vec<RankResult> {
        let app = Lanczos::small();
        let structure = app.structure();
        run_app(
            spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| app.run(comm, &structure, &dist, iters),
        )
        .unwrap()
        .results
    }

    #[test]
    fn matrix_is_symmetric_with_heavy_diagonal() {
        let l = Lanczos::small();
        for r in (0..l.n).step_by(7) {
            for c in (0..l.n).step_by(5) {
                assert_eq!(l.entry(r, c), l.entry(c, r));
            }
            assert!(l.entry(r, r) > 10.0);
        }
    }

    #[test]
    fn invariants_hold() {
        let spec = quiet(4);
        let rs = run_lanczos(&spec, GenBlock::block(64, 4), 5);
        // Orthogonality + unit-norm error stays tiny.
        assert!(rs[0].check < 1e-9, "invariant error {}", rs[0].check);
    }

    #[test]
    fn distribution_independent() {
        let spec = quiet(4);
        let a = run_lanczos(&spec, GenBlock::block(64, 4), 4);
        let b = run_lanczos(&spec, GenBlock::new(vec![40, 10, 10, 4]).unwrap(), 4);
        assert!((a[0].check - b[0].check).abs() < 1e-9);
    }

    #[test]
    fn out_of_core_runs_and_is_slower() {
        let mut starved = quiet(4);
        for nd in &mut starved.nodes {
            nd.memory_bytes = 3 * 1024;
        }
        let a = run_lanczos(&starved, GenBlock::block(64, 4), 3);
        let b = run_lanczos(&quiet(4), GenBlock::block(64, 4), 3);
        assert!(a[0].check < 1e-9);
        let ta: f64 = a.iter().map(RankResult::secs).fold(0.0, f64::max);
        let tb: f64 = b.iter().map(RankResult::secs).fold(0.0, f64::max);
        assert!(ta > tb, "ooc {ta} vs core {tb}");
    }

    #[test]
    fn structure_validates() {
        Lanczos::default().structure().validate().unwrap();
    }

    /// The rows built in place are `entry`'s, bit for bit, for shares at
    /// the start, in the middle and at the end of the matrix.
    #[test]
    fn rows_into_matches_entry() {
        for n in [1, 2, 7, 64] {
            let l = Lanczos { n, seed: 0x1a };
            for (offset, m) in [
                (0, n),
                (0, 1),
                (n - 1, 1),
                (n / 3, n - n / 3),
                (n / 2, n / 4),
            ] {
                let mut got = Vec::new();
                l.rows_into(offset, m, &mut got);
                assert_eq!(got.len(), m * n);
                for (i, row) in got.chunks_exact(n).enumerate() {
                    for (c, v) in row.iter().enumerate() {
                        let want = l.entry(offset + i, c);
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "n {n} row {} col {c}",
                            offset + i
                        );
                    }
                }
            }
        }
    }

    /// `dot_rows` is the row-at-a-time `sum` bit for bit, for row counts
    /// around multiples of four. Row 1 and the last row have only −0.0
    /// products: a fold that started from +0.0 would return +0.0 there.
    #[test]
    fn dot_rows_match_the_row_at_a_time_sum() {
        for n in [0, 1, 3, 8, 13] {
            let v: Vec<f64> = (0..n).map(|c| hash01(9, 0, c as u64) + 0.5).collect();
            for m in 0..=9usize {
                let mut rows: Vec<f64> = (0..m * n).map(|i| hash01(9, 1, i as u64) - 0.5).collect();
                for i in [1, m.saturating_sub(1)] {
                    if i < m {
                        rows[i * n..(i + 1) * n].fill(-0.0);
                    }
                }
                let want: Vec<u64> = (0..m)
                    .map(|i| {
                        rows[i * n..(i + 1) * n]
                            .iter()
                            .zip(&v)
                            .map(|(x, y)| x * y)
                            .sum::<f64>()
                            .to_bits()
                    })
                    .collect();
                let mut out = vec![f64::NAN; m];
                dot_rows(&rows, &v, &mut out);
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{m} rows of {n}");
            }
        }
    }
}
