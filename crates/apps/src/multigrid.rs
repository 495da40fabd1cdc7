//! Multigrid: the paper's named future-work application (§6: "We are
//! currently implementing more applications (including Multigrid)").
//!
//! A semicoarsened two-grid V-cycle over an `R × C` fine grid and an
//! `R × C/4` coarse grid, both row-distributed by the same `GEN_BLOCK`
//! (the coarse grid is coarsened in columns only, so it shares the
//! distribution axis — the property MHETA's single-axis `GEN_BLOCK`
//! model requires). Each iteration:
//!
//! 0. nearest-neighbor exchange of fine boundary rows,
//! 1. smooth the fine grid (downward-biased stencil streaming
//!    ICLA-row chunks; reads + writes `FINE`),
//! 2. restrict: column-average fine into coarse (reads `FINE`, writes
//!    `COARSE`),
//! 3. smooth the coarse grid in-row and store the *correction*
//!    (reads + writes `COARSE`),
//! 4. prolong: expand the correction back onto the fine grid (reads
//!    `COARSE` and `FINE`, writes `FINE`),
//! 5. global residual reduction.
//!
//! This exercises what no other benchmark does: multiple distributed
//! out-of-core variables with different row widths inside one program,
//! and stages that stream two variables at once.

use mheta_core::{CommPattern, ProgramStructure, SectionSpec, StageSpec, Variable};
use mheta_dist::GenBlock;
use mheta_mpi::{allreduce, barrier, Comm, Recorder, ReduceOp};
use mheta_sim::{SimError, SimResult, VarId};

use crate::app::{chunks, hash01, rank_plans, RankResult};

/// Variable ID of the fine grid.
pub const VAR_FINE: VarId = 1;
/// Variable ID of the coarse grid.
pub const VAR_COARSE: VarId = 2;
/// Variable ID of the replicated halo/carry buffers.
pub const VAR_HALOS: VarId = 3;
const TAG_UP: u32 = 40;
const TAG_DOWN: u32 = 41;
/// Smoother relaxation weight.
const OMEGA: f64 = 0.6;

/// The Multigrid benchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Multigrid {
    /// Fine-grid rows (the distribution axis).
    pub rows: usize,
    /// Fine-grid columns (must be divisible by 4).
    pub cols: usize,
    /// Data seed.
    pub seed: u64,
}

impl Default for Multigrid {
    fn default() -> Self {
        Multigrid {
            rows: 768,
            cols: 192,
            seed: 0x4d47,
        }
    }
}

impl Multigrid {
    /// A reduced-size instance for tests.
    #[must_use]
    pub fn small() -> Self {
        Multigrid {
            rows: 48,
            cols: 16,
            seed: 0x4d47,
        }
    }

    /// Coarse-grid columns. [`Multigrid::run`] rejects column counts
    /// that are not a multiple of four, in every build profile.
    fn ccols(&self) -> usize {
        self.cols / 4
    }

    /// The MHETA program structure.
    #[must_use]
    pub fn structure(&self) -> ProgramStructure {
        ProgramStructure {
            name: "multigrid".into(),
            sections: vec![
                SectionSpec {
                    id: 0,
                    tiles: 1,
                    stages: vec![],
                    comm: CommPattern::NearestNeighbor {
                        msg_elems: self.cols,
                    },
                },
                SectionSpec {
                    id: 1,
                    tiles: 1,
                    stages: vec![StageSpec::new(0, vec![VAR_FINE], vec![VAR_FINE], false)],
                    comm: CommPattern::None,
                },
                SectionSpec {
                    id: 2,
                    tiles: 1,
                    stages: vec![StageSpec::new(0, vec![VAR_FINE], vec![VAR_COARSE], false)],
                    comm: CommPattern::None,
                },
                SectionSpec {
                    id: 3,
                    tiles: 1,
                    stages: vec![StageSpec::new(0, vec![VAR_COARSE], vec![VAR_COARSE], false)],
                    comm: CommPattern::None,
                },
                SectionSpec {
                    id: 4,
                    tiles: 1,
                    stages: vec![StageSpec::new(
                        0,
                        vec![VAR_COARSE, VAR_FINE],
                        vec![VAR_FINE],
                        false,
                    )],
                    comm: CommPattern::None,
                },
                SectionSpec {
                    id: 5,
                    tiles: 1,
                    stages: vec![],
                    comm: CommPattern::Reduction { msg_elems: 1 },
                },
            ],
            variables: vec![
                Variable::streamed(VAR_FINE, "FINE", self.rows, self.cols as f64, false),
                Variable::streamed(VAR_COARSE, "COARSE", self.rows, self.ccols() as f64, false),
                Variable::replicated(VAR_HALOS, "halos", 4 * self.cols),
            ],
        }
    }

    /// Run the benchmark on one rank. `structure` is this instance's
    /// [`Multigrid::structure`], built once by the caller for the whole run.
    pub fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        structure: &ProgramStructure,
        dist: &GenBlock,
        iters: u32,
    ) -> SimResult<RankResult> {
        if !self.cols.is_multiple_of(4) {
            return Err(SimError::InvalidConfig(format!(
                "multigrid: {} columns are not a multiple of 4",
                self.cols
            )));
        }
        let rank = comm.rank();
        let n = comm.size();
        let m = dist.rows()[rank];
        let offset = dist.offsets()[rank];
        let cols = self.cols;
        let ccols = self.ccols();

        // ---- setup ----------------------------------------------------
        comm.ctx().disk.create(VAR_COARSE, m * ccols);
        {
            let mut init = Vec::with_capacity(m * cols);
            for r in 0..m {
                for c in 0..cols {
                    init.push(hash01(self.seed, (offset + r) as u64, c as u64));
                }
            }
            comm.ctx().disk.store(VAR_FINE, init);
        }

        // All resident data is declared in the structure.
        let plans = rank_plans(comm, structure, m, 0.0, &[]);
        let fine_plan = plans[&VAR_FINE];
        let icla = fine_plan.icla_rows;

        // In-core nodes keep both grids resident.
        let mut fine_core: Option<Vec<f64>> = None;
        let mut coarse_core: Option<Vec<f64>> = None;
        if fine_plan.in_core {
            let mut f = vec![0.0; m * cols];
            comm.file_read(VAR_FINE, 0, &mut f)?;
            fine_core = Some(f);
            coarse_core = Some(vec![0.0; m * ccols]);
        }

        let mut last_row = vec![0.0; cols];
        let mut first_row = vec![0.0; cols];
        if let Some(f) = fine_core.as_ref() {
            first_row.copy_from_slice(&f[..cols]);
            last_row.copy_from_slice(&f[(m - 1) * cols..]);
        } else {
            comm.file_read(VAR_FINE, 0, &mut first_row)?;
            comm.file_read(VAR_FINE, (m - 1) * cols, &mut last_row)?;
        }

        barrier(comm)?;
        let t0 = comm.ctx_ref().now().as_nanos();
        let mut residual = 0.0f64;

        for it in 0..iters {
            comm.begin_iteration(it);

            // ---- section 0: fine boundary exchange --------------------
            comm.begin_section(0);
            if rank > 0 {
                comm.send_f64s(rank - 1, TAG_UP, &first_row)?;
            }
            if rank + 1 < n {
                comm.send_f64s(rank + 1, TAG_DOWN, &last_row)?;
            }
            let top_halo = if rank > 0 {
                comm.recv_f64s(rank - 1, TAG_DOWN)?
            } else {
                vec![0.0; cols]
            };
            if rank + 1 < n {
                comm.recv_f64s(rank + 1, TAG_UP)?; // symmetry; unused
            }
            comm.end_section(0);

            // ---- section 1: smooth fine --------------------------------
            comm.begin_section(1);
            comm.begin_stage(0);
            let mut local_res = 0.0;
            {
                // Upward smoother on *old* values: new(r) from old(r-1)
                // and old(r) — distribution-independent because the
                // carry row is always the previous row's old value (the
                // halo at rank boundaries).
                let mut carry = top_halo.clone();
                let mut smooth_rows = |rows_buf: &mut [f64], count: usize| {
                    for i in 0..count {
                        let row = &mut rows_buf[i * cols..(i + 1) * cols];
                        let old: Vec<f64> = row.to_vec();
                        for c in 0..cols {
                            let left = if c > 0 { old[c - 1] } else { old[c] };
                            let right = if c + 1 < cols { old[c + 1] } else { old[c] };
                            let target = 0.25 * (carry[c] + left + right + old[c]);
                            let v = (1.0 - OMEGA) * old[c] + OMEGA * target;
                            local_res += (v - old[c]).abs();
                            row[c] = v;
                        }
                        carry = old;
                    }
                };
                if let Some(f) = fine_core.as_mut() {
                    smooth_rows(f, m);
                    comm.compute((m * cols) as f64, (m * cols * 8) as u64);
                } else {
                    let mut buf = vec![0.0; icla * cols];
                    for (s, l) in chunks(m, icla) {
                        comm.file_read(VAR_FINE, s * cols, &mut buf[..l * cols])?;
                        smooth_rows(&mut buf[..l * cols], l);
                        comm.compute((l * cols) as f64, (2 * icla * cols * 8) as u64);
                        comm.file_write(VAR_FINE, s * cols, &buf[..l * cols])?;
                    }
                }
            }
            comm.end_stage(0);
            comm.end_section(1);

            // ---- section 2: restrict -----------------------------------
            comm.begin_section(2);
            comm.begin_stage(0);
            if let (Some(f), Some(cgrid)) = (fine_core.as_ref(), coarse_core.as_mut()) {
                for i in 0..m {
                    for cc in 0..ccols {
                        cgrid[i * ccols + cc] = f[i * cols + 4 * cc..i * cols + 4 * cc + 4]
                            .iter()
                            .sum::<f64>()
                            / 4.0;
                    }
                }
                comm.compute((m * cols) as f64, (m * cols * 8) as u64);
            } else {
                let mut fbuf = vec![0.0; icla * cols];
                let mut cbuf = vec![0.0; icla * ccols];
                for (s, l) in chunks(m, icla) {
                    comm.file_read(VAR_FINE, s * cols, &mut fbuf[..l * cols])?;
                    for i in 0..l {
                        for cc in 0..ccols {
                            cbuf[i * ccols + cc] = fbuf[i * cols + 4 * cc..i * cols + 4 * cc + 4]
                                .iter()
                                .sum::<f64>()
                                / 4.0;
                        }
                    }
                    comm.compute((l * cols) as f64, (icla * cols * 8) as u64);
                    comm.file_write(VAR_COARSE, s * ccols, &cbuf[..l * ccols])?;
                }
            }
            comm.end_stage(0);
            comm.end_section(2);

            // ---- section 3: smooth coarse, store correction ------------
            comm.begin_section(3);
            comm.begin_stage(0);
            let mut corr_sum = 0.0;
            {
                let mut correct_rows = |rows_buf: &mut [f64], count: usize| {
                    for i in 0..count {
                        let row = &mut rows_buf[i * ccols..(i + 1) * ccols];
                        let orig: Vec<f64> = row.to_vec();
                        for c in 0..ccols {
                            let left = if c > 0 { orig[c - 1] } else { orig[c] };
                            let right = if c + 1 < ccols { orig[c + 1] } else { orig[c] };
                            let smoothed = (1.0 - OMEGA) * orig[c] + OMEGA * 0.5 * (left + right);
                            row[c] = smoothed - orig[c]; // the correction
                            corr_sum += row[c].abs();
                        }
                    }
                };
                if let Some(cgrid) = coarse_core.as_mut() {
                    correct_rows(cgrid, m);
                    comm.compute((m * ccols) as f64, (m * ccols * 8) as u64);
                } else {
                    let mut cbuf = vec![0.0; icla * ccols];
                    for (s, l) in chunks(m, icla) {
                        comm.file_read(VAR_COARSE, s * ccols, &mut cbuf[..l * ccols])?;
                        correct_rows(&mut cbuf[..l * ccols], l);
                        comm.compute((l * ccols) as f64, (2 * icla * ccols * 8) as u64);
                        comm.file_write(VAR_COARSE, s * ccols, &cbuf[..l * ccols])?;
                    }
                }
            }
            comm.end_stage(0);
            comm.end_section(3);

            // ---- section 4: prolong + correct --------------------------
            comm.begin_section(4);
            comm.begin_stage(0);
            if let (Some(f), Some(cgrid)) = (fine_core.as_mut(), coarse_core.as_ref()) {
                for i in 0..m {
                    for c in 0..cols {
                        f[i * cols + c] += cgrid[i * ccols + c / 4];
                    }
                }
                comm.compute((m * cols) as f64, (m * cols * 8) as u64);
            } else {
                let mut fbuf = vec![0.0; icla * cols];
                let mut cbuf = vec![0.0; icla * ccols];
                for (s, l) in chunks(m, icla) {
                    comm.file_read(VAR_COARSE, s * ccols, &mut cbuf[..l * ccols])?;
                    comm.file_read(VAR_FINE, s * cols, &mut fbuf[..l * cols])?;
                    for i in 0..l {
                        for c in 0..cols {
                            fbuf[i * cols + c] += cbuf[i * ccols + c / 4];
                        }
                    }
                    comm.compute((l * cols) as f64, (2 * icla * cols * 8) as u64);
                    comm.file_write(VAR_FINE, s * cols, &fbuf[..l * cols])?;
                    // Capture boundary rows in passing — no extra reads.
                    if s == 0 {
                        first_row.copy_from_slice(&fbuf[..cols]);
                    }
                    if s + l == m {
                        last_row.copy_from_slice(&fbuf[(l - 1) * cols..l * cols]);
                    }
                }
            }
            comm.end_stage(0);
            comm.end_section(4);

            // Refresh boundary caches from the final fine values.
            if let Some(f) = fine_core.as_ref() {
                first_row.copy_from_slice(&f[..cols]);
                last_row.copy_from_slice(&f[(m - 1) * cols..]);
            }

            // ---- section 5: reduction ----------------------------------
            comm.begin_section(5);
            let mut acc = [local_res + corr_sum];
            allreduce(comm, ReduceOp::Sum, &mut acc)?;
            residual = acc[0];
            comm.end_section(5);

            comm.end_iteration(it);
        }

        Ok(RankResult {
            t0_ns: t0,
            t1_ns: comm.ctx_ref().now().as_nanos(),
            check: residual,
        })
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

    fn run_mg(spec: &ClusterSpec, dist: GenBlock, iters: u32) -> Vec<RankResult> {
        let app = Multigrid::small();
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

    /// A column count the 4:1 coarsening does not divide is refused in
    /// every build profile, not only where `debug_assert` is compiled.
    #[test]
    fn rejects_columns_that_are_not_a_multiple_of_four() {
        for cols in [17, 18, 19] {
            let app = Multigrid {
                cols,
                ..Multigrid::small()
            };
            let structure = app.structure();
            let dist = GenBlock::block(48, 4);
            let run = run_app(
                &quiet(4),
                RunOptions::default(),
                |_| NullRecorder,
                |comm| app.run(comm, &structure, &dist, 1),
            );
            assert!(
                matches!(run, Err(SimError::InvalidConfig(_))),
                "cols {cols}"
            );
        }
    }

    #[test]
    fn residual_decreases_with_iterations() {
        let spec = quiet(4);
        let short = run_mg(&spec, GenBlock::block(48, 4), 2);
        let long = run_mg(&spec, GenBlock::block(48, 4), 8);
        assert!(long[0].check < short[0].check);
    }

    #[test]
    fn out_of_core_matches_in_core() {
        let mut starved = quiet(4);
        for nd in &mut starved.nodes {
            nd.memory_bytes = 1024;
        }
        let a = run_mg(&starved, GenBlock::block(48, 4), 3);
        let b = run_mg(&quiet(4), GenBlock::block(48, 4), 3);
        let rel = (a[0].check - b[0].check).abs() / b[0].check.max(1e-30);
        assert!(rel < 1e-9, "rel {rel}");
    }

    #[test]
    fn structure_validates_with_two_variables() {
        let s = Multigrid::default().structure();
        s.validate().unwrap();
        assert_eq!(s.distributed_vars().count(), 2);
        // Footprint: fine rw (2x) + coarse rw (2x).
        let fp = s.footprint_row_bytes();
        assert_eq!(fp.len(), 2);
    }

    #[test]
    fn distribution_independent() {
        let spec = quiet(4);
        let a = run_mg(&spec, GenBlock::block(48, 4), 3);
        let b = run_mg(&spec, GenBlock::new(vec![20, 12, 12, 4]).unwrap(), 3);
        let rel = (a[0].check - b[0].check).abs() / a[0].check.max(1e-30);
        assert!(rel < 1e-9, "rel {rel}");
    }
}
