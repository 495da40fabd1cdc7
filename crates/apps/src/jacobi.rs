//! Jacobi iteration on a 2-D grid, the paper's first benchmark.
//!
//! A five-point stencil over an `R × C` grid distributed by rows. Each
//! iteration is three parallel sections:
//!
//! 0. boundary-row exchange with the rank neighbors (nearest-neighbor
//!    communication, Figure 1's "EXCHANGE BOUNDARIES"),
//! 1. the sweep: a single stage reading and writing the grid `U`; out
//!    of core it streams ICLA-row chunks — optionally with the
//!    prefetch-unrolled loop of Figure 6,
//! 2. a global residual reduction.
//!
//! The out-of-core sweep is a streaming stencil: old rows flow through
//! a three-row window, each new row is computed as soon as its lower
//! neighbor arrives, and completed rows are written back in place
//! (safe because writes trail reads by one row). Reads are therefore
//! exactly ICLA-sized, matching Eq. 1/Eq. 2's accounting.

use mheta_core::{CommPattern, ProgramStructure, SectionSpec, StageSpec, Variable};
use mheta_mpi::{allreduce, barrier, Comm, Recorder, ReduceOp};
use mheta_sim::{SimResult, VarId};

use crate::app::{chunks, rank_plans, unit, HashRun, RankResult};
use mheta_dist::GenBlock;

/// Variable ID of the grid.
pub const VAR_U: VarId = 1;
/// Variable ID of the resident halo/window buffers.
pub const VAR_HALOS: VarId = 2;
const TAG_UP: u32 = 10;
const TAG_DOWN: u32 = 11;

/// The Jacobi benchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Jacobi {
    /// Grid rows (the distribution axis).
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Data seed.
    pub seed: u64,
}

impl Default for Jacobi {
    fn default() -> Self {
        Jacobi {
            rows: 768,
            cols: 192,
            seed: 0x4a43,
        }
    }
}

impl Jacobi {
    /// A reduced-size instance for tests.
    #[must_use]
    pub fn small() -> Self {
        Jacobi {
            rows: 64,
            cols: 16,
            seed: 0x4a43,
        }
    }

    /// The MHETA program structure (prefetch selects Eq. 2 for the
    /// sweep stage).
    #[must_use]
    pub fn structure(&self, prefetch: bool) -> ProgramStructure {
        ProgramStructure {
            name: "jacobi".into(),
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
                    stages: vec![StageSpec::new(0, vec![VAR_U], vec![VAR_U], prefetch)],
                    comm: CommPattern::None,
                },
                SectionSpec {
                    id: 2,
                    tiles: 1,
                    stages: vec![],
                    comm: CommPattern::Reduction { msg_elems: 1 },
                },
            ],
            variables: vec![
                Variable::streamed(VAR_U, "U", self.rows, self.cols as f64, false),
                // Halo rows, stencil window, and boundary caches: six
                // row-sized buffers always resident.
                Variable::replicated(VAR_HALOS, "halos", 6 * self.cols),
            ],
        }
    }

    pub(crate) fn initial_row(
        &self,
        global_row: usize,
        cols: usize,
    ) -> impl Iterator<Item = f64> + '_ {
        HashRun::along_b(self.seed, global_row as u64, 0)
            .take(cols)
            .map(unit)
    }

    /// Five-point update of one row given its old neighbors, written
    /// into `new`. Returns the row's contribution to the residual. The
    /// edge columns, whose missing neighbor reads as zero, are peeled
    /// off so that the interior loop has no branch.
    fn stencil_into(above: &[f64], mid: &[f64], below: &[f64], new: &mut [f64]) -> f64 {
        let cols = mid.len();
        let (above, below, new) = (&above[..cols], &below[..cols], &mut new[..cols]);
        let mut res = 0.0;
        let mut cell = |c: usize, left: f64, right: f64| {
            let v = 0.25 * (above[c] + below[c] + left + right);
            res += (v - mid[c]).abs();
            new[c] = v;
        };
        match cols {
            0 => {}
            1 => cell(0, 0.0, 0.0),
            _ => {
                cell(0, 0.0, mid[1]);
                for c in 1..cols - 1 {
                    cell(c, mid[c - 1], mid[c + 1]);
                }
                cell(cols - 1, mid[cols - 2], 0.0);
            }
        }
        res
    }

    /// Run the benchmark on one rank. `structure` is this instance's
    /// [`Jacobi::structure`], built once by the caller for the whole run.
    pub fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        structure: &ProgramStructure,
        dist: &GenBlock,
        iters: u32,
        prefetch: bool,
    ) -> SimResult<RankResult> {
        let rank = comm.rank();
        let n = comm.size();
        let cols = self.cols;
        let m = dist.rows()[rank];
        let offset = dist.offsets()[rank];

        // ---- setup: place this rank's share on its local disk -------
        // The instrumented iteration computes no values (DESIGN §5): a
        // zero grid of the share's shape, and no stencil.
        let init = if comm.force_ooc() {
            vec![0.0; m * cols]
        } else {
            let mut init = Vec::with_capacity(m * cols);
            for r in 0..m {
                init.extend(self.initial_row(offset + r, cols));
            }
            init
        };
        let mut first_row = init[..cols].to_vec();
        let mut last_row = init[(m - 1) * cols..].to_vec();
        comm.ctx().disk.store(VAR_U, init);

        // All resident buffers are declared in the structure; no
        // extras remain, so model and application plans agree exactly.
        let plans = rank_plans(comm, structure, m, 0.0, &[]);
        let plan = plans[&VAR_U];

        // In-core nodes load their share once (compulsory read, before
        // the measured loop) and iterate from memory.
        let mut core: Option<Vec<f64>> = if plan.in_core {
            Some(comm.file_take(VAR_U)?)
        } else {
            None
        };
        // The in-core sweep's second grid, swapped with `core` each sweep.
        let mut spare = Vec::new();

        barrier(comm)?;
        let t0 = comm.ctx_ref().now().as_nanos();
        let mut residual = 0.0;

        for it in 0..iters {
            comm.begin_iteration(it);

            // ---- section 0: exchange boundary rows -------------------
            comm.begin_section(0);
            let zero = vec![0.0; cols];
            if rank > 0 {
                comm.send_f64s(rank - 1, TAG_UP, &first_row)?;
            }
            if rank + 1 < n {
                comm.send_f64s(rank + 1, TAG_DOWN, &last_row)?;
            }
            let top_halo = if rank > 0 {
                comm.recv_f64s(rank - 1, TAG_DOWN)?
            } else {
                zero.clone()
            };
            let bottom_halo = if rank + 1 < n {
                comm.recv_f64s(rank + 1, TAG_UP)?
            } else {
                zero
            };
            comm.end_section(0);

            // ---- section 1: the sweep ---------------------------------
            comm.begin_section(1);
            comm.begin_stage(0);
            let local_res = if let Some(u) = core.as_mut() {
                let res = self.sweep_in_core(comm, u, &mut spare, &top_halo, &bottom_halo);
                first_row.copy_from_slice(&u[..cols]);
                last_row.copy_from_slice(&u[(m - 1) * cols..]);
                res
            } else {
                self.sweep_streaming(
                    comm,
                    m,
                    plan.icla_rows,
                    &top_halo,
                    &bottom_halo,
                    &mut first_row,
                    &mut last_row,
                    prefetch,
                )?
            };
            comm.end_stage(0);
            comm.end_section(1);

            // ---- section 2: global residual ---------------------------
            comm.begin_section(2);
            let mut acc = [local_res];
            allreduce(comm, ReduceOp::Sum, &mut acc)?;
            residual = acc[0];
            comm.end_section(2);

            comm.end_iteration(it);
        }

        Ok(RankResult {
            t0_ns: t0,
            t1_ns: comm.ctx_ref().now().as_nanos(),
            check: residual,
        })
    }

    /// One in-core sweep of the grid `u` (whole rows) between its halos;
    /// returns the local residual. The new grid is written into `spare`,
    /// which the caller owns and keeps from sweep to sweep, and the two
    /// are swapped: no grid is allocated, zeroed or copied per
    /// iteration. `spare` is resized only when `u`'s length changed
    /// since the last sweep; its old values are never read.
    pub(crate) fn sweep_in_core<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        u: &mut Vec<f64>,
        spare: &mut Vec<f64>,
        top_halo: &[f64],
        bottom_halo: &[f64],
    ) -> f64 {
        let cols = self.cols;
        let m = u.len() / cols;
        spare.resize(u.len(), 0.0);
        let new = spare;
        let mut res = 0.0;
        for r in 0..m {
            let above = if r == 0 {
                top_halo
            } else {
                &u[(r - 1) * cols..r * cols]
            };
            let below = if r + 1 == m {
                bottom_halo
            } else {
                &u[(r + 1) * cols..(r + 2) * cols]
            };
            let mid = &u[r * cols..(r + 1) * cols];
            res += Self::stencil_into(above, mid, below, &mut new[r * cols..(r + 1) * cols]);
        }
        comm.compute((m * cols) as f64, (2 * u.len() * 8) as u64);
        std::mem::swap(u, new);
        res
    }

    /// Streaming out-of-core sweep: a three-row window of old values
    /// trails the chunk reads; new rows are written back in place one
    /// row behind the read front. Returns the local residual; the new
    /// first and last rows land in `first_new` and `last_new`, the
    /// caller's buffers for the next boundary exchange. In the
    /// instrumented iteration it charges the same operations in the same
    /// order but reads, computes and writes no value.
    #[allow(clippy::too_many_arguments)]
    fn sweep_streaming<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        m: usize,
        icla_rows: usize,
        top_halo: &[f64],
        bottom_halo: &[f64],
        first_new: &mut [f64],
        last_new: &mut [f64],
        prefetch: bool,
    ) -> SimResult<f64> {
        let values = !comm.force_ooc();
        let cols = self.cols;
        let plan = chunks(m, icla_rows);
        let ws_bytes = (2 * icla_rows * cols * 8) as u64;

        let mut state = SweepState {
            cols,
            ws_bytes,
            values,
            res: 0.0,
            two_back: top_halo.to_vec(),
            one_back: vec![0.0; cols],
            pending_new: Vec::with_capacity((icla_rows + 1) * cols),
            pending_rows: 0,
            flush_from: 0,
            first_new,
            last_new,
        };

        if prefetch {
            // Figure 6's unrolled loop: Read ICLA(1); for i in 2..:
            // Prefetch(i), Process(i-1), Wait(i), write(i-1).
            let (s0, l0) = plan[0];
            let buf = comm.file_read_with(VAR_U, s0 * cols, l0 * cols, |chunk| {
                if values {
                    chunk.to_vec()
                } else {
                    Vec::new()
                }
            })?;
            let mut cur = (s0, l0, buf);
            for &(s, l) in &plan[1..] {
                let tok = comm.prefetch(VAR_U, s * cols, l * cols)?;
                let rows = state.absorb(&cur.2, cur.0, cur.1);
                state.charge(comm, rows);
                let next = comm.wait(tok);
                state.flush(comm)?;
                cur = (s, l, next);
            }
            let rows = state.absorb(&cur.2, cur.0, cur.1);
            state.charge(comm, rows);
        } else {
            for (k, &(s, l)) in plan.iter().enumerate() {
                let rows = comm
                    .file_read_with(VAR_U, s * cols, l * cols, |chunk| state.absorb(chunk, s, l))?;
                state.charge(comm, rows);
                // The last chunk's rows are written together with the
                // final (halo-dependent) row below: exactly N_io writes
                // per sweep, matching Eq. 1's accounting.
                if k + 1 < plan.len() {
                    state.flush(comm)?;
                }
            }
        }

        // The final row uses the bottom halo.
        state.stencil_next(bottom_halo);
        comm.compute(cols as f64, ws_bytes);
        state.flush(comm)?;
        debug_assert_eq!(state.flush_from, m);
        Ok(state.res)
    }
}

/// Mutable state threaded through the streaming sweep.
struct SweepState<'a> {
    cols: usize,
    ws_bytes: u64,
    /// False in the instrumented iteration: rows are counted, charged
    /// and written back, but no value is read, computed or stored.
    values: bool,
    res: f64,
    /// Old row `r - 2` relative to the next unread row.
    two_back: Vec<f64>,
    /// Old row `r - 1`.
    one_back: Vec<f64>,
    /// New rows computed but not yet written back (with `values`).
    pending_new: Vec<f64>,
    /// How many rows `pending_new` stands for.
    pending_rows: usize,
    /// Global (local-share) row index the next flush starts at.
    flush_from: usize,
    first_new: &'a mut [f64],
    last_new: &'a mut [f64],
}

impl SweepState<'_> {
    /// Compute the new row whose old neighbors are the window and
    /// `below`, straight into the tail of `pending_new`.
    fn stencil_next(&mut self, below: &[f64]) {
        self.pending_rows += 1;
        if !self.values {
            return;
        }
        let at = self.pending_new.len();
        self.pending_new.resize(at + self.cols, 0.0);
        self.res += Jacobi::stencil_into(
            &self.two_back,
            &self.one_back,
            below,
            &mut self.pending_new[at..],
        );
    }

    /// Slide the window over the `len` old rows in `buf`, the share's
    /// rows from `start` on, computing each new row it completes.
    /// Returns how many it computed; [`SweepState::charge`] pays for them.
    /// Without `values` it only counts them, and `buf` is not read.
    fn absorb(&mut self, buf: &[f64], start: usize, len: usize) -> usize {
        if !self.values {
            // Every row but the share's first completes the one above.
            let rows = len - usize::from(start == 0);
            self.pending_rows += rows;
            return rows;
        }
        let cols = self.cols;
        let mut computed_rows = 0usize;
        for k in 0..len {
            let r = start + k;
            let row = &buf[k * cols..(k + 1) * cols];
            if r > 0 {
                // Compute new[r-1]: above = old[r-2], mid = old[r-1],
                // below = old[r].
                self.stencil_next(row);
                computed_rows += 1;
                std::mem::swap(&mut self.two_back, &mut self.one_back);
            }
            self.one_back.copy_from_slice(row);
        }
        computed_rows
    }

    /// Charge the compute of `rows` new rows, if any.
    fn charge<R: Recorder>(&self, comm: &mut Comm<'_, R>, rows: usize) {
        if rows > 0 {
            comm.compute((rows * self.cols) as f64, self.ws_bytes);
        }
    }

    /// Write the pending rows back in place; with `values`, copy the
    /// share's first new row (on the first flush) and its latest last
    /// one into the caller's buffers.
    fn flush<R: Recorder>(&mut self, comm: &mut Comm<'_, R>) -> SimResult<()> {
        let (cols, rows) = (self.cols, self.pending_rows);
        if rows == 0 {
            return Ok(());
        }
        let at = self.flush_from * cols;
        if self.values {
            if self.flush_from == 0 {
                self.first_new.copy_from_slice(&self.pending_new[..cols]);
            }
            self.last_new
                .copy_from_slice(&self.pending_new[(rows - 1) * cols..]);
            comm.file_write(VAR_U, at, &self.pending_new)?;
            self.pending_new.clear();
        } else {
            comm.file_write_back(VAR_U, at, rows * cols)?;
        }
        self.flush_from += rows;
        self.pending_rows = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::hash01;
    use mheta_mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    use mheta_sim::ClusterSpec;

    /// A row's initial values, hashed along the row, are `hash01` of
    /// each cell bit for bit, as the row was generated cell by cell.
    #[test]
    fn initial_row_is_hash01_of_each_cell() {
        let app = Jacobi::small();
        for row in [0, 1, 17, app.rows - 1] {
            for cols in [0, 1, 5, app.cols] {
                let got: Vec<u64> = app.initial_row(row, cols).map(f64::to_bits).collect();
                let want: Vec<u64> = (0..cols)
                    .map(|c| hash01(app.seed, row as u64, c as u64).to_bits())
                    .collect();
                assert_eq!(got, want, "row {row}, {cols} columns");
            }
        }
    }

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    fn run_jacobi(
        spec: &ClusterSpec,
        dist: GenBlock,
        iters: u32,
        prefetch: bool,
    ) -> Vec<RankResult> {
        let app = Jacobi::small();
        let structure = app.structure(prefetch);
        run_app(
            spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| app.run(comm, &structure, &dist, iters, prefetch),
        )
        .unwrap()
        .results
    }

    /// The stencil as the module docs state it — a fresh row, one
    /// branch per edge test — as the reference for `stencil_into`.
    fn reference_stencil_row(above: &[f64], mid: &[f64], below: &[f64]) -> (Vec<f64>, f64) {
        let cols = mid.len();
        let mut new = vec![0.0; cols];
        let mut res = 0.0;
        for c in 0..cols {
            let left = if c > 0 { mid[c - 1] } else { 0.0 };
            let right = if c + 1 < cols { mid[c + 1] } else { 0.0 };
            let v = 0.25 * (above[c] + below[c] + left + right);
            res += (v - mid[c]).abs();
            new[c] = v;
        }
        (new, res)
    }

    #[test]
    fn in_place_stencil_matches_the_reference_bitwise() {
        for cols in [1, 2, 3, 16] {
            for seed in 0..8u64 {
                // Signed values, so that a dropped `+ 0.0` at an edge
                // (which turns -0.0 into 0.0) would show.
                let row = |k: u64| -> Vec<f64> {
                    (0..cols).map(|c| hash01(seed, k, c as u64) - 0.5).collect()
                };
                let (above, mid, below) = (row(0), row(1), row(2));
                let (want, want_res) = reference_stencil_row(&above, &mid, &below);
                let mut got = vec![f64::NAN; cols];
                let got_res = Jacobi::stencil_into(&above, &mid, &below, &mut got);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "cols {cols} seed {seed}");
                assert_eq!(
                    got_res.to_bits(),
                    want_res.to_bits(),
                    "cols {cols} seed {seed}"
                );
            }
        }
        // All-negative-zero neighbors: the edge cells' literal `+ 0.0`
        // must survive.
        let z = [-0.0f64; 3];
        let mut got = [f64::NAN; 3];
        Jacobi::stencil_into(&z, &z, &z, &mut got);
        let want = reference_stencil_row(&z, &z, &z).0;
        assert_eq!(
            got.map(f64::to_bits).to_vec(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The in-core sweep as it ran before it swapped grids, a fresh grid
    /// per sweep copied back: the reference for `sweep_in_core`.
    fn reference_sweep_in_core<R: Recorder>(
        app: &Jacobi,
        comm: &mut Comm<'_, R>,
        u: &mut [f64],
        top_halo: &[f64],
        bottom_halo: &[f64],
    ) -> f64 {
        let cols = app.cols;
        let m = u.len() / cols;
        let mut new = vec![0.0; u.len()];
        let mut res = 0.0;
        for r in 0..m {
            let above = if r == 0 {
                top_halo
            } else {
                &u[(r - 1) * cols..r * cols]
            };
            let below = if r + 1 == m {
                bottom_halo
            } else {
                &u[(r + 1) * cols..(r + 2) * cols]
            };
            let mid = &u[r * cols..(r + 1) * cols];
            res += Jacobi::stencil_into(above, mid, below, &mut new[r * cols..(r + 1) * cols]);
        }
        comm.compute((m * cols) as f64, (2 * u.len() * 8) as u64);
        u.copy_from_slice(&new);
        res
    }

    /// Three sweeps through one spare grid are three allocate-and-copy
    /// sweeps, bit for bit: every cell, every residual and the virtual
    /// time each charges, for one row and several, one column and
    /// several, with new halos each time.
    #[test]
    fn swapping_sweep_matches_allocate_and_copy() {
        for (rows, cols) in [(1, 1), (1, 5), (2, 3), (7, 16)] {
            let app = Jacobi {
                rows,
                cols,
                seed: 0x4a43,
            };
            let run = run_app(
                &quiet(1),
                RunOptions::default(),
                |_| NullRecorder,
                |comm| {
                    let signed = |k: u64, i: usize| hash01(0x5e, k, i as u64) - 0.5;
                    let grid: Vec<f64> = (0..rows * cols).map(|i| signed(0, i)).collect();
                    let (mut want, mut got, mut spare) = (grid.clone(), grid, Vec::new());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    for it in 1..=3 {
                        let halo = |k: u64| (0..cols).map(|c| signed(2 * it + k, c)).collect();
                        let (top, bottom): (Vec<f64>, Vec<f64>) = (halo(0), halo(1));
                        let t0 = comm.ctx_ref().now().as_nanos();
                        let res_want =
                            reference_sweep_in_core(&app, comm, &mut want, &top, &bottom);
                        let t1 = comm.ctx_ref().now().as_nanos();
                        let res_got = app.sweep_in_core(comm, &mut got, &mut spare, &top, &bottom);
                        let t2 = comm.ctx_ref().now().as_nanos();
                        let at = format!("{rows} x {cols}, sweep {it}");
                        assert_eq!(bits(&got), bits(&want), "cells, {at}");
                        assert_eq!(res_got.to_bits(), res_want.to_bits(), "residual, {at}");
                        assert_eq!(t2 - t1, t1 - t0, "charge, {at}");
                    }
                    Ok(())
                },
            );
            assert!(run.is_ok(), "{rows} x {cols}: {:?}", run.err());
        }
    }

    #[test]
    fn residual_decreases() {
        let spec = quiet(4);
        let r1 = run_jacobi(&spec, GenBlock::block(64, 4), 2, false);
        let r2 = run_jacobi(&spec, GenBlock::block(64, 4), 10, false);
        assert!(
            r2[0].check < r1[0].check,
            "{} !< {}",
            r2[0].check,
            r1[0].check
        );
    }

    #[test]
    fn all_ranks_agree_on_residual() {
        let spec = quiet(4);
        let rs = run_jacobi(&spec, GenBlock::block(64, 4), 3, false);
        for r in &rs {
            assert_eq!(r.check, rs[0].check);
        }
    }

    #[test]
    fn residual_is_distribution_independent() {
        let spec = quiet(4);
        let a = run_jacobi(&spec, GenBlock::block(64, 4), 4, false);
        let b = run_jacobi(&spec, GenBlock::new(vec![30, 20, 10, 4]).unwrap(), 4, false);
        let rel = (a[0].check - b[0].check).abs() / a[0].check.max(1e-30);
        assert!(rel < 1e-9, "rel diff {rel}");
    }

    #[test]
    fn out_of_core_matches_in_core_numerics() {
        // Tiny memory forces streaming on every node; results must
        // match the in-core run bit-for-bit up to reduction order.
        let mut small = quiet(4);
        for n in &mut small.nodes {
            n.memory_bytes = 3 * 16 * 8 * 4; // ~4 rows of footprint
        }
        let a = run_jacobi(&small, GenBlock::block(64, 4), 4, false);
        let big = quiet(4);
        let b = run_jacobi(&big, GenBlock::block(64, 4), 4, false);
        let rel = (a[0].check - b[0].check).abs() / b[0].check.max(1e-30);
        assert!(rel < 1e-9, "rel diff {rel}");
    }

    #[test]
    fn prefetch_matches_sync_numerics_and_is_not_slower() {
        let mut spec = quiet(4);
        for n in &mut spec.nodes {
            n.memory_bytes = 3 * 16 * 8 * 8;
        }
        let sync = run_jacobi(&spec, GenBlock::block(64, 4), 4, false);
        let pf = run_jacobi(&spec, GenBlock::block(64, 4), 4, true);
        let rel = (sync[0].check - pf[0].check).abs() / sync[0].check.max(1e-30);
        assert!(rel < 1e-9);
        let t_sync: f64 = sync.iter().map(RankResult::secs).fold(0.0, f64::max);
        let t_pf: f64 = pf.iter().map(RankResult::secs).fold(0.0, f64::max);
        assert!(
            t_pf <= t_sync * 1.01,
            "prefetch {t_pf}s slower than sync {t_sync}s"
        );
    }

    #[test]
    fn structure_validates() {
        Jacobi::default().structure(false).validate().unwrap();
        Jacobi::default().structure(true).validate().unwrap();
    }

    #[test]
    fn uneven_distribution_runs() {
        let spec = quiet(3);
        let rs = run_jacobi(&spec, GenBlock::new(vec![1, 62, 1]).unwrap(), 2, false);
        assert!(rs[0].check.is_finite());
    }
}
