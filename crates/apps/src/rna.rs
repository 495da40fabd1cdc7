//! RNA: the pipelined benchmark, modeled on the paper's RNA-pseudoknot
//! dynamic program.
//!
//! A wavefront dynamic program over an `R × C` score matrix,
//! distributed by rows and tiled into `T` column blocks. Cell `(r, c)`
//! depends on `(r−1, c)`, `(r, c−1)`, and `(r−1, c−1)`, so node `i`
//! can process tile `t` only after node `i−1` has finished its rows of
//! tile `t` — the multi-tile pipelined parallel section of §3.1 (the
//! only benchmark with `tiles > 1`).
//!
//! Per tile the node streams its rows' *column slice* of the matrix
//! (`row_fraction = 1/T` in the stage spec), reading the previous
//! iteration's values and writing the new ones. On-disk layout is
//! tile-major so each tile's slice is contiguous.
//!
//! Iterations couple through a damping term (`new = wavefront + γ·old`)
//! so the global score converges geometrically — giving the
//! `while reduce_value < threshold` outer loop of Figure 1 something
//! real to measure.

use mheta_core::{CommPattern, ProgramStructure, SectionSpec, StageSpec, Variable};
use mheta_dist::GenBlock;
use mheta_mpi::{allreduce, barrier, clock_max, Comm, Recorder, ReduceOp};
use mheta_sim::{SimError, SimResult, VarId};

#[cfg(test)]
use crate::app::hash01;
use crate::app::{chunks, hash_bits, rank_plans, RankResult};

/// Variable ID of the score matrix.
pub const VAR_DP: VarId = 1;
/// Variable ID of the resident left-column carry.
pub const VAR_CARRY: VarId = 2;
/// Variable ID of the replicated boundary-message buffers.
pub const VAR_BUFS: VarId = 3;
const TAG_PIPE: u32 = 30;
/// Damping factor coupling successive iterations.
const GAMMA: f64 = 0.25;

/// The RNA pipelined benchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Rna {
    /// Matrix rows (the distribution axis).
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Column tiles (pipeline depth per section).
    pub tiles: usize,
    /// Data seed.
    pub seed: u64,
}

impl Default for Rna {
    fn default() -> Self {
        Rna {
            rows: 768,
            cols: 256,
            tiles: 8,
            seed: 0x52,
        }
    }
}

impl Rna {
    /// A reduced-size instance for tests.
    #[must_use]
    pub fn small() -> Self {
        Rna {
            rows: 48,
            cols: 32,
            tiles: 4,
            seed: 0x52,
        }
    }

    /// Columns per tile. [`Rna::run`] rejects shapes whose tiles do not
    /// divide the columns, in every build profile.
    fn tile_cols(&self) -> usize {
        self.cols / self.tiles
    }

    /// The iteration-invariant score of cell `(r, c)`: the reference
    /// that [`Rna::score_table`] is tested against.
    #[cfg(test)]
    fn score(&self, r: usize, c: usize) -> f64 {
        (hash01(self.seed, r as u64, c as u64) * 4.0).floor() / 8.0
    }

    /// Score indices of rows `[offset, offset + m)`, one byte per cell,
    /// tile-major like the disk image (see [`Rna::slice_offset`]). A
    /// cell's score is `f64::from(k) / 8.0`: the hash lies in `[0, 1)`,
    /// so truncating `hash · 4` is its floor, and `k` is in `0..4`. That
    /// truncation is the top two of the hash's 53 bits, taken as such.
    fn score_table(&self, offset: usize, m: usize) -> Vec<u8> {
        let tc = self.tile_cols();
        let mut table = Vec::with_capacity(m * self.cols);
        for t in 0..self.tiles {
            for r in offset..offset + m {
                table.extend(
                    (t * tc..(t + 1) * tc)
                        .map(|c| (hash_bits(self.seed, r as u64, c as u64) >> 51) as u8),
                );
            }
        }
        table
    }

    /// The MHETA program structure.
    #[must_use]
    pub fn structure(&self) -> ProgramStructure {
        ProgramStructure {
            name: "rna".into(),
            sections: vec![
                SectionSpec {
                    id: 0,
                    tiles: self.tiles as u32,
                    stages: vec![StageSpec::new(0, vec![VAR_DP], vec![VAR_DP], false)
                        .with_row_fraction(1.0 / self.tiles as f64)],
                    comm: CommPattern::Pipelined {
                        msg_elems: self.tile_cols() + 1,
                    },
                },
                SectionSpec {
                    id: 1,
                    tiles: 1,
                    stages: vec![],
                    comm: CommPattern::Reduction { msg_elems: 1 },
                },
            ],
            variables: vec![
                Variable::streamed(VAR_DP, "DP", self.rows, self.cols as f64, false),
                Variable::resident_local(VAR_CARRY, "left_carry", self.rows, 1.0),
                Variable::replicated(VAR_BUFS, "boundary bufs", 4 * (self.tile_cols() + 1)),
            ],
        }
    }

    /// Disk offset of row `local_row`'s slice of tile `t` in the
    /// tile-major layout.
    fn slice_offset(&self, m: usize, t: usize, local_row: usize) -> usize {
        t * m * self.tile_cols() + local_row * self.tile_cols()
    }

    /// Run the benchmark on one rank. `structure` is this instance's
    /// [`Rna::structure`], built once by the caller for the whole run.
    pub fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        structure: &ProgramStructure,
        dist: &GenBlock,
        iters: u32,
    ) -> SimResult<RankResult> {
        if self.tiles == 0 || !self.cols.is_multiple_of(self.tiles) {
            return Err(SimError::InvalidConfig(format!(
                "rna: {} tiles do not divide {} columns",
                self.tiles, self.cols
            )));
        }
        let rank = comm.rank();
        let n = comm.size();
        let m = dist.rows()[rank];
        let offset = dist.offsets()[rank];
        let tc = self.tile_cols();
        let tiles = self.tiles;

        // ---- setup: zero-initialized matrix, tile-major ---------------
        comm.ctx().disk.create(VAR_DP, m * self.cols);
        // Every cell's score, hashed once; the iterations only read it.
        // The instrumented iteration computes no values (DESIGN §5): no
        // score, and no wavefront.
        let scores = if comm.force_ooc() {
            vec![0; m * self.cols]
        } else {
            self.score_table(offset, m)
        };

        // All resident data is declared in the structure.
        let plans = rank_plans(comm, structure, m, 0.0, &[]);
        let plan = plans[&VAR_DP];
        let mut core: Option<Vec<f64>> = if plan.in_core {
            Some(comm.file_take(VAR_DP)?)
        } else {
            None
        };

        barrier(comm)?;
        let t0 = comm.ctx_ref().now().as_nanos();
        let mut total = 0.0f64;

        for it in 0..iters {
            comm.begin_iteration(it);

            // ---- section 0: pipelined wavefront over tiles -------------
            comm.begin_section(0);
            // dp(r, c-1) carry for column tile boundaries: the last
            // column of the previous tile, per local row. Starts as the
            // virtual column -1 (zeros).
            let mut left_carry = vec![0.0; m];
            let mut local_sum = 0.0;
            for t in 0..tiles {
                // Receive the upstream boundary: the previous rank's
                // last row of this tile, prefixed with its corner value
                // dp(prev_last, tile_start - 1).
                let upstream: Vec<f64> = if rank > 0 {
                    comm.recv_f64s(rank - 1, TAG_PIPE + t as u32)?
                } else {
                    vec![0.0; tc + 1]
                };
                comm.begin_tile(t as u32);
                comm.begin_stage(0);
                let (last_row_msg, tile_sum) = self.process_tile(
                    comm,
                    core.as_deref_mut(),
                    plan.icla_rows,
                    m,
                    t,
                    &upstream,
                    &mut left_carry,
                    &scores[self.slice_offset(m, t, 0)..][..m * tc],
                )?;
                local_sum += tile_sum;
                comm.end_stage(0);
                comm.end_tile(t as u32);
                if rank + 1 < n {
                    comm.send_f64s(rank + 1, TAG_PIPE + t as u32, &last_row_msg)?;
                }
            }
            comm.end_section(0);

            // ---- section 1: global score ------------------------------
            comm.begin_section(1);
            let mut acc = [local_sum];
            allreduce(comm, ReduceOp::Sum, &mut acc)?;
            total = acc[0];
            comm.end_section(1);

            comm.end_iteration(it);
        }

        Ok(RankResult {
            t0_ns: t0,
            t1_ns: comm.ctx_ref().now().as_nanos(),
            check: total,
        })
    }

    /// Process one tile's rows; `scores` is the tile's slice of
    /// [`Rna::score_table`]. Returns the boundary message for the
    /// downstream rank (`[corner, last row of the tile...]`) and the
    /// tile's score sum.
    #[allow(clippy::too_many_arguments)]
    fn process_tile<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        core: Option<&mut [f64]>,
        icla_rows: usize,
        m: usize,
        t: usize,
        upstream: &[f64],
        left_carry: &mut [f64],
        scores: &[u8],
    ) -> SimResult<(Vec<f64>, f64)> {
        let tc = self.tile_cols();
        let col0 = t * tc;
        let mut sum = 0.0;
        // The row above the current one, new values (starts upstream).
        let mut above: Vec<f64> = upstream[1..].to_vec();
        // Corner: dp(r-1, col0-1), new value.
        let mut corner = upstream[0];
        let mut out_msg = vec![0.0; tc + 1];

        if let Some(u) = core {
            // In-core: the slice lives in the row-major memory image.
            tile_rows(
                &mut u[col0..],
                self.cols,
                scores,
                &mut above,
                &mut corner,
                left_carry,
                &mut sum,
            );
            comm.compute((m * tc) as f64, (2 * m * tc * 8) as u64);
        } else {
            let values = !comm.force_ooc();
            for (s, l) in chunks(m, icla_rows) {
                let disk_off = self.slice_offset(m, t, s);
                comm.file_update_with(VAR_DP, disk_off, l * tc, |rows| {
                    if values {
                        tile_rows(
                            rows,
                            tc,
                            &scores[s * tc..(s + l) * tc],
                            &mut above,
                            &mut corner,
                            &mut left_carry[s..s + l],
                            &mut sum,
                        );
                    }
                })?;
                comm.compute((l * tc) as f64, (2 * l * tc * 8) as u64);
                comm.file_write_back(VAR_DP, disk_off, l * tc)?;
            }
        }

        // Downstream's first row needs diag = dp(our_last, col0 - 1);
        // `corner` holds exactly that after the final row.
        out_msg[0] = corner;
        out_msg[1..].copy_from_slice(&above);
        Ok((out_msg, sum))
    }
}

/// Rows of a tile that the wavefront runs abreast (see [`tile_rows`]).
const ABREAST: usize = 4;

/// The wavefront over one tile's rows, in place. `left_carry` has one
/// entry per row, `old` holds the rows' slices `stride` apart (the first
/// at its start), `scores` their score indices back to back, `above`
/// the new row above the first and `corner` that row's left neighbour.
/// On return `above`, `corner` and `left_carry` describe the last row,
/// and `sum` has gained every new cell in row-major order.
///
/// A row depends on the row above only through cells that row has
/// already passed, so [`ABREAST`] rows run one column apart and their
/// dependent chains overlap (see [`wavefront`]). The rows left over, and
/// every row of a tile narrower than that, run one at a time. Each cell
/// keeps its operands, and the sum is folded from the stored cells in
/// the row-at-a-time order, each group's rows straight after the group,
/// so every bit is the same.
fn tile_rows(
    old: &mut [f64],
    stride: usize,
    scores: &[u8],
    above: &mut [f64],
    corner: &mut f64,
    left_carry: &mut [f64],
    sum: &mut f64,
) {
    let (tc, rows) = (above.len(), left_carry.len());
    let abreast = if tc >= ABREAST {
        rows / ABREAST * ABREAST
    } else {
        0
    };
    let mut fold = |old: &[f64], first: usize, k: usize| {
        for i in first..first + k {
            for &v in &old[i * stride..][..tc] {
                *sum += v;
            }
        }
    };
    for first in (0..abreast).step_by(ABREAST) {
        wavefront::<ABREAST>(old, stride, scores, first, above, corner, left_carry);
        fold(old, first, ABREAST);
    }
    for first in abreast..rows {
        wavefront::<1>(old, stride, scores, first, above, corner, left_carry);
        fold(old, first, 1);
    }
}

/// Rows `first..first + K` of [`tile_rows`]' arguments, row `first + q`
/// running `q` columns behind row `first`. At step `s` row `q` updates
/// column `s - q`. Its `up` is the cell row `q - 1` computed one step
/// earlier, still in `left[q - 1]`: each step visits its rows last to
/// first, so row `q` reads it before row `q - 1` replaces it. Only row 0
/// reads `above` and only the last row writes it. Its `diag` is the `up`
/// it read one step earlier. Needs `K <= above.len()` unless `K` is 1.
fn wavefront<const K: usize>(
    old: &mut [f64],
    stride: usize,
    scores: &[u8],
    first: usize,
    above: &mut [f64],
    corner: &mut f64,
    left_carry: &mut [f64],
) {
    let tc = above.len();
    let mut rest = &mut old[first * stride..];
    let mut rows: [&mut [f64]; K] = std::array::from_fn(|_| {
        let all = std::mem::take(&mut rest);
        let (row, tail) = all.split_at_mut(stride.min(all.len()));
        rest = tail;
        &mut row[..tc]
    });
    let score: [&[u8]; K] = std::array::from_fn(|q| &scores[(first + q) * tc..][..tc]);
    // dp(r, c - 1) and dp(r - 1, c - 1), new values, per row.
    let mut left: [f64; K] = std::array::from_fn(|q| left_carry[first + q]);
    let mut diag: [f64; K] = std::array::from_fn(|q| {
        if q == 0 {
            *corner
        } else {
            left_carry[first + q - 1]
        }
    });
    let mut cell = |q: usize, c: usize| {
        let up = if q == 0 { above[c] } else { left[q - 1] };
        // `f64::max(f64::max(up, left), diag)`, same operands, same
        // order, as one compare-select each: the two differ only on a
        // NaN or a −0.0 operand, and neither occurs. Every cell, carry,
        // corner and message is finite and at least +0.0: the image
        // starts as zeros, the carries and rank 0's upstream start as
        // +0.0, and a cell adds 0.5 and GAMMA times such values to a
        // score k / 8.
        let wave = clock_max(clock_max(up, left[q]), diag[q]);
        // Contraction: 0.5 on the wavefront, GAMMA on the previous
        // iteration; sup-norm convergence factor GAMMA / (1 - 0.5) =
        // 0.5 per iteration.
        let v = 0.5 * wave + GAMMA * rows[q][c] + f64::from(score[q][c]) / 8.0;
        diag[q] = up;
        left[q] = v;
        rows[q][c] = v;
        if q == K - 1 {
            above[c] = v;
        }
    };
    for s in 0..K - 1 {
        for q in (0..=s).rev() {
            cell(q, s - q);
        }
    }
    for s in K - 1..tc {
        for q in (0..K).rev() {
            cell(q, s - q);
        }
    }
    for s in tc..tc + K - 1 {
        for q in (s + 1 - tc..K).rev() {
            cell(q, s - q);
        }
    }
    *corner = left_carry[first + K - 1];
    left_carry[first..first + K].copy_from_slice(&left);
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

    fn run_rna(spec: &ClusterSpec, dist: GenBlock, iters: u32) -> Vec<RankResult> {
        let app = Rna::small();
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
    fn single_node_matches_multi_node() {
        let a = run_rna(&quiet(1), GenBlock::block(48, 1), 3);
        let b = run_rna(&quiet(4), GenBlock::block(48, 4), 3);
        let rel = (a[0].check - b[0].check).abs() / a[0].check.abs().max(1e-30);
        assert!(rel < 1e-9, "rel {rel}: {} vs {}", a[0].check, b[0].check);
    }

    #[test]
    fn distribution_independent() {
        let spec = quiet(4);
        let a = run_rna(&spec, GenBlock::block(48, 4), 3);
        let b = run_rna(&spec, GenBlock::new(vec![20, 12, 12, 4]).unwrap(), 3);
        let rel = (a[0].check - b[0].check).abs() / a[0].check.abs().max(1e-30);
        assert!(rel < 1e-9, "rel {rel}");
    }

    #[test]
    fn out_of_core_matches_in_core() {
        let mut starved = quiet(4);
        for nd in &mut starved.nodes {
            nd.memory_bytes = 2 * 1024;
        }
        let a = run_rna(&starved, GenBlock::block(48, 4), 3);
        let b = run_rna(&quiet(4), GenBlock::block(48, 4), 3);
        let rel = (a[0].check - b[0].check).abs() / b[0].check.abs().max(1e-30);
        assert!(rel < 1e-9, "rel {rel}");
    }

    #[test]
    fn score_converges_geometrically() {
        let spec = quiet(2);
        let r5 = run_rna(&spec, GenBlock::block(48, 2), 5);
        let r6 = run_rna(&spec, GenBlock::block(48, 2), 6);
        let r10 = run_rna(&spec, GenBlock::block(48, 2), 10);
        // Successive totals approach a fixed point.
        let d_late = (r10[0].check - r6[0].check).abs();
        let d_early = (r6[0].check - r5[0].check).abs();
        assert!(d_late < d_early, "{d_late} !< {d_early}");
    }

    #[test]
    fn structure_validates() {
        Rna::default().structure().validate().unwrap();
        Rna::small().structure().validate().unwrap();
    }

    /// A shape whose tiles do not divide the columns is refused in
    /// every build profile: guarded by a `debug_assert` alone, a release
    /// build runs `cols: 30` as the `cols: 28` problem.
    #[test]
    fn rejects_tiles_that_do_not_divide_the_columns() {
        for (cols, tiles) in [(30, 4), (31, 4), (32, 0)] {
            let app = Rna {
                rows: 48,
                cols,
                tiles,
                seed: 0x52,
            };
            // Refused before the structure is read, so any will do
            // (building this shape's own divides by its zero tiles).
            let structure = Rna::small().structure();
            let dist = GenBlock::block(48, 4);
            let run = run_app(
                &quiet(4),
                RunOptions::default(),
                |_| NullRecorder,
                |comm| app.run(comm, &structure, &dist, 1),
            );
            assert!(
                matches!(run, Err(SimError::InvalidConfig(_))),
                "cols {cols}, tiles {tiles}"
            );
        }
    }

    /// The wavefront one row at a time, as `process_tile` ran it before
    /// rows went abreast: the reference for `tile_rows`, same arguments.
    fn reference_tile_rows(
        old: &mut [f64],
        stride: usize,
        scores: &[u8],
        above: &mut [f64],
        corner: &mut f64,
        left_carry: &mut [f64],
        sum: &mut f64,
    ) {
        let tc = above.len();
        for i in 0..left_carry.len() {
            let row = &mut old[i * stride..][..tc];
            let score = &scores[i * tc..(i + 1) * tc];
            let mut left = left_carry[i];
            let mut diag = *corner;
            for ((cell, up_slot), &k) in row.iter_mut().zip(above.iter_mut()).zip(score) {
                let up = *up_slot;
                let wave = up.max(left).max(diag);
                let v = 0.5 * wave + GAMMA * *cell + f64::from(k) / 8.0;
                diag = up;
                left = v;
                *cell = v;
                *up_slot = v;
                *sum += v;
            }
            *corner = left_carry[i];
            left_carry[i] = left;
        }
    }

    type TileRows = fn(&mut [f64], usize, &[u8], &mut [f64], &mut f64, &mut [f64], &mut f64);

    /// One tile as `process_tile` runs it, in core (`icla_rows` `None`:
    /// tile 1 of 3 in the row-major image) or in chunks of `icla_rows`
    /// rows of the tile-major disk image; returns every cell of the
    /// image, the sum, the carries and the downstream message. `zero`
    /// starts every input at +0.0, as rank 0's first iteration does.
    fn run_tile(
        kernel: TileRows,
        rows: usize,
        tc: usize,
        icla_rows: Option<usize>,
        zero: bool,
    ) -> (Vec<f64>, f64, Vec<f64>, Vec<f64>) {
        // Full-mantissa values of both signs, so that a sum folded in
        // another order, or a `max` given other operands, shows; or
        // zeros, so that the first cells tie in every `max`.
        let value = |k: u64, i: usize| {
            if zero {
                0.0
            } else {
                hash01(0x7a, k, i as u64) - 0.5
            }
        };
        let cols = if icla_rows.is_some() { tc } else { 3 * tc };
        let mut image: Vec<f64> = (0..rows * cols).map(|i| value(1, i)).collect();
        let scores: Vec<u8> = (0..rows * tc).map(|i| (i * 7 % 4) as u8).collect();
        let mut above: Vec<f64> = (0..tc).map(|i| value(2, i)).collect();
        let mut left_carry: Vec<f64> = (0..rows).map(|i| value(3, i)).collect();
        let mut corner = value(4, 0);
        let mut sum = value(5, 0);
        match icla_rows {
            None => kernel(
                &mut image[tc..],
                cols,
                &scores,
                &mut above,
                &mut corner,
                &mut left_carry,
                &mut sum,
            ),
            Some(icla_rows) => {
                for (s, l) in chunks(rows, icla_rows) {
                    kernel(
                        &mut image[s * tc..(s + l) * tc],
                        tc,
                        &scores[s * tc..(s + l) * tc],
                        &mut above,
                        &mut corner,
                        &mut left_carry[s..s + l],
                        &mut sum,
                    );
                }
            }
        }
        let msg = [&[corner], &above[..]].concat();
        (image, sum, left_carry, msg)
    }

    /// Rows abreast are the row-at-a-time wavefront bit for bit: every
    /// cell, the sum, the carries, the corner and the message, for row
    /// counts around multiples of `ABREAST`, tiles narrower and wider
    /// than it, in core and in chunks that do not align with it, from
    /// signed inputs and from the all-zero first iteration.
    #[test]
    fn tile_rows_match_the_row_at_a_time_reference() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in 1..=2 * ABREAST + 1 {
            for tc in [1, ABREAST - 1, ABREAST, ABREAST + 1, 2 * ABREAST + 3] {
                for (icla_rows, zero) in [None, Some(1), Some(3), Some(ABREAST + 1), Some(rows)]
                    .into_iter()
                    .flat_map(|icla| [(icla, false), (icla, true)])
                {
                    let want = run_tile(reference_tile_rows, rows, tc, icla_rows, zero);
                    let got = run_tile(tile_rows, rows, tc, icla_rows, zero);
                    let at = format!("rows {rows} tile {tc} icla {icla_rows:?} zero {zero}");
                    assert_eq!(bits(&got.0), bits(&want.0), "cells, {at}");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "sum, {at}");
                    assert_eq!(bits(&got.2), bits(&want.2), "left carry, {at}");
                    assert_eq!(bits(&got.3), bits(&want.3), "corner and message, {at}");
                }
            }
        }
    }

    /// The table is the per-cell reference, cell for cell, at the
    /// tile-major position `process_tile` reads it from.
    #[test]
    fn score_table_matches_the_reference_score() {
        for seed in [0x52, 0, 7, u64::MAX] {
            let app = Rna {
                rows: 40,
                cols: 12,
                tiles: 3,
                seed,
            };
            let tc = app.tile_cols();
            for (offset, m) in [(0, 40), (13, 9), (39, 1)] {
                let table = app.score_table(offset, m);
                assert_eq!(table.len(), m * app.cols);
                for t in 0..app.tiles {
                    for i in 0..m {
                        for c in 0..tc {
                            let k = table[app.slice_offset(m, t, i) + c];
                            assert_eq!(
                                (f64::from(k) / 8.0).to_bits(),
                                app.score(offset + i, t * tc + c).to_bits(),
                                "seed {seed:#x} offset {offset} tile {t} row {i} col {c}"
                            );
                        }
                    }
                }
            }
        }
    }
}
