//! Conjugate Gradient, the paper's NAS-derived benchmark.
//!
//! CG solves `A x = b` for a sparse symmetric positive-definite matrix
//! `A`, distributed by rows and **read-only** (no write-back per
//! iteration, so Eq. 1's write terms vanish). The matrix is a
//! band-limited symmetric pattern with per-row population driven by a
//! hash — deliberately nonuniform, because "there is not a simple
//! correlation between number of rows and number of elements per row"
//! is exactly the sparse-dataset limitation the paper reports for CG
//! (§5.4).
//!
//! Communication is all reductions: the `p·q` dot product, the
//! residual norm, and the re-assembly of the (row-distributed) search
//! direction into every node's full copy via a padded allreduce.
//!
//! The right-hand side is `b = A·1`, so the exact solution is the
//! all-ones vector — which makes convergence checkable.

use mheta_core::{CommPattern, ProgramStructure, SectionSpec, StageSpec, Variable};
use mheta_dist::GenBlock;
use mheta_mpi::{allreduce, barrier, Comm, Recorder, ReduceOp};
use mheta_sim::{SimResult, VarId};

use crate::app::{chunks, hash01, hash_bits, rank_plans, HashRun, RankResult, Threshold};

/// Variable ID of the sparse matrix (interleaved `[col, val]` pairs, each
/// column stored as its index's bits, not as a float).
pub const VAR_A: VarId = 1;
/// Variable ID of the replicated full search direction `p`.
pub const VAR_P: VarId = 2;
/// Variable ID of the resident per-row working vectors (`x`, `r`, `q`,
/// CSR offsets).
pub const VAR_VECS: VarId = 3;

/// A column index as the matrix stores it: its integer's bit pattern in
/// an `f64` slot, never a float that encodes it. The slot is 8 bytes
/// either way, so every charged byte is the same, and reading it back
/// is a move instead of a float-to-integer conversion.
#[inline]
fn col_field(c: usize) -> f64 {
    f64::from_bits(c as u64)
}

/// The column index a [`col_field`] slot holds.
#[inline]
fn field_col(field: f64) -> usize {
    field.to_bits() as usize
}

/// The CG benchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Cg {
    /// Unknowns (rows of `A`, the distribution axis).
    pub n: usize,
    /// Half-bandwidth of the symmetric pattern.
    pub band: usize,
    /// Off-diagonal fill probability within the band.
    pub fill: f64,
    /// Data seed.
    pub seed: u64,
    /// XORed into the seeds of the values but not into the fill
    /// pattern's, so that a test can change every value and keep the
    /// shape.
    #[cfg(test)]
    pub(crate) value_salt: u64,
}

impl Default for Cg {
    fn default() -> Self {
        Cg {
            n: 2048,
            band: 96,
            fill: 0.33,
            seed: 0xC6,
            #[cfg(test)]
            value_salt: 0,
        }
    }
}

impl Cg {
    /// A reduced-size instance for tests.
    #[must_use]
    pub fn small() -> Self {
        Cg {
            n: 96,
            band: 12,
            fill: 0.4,
            ..Cg::default()
        }
    }

    /// The seeds of the off-diagonal values and of the diagonal's own
    /// term; the fill pattern hashes `seed` itself.
    fn value_seeds(&self) -> (u64, u64) {
        #[cfg(not(test))]
        let salt = 0;
        #[cfg(test)]
        let salt = self.value_salt;
        (self.seed ^ 0x57 ^ salt, self.seed ^ 0x99 ^ salt)
    }

    /// One row of the matrix: `(column, value)` pairs, column-sorted,
    /// diagonal included. Symmetric by construction (the hash is keyed
    /// on the unordered pair) and strictly diagonally dominant, hence
    /// positive definite.
    #[must_use]
    pub fn row(&self, r: usize) -> Vec<(usize, f64)> {
        let mut flat = Vec::new();
        self.emit_row(r, &mut flat);
        flat.chunks_exact(2)
            .map(|e| (field_col(e[0]), e[1]))
            .collect()
    }

    /// Append row `r` to `flat` as interleaved `[col, val]` pairs in
    /// column order and return the sum of its values, folded in that
    /// order.
    ///
    /// Two passes, neither of which sorts or allocates. The first writes
    /// every in-band column at the tail and advances the tail only past
    /// the columns the fill hash keeps — as arithmetic, not a branch,
    /// because the fill test is a coin flip that a branch predictor
    /// loses. The second gives each kept column its value and the
    /// diagonal the sum of their magnitudes, accumulated in column order.
    fn emit_row(&self, r: usize, flat: &mut Vec<f64>) -> f64 {
        let lo = r.saturating_sub(self.band);
        let hi = (r + self.band).min(self.n - 1);
        let start = flat.len();
        flat.resize(start + 2 * (hi - lo + 1), 0.0);
        let mut end = start;
        let mut candidate = |c: usize, kept: bool| {
            flat[end] = col_field(c);
            end += 2 * usize::from(kept);
        };
        for c in lo..r {
            candidate(c, hash01(self.seed, c as u64, r as u64) < self.fill);
        }
        candidate(r, true);
        for c in r + 1..=hi {
            candidate(c, hash01(self.seed, r as u64, c as u64) < self.fill);
        }
        flat.truncate(end);

        let (off_seed, diag_seed) = self.value_seeds();
        let mut offdiag_sum = 0.0;
        let mut diag_slot = start + 1;
        for k in (start..end).step_by(2) {
            let c = field_col(flat[k]);
            if c == r {
                diag_slot = k + 1;
                continue;
            }
            let v = -hash01(off_seed, r.min(c) as u64, r.max(c) as u64);
            flat[k + 1] = v;
            offdiag_sum += v.abs();
        }
        flat[diag_slot] = offdiag_sum + 1.0 + hash01(diag_seed, r as u64, r as u64);
        flat[start..].chunks_exact(2).map(|e| e[1]).sum()
    }

    /// Rows `[offset, offset + m)` as a rank holds them: the interleaved
    /// data, the per-row element offsets into it, and `b = A·1`
    /// restricted to the share. Row for row what [`Cg::row`] gives.
    ///
    /// A pair `r < c` inside the share is hashed once, by row `r`: its
    /// upper half runs `emit_row`'s two passes (the branchless fill test
    /// of every candidate, then the value of each kept one) and hands
    /// each kept `(r, value)` down to row `c` through a ring of slots
    /// over the next `band` rows. Row `c` copies its slot in as the
    /// share's part of its lower half; it hashes only the columns below
    /// the share itself. Entries land in column order, so the diagonal
    /// and `b` fold exactly as in `emit_row`.
    pub(crate) fn share(&self, offset: usize, m: usize) -> (Vec<f64>, Vec<usize>, Vec<f64>) {
        let seed = self.seed;
        let (off_seed, diag_seed) = self.value_seeds();
        // Sized from the pattern's expected density plus the widest row,
        // so the data is written once in place instead of being regrown
        // and moved.
        let window = self.band.saturating_mul(2).saturating_add(1).min(self.n);
        let expected = 2.0 * (1.0 + self.fill * (window - 1) as f64);
        let mut flat = Vec::with_capacity((m as f64 * expected) as usize + 2 * window);
        let mut offsets = Vec::with_capacity(m + 1);
        let mut b_local = Vec::with_capacity(m);
        let keep = Threshold::new(self.fill);
        // A row's kept columns, those below the share and then those
        // above the diagonal, as the candidate passes leave them.
        let mut kept = vec![0; window];
        // Row `c`'s handed-down `[r, value]` pairs, in slot `(c - offset)
        // % slots`: the rows that may still hand down to a slot all map to
        // different ones, and a row empties its own before it hands any
        // down. Each slot starts with room for the pairs a row expects to
        // be handed and keeps what it grows to.
        let slots = self.band.min(m).max(1);
        let handed = 2 * (self.fill * self.band as f64).ceil() as usize;
        let mut ring: Vec<Vec<f64>> = (0..slots).map(|_| Vec::with_capacity(handed)).collect();
        offsets.push(0);
        let mut end = 0;
        for r in offset..offset + m {
            let (lo, hi) = (r.saturating_sub(self.band), (r + self.band).min(self.n - 1));
            let mut n_kept = 0;
            let below = HashRun::along_a(seed, lo as u64, r as u64);
            for (c, q) in (lo..offset.max(lo)).zip(below) {
                kept[n_kept] = c;
                n_kept += usize::from(keep.admits(q));
            }
            let n_below = n_kept;
            let above = HashRun::along_b(seed, r as u64, r as u64 + 1);
            for (c, q) in (r + 1..hi + 1).zip(above) {
                kept[n_kept] = c;
                n_kept += usize::from(keep.admits(q));
            }
            let (below, above) = kept[..n_kept].split_at(n_below);

            let mine = (r - offset) % slots;
            let slot = &mut ring[mine];
            let start = end;
            end += 2 * (n_kept + 1) + slot.len();
            flat.resize(end, 0.0);
            let row = &mut flat[start..];
            let (lower, rest) = row.split_at_mut(2 * n_below + slot.len());
            let (hashed, copied) = lower.split_at_mut(2 * n_below);
            let (diag, upper) = rest.split_at_mut(2);
            let mut offdiag_sum = 0.0;
            for (&c, e) in below.iter().zip(hashed.chunks_exact_mut(2)) {
                let v = -hash01(off_seed, c as u64, r as u64);
                (e[0], e[1]) = (col_field(c), v);
                offdiag_sum += v.abs();
            }
            copied.copy_from_slice(slot);
            slot.clear();
            for e in copied.chunks_exact(2) {
                offdiag_sum += e[1].abs();
            }
            for (&c, e) in above.iter().zip(upper.chunks_exact_mut(2)) {
                let v = -hash01(off_seed, r as u64, c as u64);
                (e[0], e[1]) = (col_field(c), v);
                offdiag_sum += v.abs();
            }
            diag[0] = col_field(r);
            diag[1] = offdiag_sum + 1.0 + hash01(diag_seed, r as u64, r as u64);
            for (&c, e) in above.iter().zip(upper.chunks_exact(2)) {
                if c < offset + m {
                    // Slot `(c - offset) % slots`, without the division:
                    // `mine + (c - r)` is below `2 · slots`.
                    let s = mine + (c - r);
                    let slot = &mut ring[if s < slots { s } else { s - slots }];
                    slot.push(col_field(r));
                    slot.push(e[1]);
                }
            }
            b_local.push(flat[start..].chunks_exact(2).map(|e| e[1]).sum());
            offsets.push(end);
        }
        (flat, offsets, b_local)
    }

    /// The element offsets [`Cg::share`] gives rows `[offset, offset +
    /// m)`, counted from the fill pattern alone: no value is hashed and
    /// no entry is stored. Each in-band pair with a row in the share is
    /// tested once, as in [`Cg::avg_elems_per_row`], and counted in each
    /// of its rows that the share holds.
    pub(crate) fn pattern(&self, offset: usize, m: usize) -> Vec<usize> {
        let keep = Threshold::new(self.fill);
        let kept =
            |a: usize, b: usize| usize::from(keep.admits(hash_bits(self.seed, a as u64, b as u64)));
        // Nonzeros per row, the diagonal included.
        let mut count = vec![1; m];
        let end = offset + m;
        for r in offset..end {
            let (lo, hi) = (r.saturating_sub(self.band), (r + self.band).min(self.n - 1));
            let inside = (hi + 1).min(end);
            // Columns below the share, then above the share: pairs that
            // only row `r` holds.
            let mut own: usize = (lo..offset.max(lo)).map(|c| kept(c, r)).sum();
            own += (inside..hi + 1).map(|c| kept(r, c)).sum::<usize>();
            // Columns above the diagonal inside the share: both rows
            // hold the pair.
            let (mine, later) = count.split_at_mut(r - offset + 1);
            for (c, n) in (r + 1..inside).zip(later) {
                let k = kept(r, c);
                own += k;
                *n += k;
            }
            mine[r - offset] += own;
        }
        let mut at = 0;
        std::iter::once(0)
            .chain(count.iter().map(|c| {
                at += 2 * c;
                at
            }))
            .collect()
    }

    /// Exact average interleaved elements per row (2 per nonzero).
    ///
    /// Counts the pattern instead of materialising it: the diagonal is
    /// always present and each unordered pair `a < b <= a + band` that
    /// the fill hash keeps appears in both of its rows, so the nonzeros
    /// number `n + 2·#pairs` — the same integer `row` would sum to, and
    /// therefore the same `f64`. The fill test compares the hash's
    /// integer with the fill's threshold, once computed.
    #[must_use]
    pub fn avg_elems_per_row(&self) -> f64 {
        #[cfg(test)]
        scan_count::bump(self.seed);
        let keep = Threshold::new(self.fill);
        let mut pairs = 0usize;
        for a in 0..self.n {
            let hi = a.saturating_add(self.band).min(self.n - 1);
            // Each pair hashed on its own, over a half-open range: the
            // count vectorises, which a `HashRun`'s carried pre-mix and
            // an inclusive range both prevent.
            pairs += (a + 1..hi + 1)
                .map(|b| usize::from(keep.admits(hash_bits(self.seed, a as u64, b as u64))))
                .sum::<usize>();
        }
        (2 * (self.n + 2 * pairs)) as f64 / self.n as f64
    }

    /// The MHETA program structure.
    #[must_use]
    pub fn structure(&self) -> ProgramStructure {
        ProgramStructure {
            name: "cg".into(),
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
                Variable::streamed(VAR_A, "A", self.n, self.avg_elems_per_row(), true),
                Variable::replicated(VAR_P, "p", self.n),
                Variable::resident_local(VAR_VECS, "x/r/q/offsets", self.n, 4.0),
            ],
        }
    }

    /// Run the benchmark on one rank. `structure` is this instance's
    /// [`Cg::structure`], built once by the caller for the whole run.
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

        // ---- setup: my matrix rows, interleaved on disk -------------
        // The instrumented iteration computes no values (DESIGN §5). The
        // pattern sizes every read and mat-vec, so it is counted; the
        // share is zeros of its length, and no mat-vec runs.
        let values = !comm.force_ooc();
        let (flat, offsets, b_local) = if values {
            self.share(offset, m)
        } else {
            let offsets = self.pattern(offset, m);
            (vec![0.0; offsets[m]], offsets, vec![0.0; m])
        };
        comm.ctx().disk.store(VAR_A, flat);

        // The application plans with the same average-based heuristic
        // the model uses (the paper's emulation caps the ICLA *budget*;
        // it does not resize per actual bytes). The sparse-data error
        // (§5.4, limitation 3) therefore shows up where it hurts: the
        // actual per-chunk I/O and compute below scale with the real
        // nonuniform row populations, while the model scales averages.
        let plans = rank_plans(comm, structure, m, 8.0, &[]);
        let plan = plans[&VAR_A];
        // In-core nodes keep the whole share resident; one compulsory
        // read before the measured loop.
        let core: Option<Vec<f64>> = if plan.in_core {
            Some(comm.file_take(VAR_A)?)
        } else {
            None
        };

        // ---- CG state ------------------------------------------------
        let mut x = vec![0.0; m];
        let mut rr = b_local.clone(); // residual (x0 = 0)
        let mut q = vec![0.0; m];
        // Assemble full p from the distributed residual (untimed setup).
        let mut p_full = vec![0.0; n];
        p_full[offset..offset + m].copy_from_slice(&rr);
        allreduce(comm, ReduceOp::Sum, &mut p_full)?;
        let mut rz = {
            let mut acc = [rr.iter().map(|v| v * v).sum::<f64>()];
            allreduce(comm, ReduceOp::Sum, &mut acc)?;
            acc[0]
        };

        barrier(comm)?;
        let t0 = comm.ctx_ref().now().as_nanos();

        for it in 0..iters {
            comm.begin_iteration(it);

            // ---- section 0: q = A p and p.q --------------------------
            comm.begin_section(0);
            comm.begin_stage(0);
            if let Some(a) = core.as_ref() {
                let nnz = spmv(a, &offsets, &p_full, &mut q);
                comm.compute(nnz as f64, (a.len() * 8) as u64);
            } else {
                for (s, l) in chunks(m, plan.icla_rows) {
                    let elems = offsets[s + l] - offsets[s];
                    let nnz = comm.file_read_with(VAR_A, offsets[s], elems, |a| {
                        if values {
                            spmv(a, &offsets[s..=s + l], &p_full, &mut q[s..s + l])
                        } else {
                            // What `spmv` returns: one nonzero per pair.
                            elems / 2
                        }
                    })?;
                    comm.compute(nnz as f64, (elems * 8) as u64);
                }
            }
            comm.end_stage(0);
            let pq = {
                let mut acc = [(0..m).map(|i| p_full[offset + i] * q[i]).sum::<f64>()];
                allreduce(comm, ReduceOp::Sum, &mut acc)?;
                acc[0]
            };
            comm.end_section(0);
            let alpha = rz / pq;

            // ---- section 1: update x, r; new residual norm -----------
            comm.begin_section(1);
            comm.begin_stage(0);
            let mut rz_local = 0.0;
            for i in 0..m {
                x[i] += alpha * p_full[offset + i];
                rr[i] -= alpha * q[i];
                rz_local += rr[i] * rr[i];
            }
            comm.compute(3.0 * m as f64, (3 * m * 8) as u64);
            comm.end_stage(0);
            let rz_new = {
                let mut acc = [rz_local];
                allreduce(comm, ReduceOp::Sum, &mut acc)?;
                acc[0]
            };
            comm.end_section(1);
            let beta = rz_new / rz;
            rz = rz_new;

            // ---- section 2: p = r + beta p; reassemble ---------------
            comm.begin_section(2);
            comm.begin_stage(0);
            p_full[..offset].fill(0.0);
            p_full[offset + m..].fill(0.0);
            for (p, r) in p_full[offset..offset + m].iter_mut().zip(&rr) {
                *p = r + beta * *p;
            }
            comm.compute(m as f64, (m * 8) as u64);
            comm.end_stage(0);
            allreduce(comm, ReduceOp::Sum, &mut p_full)?;
            comm.end_section(2);

            comm.end_iteration(it);
        }
        let t1 = comm.ctx_ref().now().as_nanos();

        // Untimed verification: distance of x from the all-ones vector.
        let mut err = [(0..m).map(|i| (x[i] - 1.0) * (x[i] - 1.0)).sum::<f64>()];
        allreduce(comm, ReduceOp::Sum, &mut err)?;

        let _ = rz;
        Ok(RankResult {
            t0_ns: t0,
            t1_ns: t1,
            check: err[0].sqrt(),
        })
    }
}

/// The sparse mat-vec `q = A p` over `q.len()` rows of interleaved
/// `[col, val]` data: row `i` is `flat[offsets[i]..offsets[i + 1]]`,
/// offsets taken relative to `offsets[0]`, so a chunk's window of the
/// share's offsets serves as well as the whole. Returns the nonzeros.
///
/// Each row is folded in column order from 0.0. Four rows' chains run
/// side by side: a joint loop over the shortest of them, then each
/// row's tail; the rows left over run alone. Bit for bit the same as
/// one row at a time.
pub(crate) fn spmv(flat: &[f64], offsets: &[usize], p: &[f64], q: &mut [f64]) -> usize {
    let base = offsets[0];
    let row = |i: usize| &flat[offsets[i] - base..offsets[i + 1] - base];
    let term = |e: &[f64]| e[1] * p[field_col(e[0])];
    let done = q.len() / 4 * 4;
    for (g, out) in q.chunks_exact_mut(4).enumerate() {
        let rows: [&[f64]; 4] = std::array::from_fn(|k| row(4 * g + k));
        let joint = rows.iter().map(|r| r.len()).min().unwrap_or(0);
        let mut acc = [0.0; 4];
        for j in (0..joint).step_by(2) {
            for k in 0..4 {
                acc[k] += term(&rows[k][j..j + 2]);
            }
        }
        for k in 0..4 {
            for e in rows[k][joint..].chunks_exact(2) {
                acc[k] += term(e);
            }
        }
        out.copy_from_slice(&acc);
    }
    for (i, out) in q.iter_mut().enumerate().skip(done) {
        *out = row(i).chunks_exact(2).fold(0.0, |acc, e| acc + term(e));
    }
    (offsets[q.len()] - base) / 2
}

/// Test-only tally of pattern scans per data seed, summed over every
/// thread: the harness tests use it to pin "one scan per run", so a
/// rank body that quietly rebuilds the structure fails a test. Keyed by
/// seed so that tests running in parallel do not see each other.
#[cfg(test)]
pub(crate) mod scan_count {
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    static SCANS: Mutex<BTreeMap<u64, usize>> = Mutex::new(BTreeMap::new());

    pub(crate) fn bump(seed: u64) {
        *SCANS.lock().unwrap().entry(seed).or_insert(0) += 1;
    }

    pub(crate) fn read(seed: u64) -> usize {
        SCANS.lock().unwrap().get(&seed).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    use mheta_sim::ClusterSpec;
    use proptest::prelude::*;

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    fn run_cg(spec: &ClusterSpec, dist: GenBlock, iters: u32) -> Vec<RankResult> {
        let app = Cg::small();
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

    /// A row by the definition — collect the kept columns, append the
    /// diagonal, sort — as the reference for `emit_row`: the entries and
    /// the sum `b = A·1` takes from them.
    fn reference_row(cg: &Cg, r: usize) -> (Vec<(usize, f64)>, f64) {
        let lo = r.saturating_sub(cg.band);
        let hi = (r + cg.band).min(cg.n - 1);
        let mut entries = Vec::new();
        let mut offdiag_sum = 0.0;
        for c in lo..=hi {
            if c == r {
                continue;
            }
            let (a, b) = (r.min(c) as u64, r.max(c) as u64);
            if hash01(cg.seed, a, b) < cg.fill {
                let v = -hash01(cg.seed ^ 0x57, a, b);
                entries.push((c, v));
                offdiag_sum += v.abs();
            }
        }
        let diag = offdiag_sum + 1.0 + hash01(cg.seed ^ 0x99, r as u64, r as u64);
        entries.push((r, diag));
        entries.sort_unstable_by_key(|e| e.0);
        let sum = entries.iter().map(|e| e.1).sum::<f64>();
        (entries, sum)
    }

    /// Every column field of `flat` holds a column's integer bits, below
    /// `n`: a writer that stores `c as f64` instead fails here.
    fn assert_columns_are_index_bits(flat: &[f64], n: usize, at: &str) {
        for (k, e) in flat.chunks_exact(2).enumerate() {
            assert!(
                e[0].to_bits() < n as u64,
                "entry {k}: column field {:#x} is not an index below {n}, {at}",
                e[0].to_bits()
            );
        }
    }

    /// `share` is `emit_row`, the row-at-a-time reference, bit for bit
    /// over every window `[offset, offset + m)` of `cg`: every entry,
    /// every row sum and the offsets between the rows. Both store each
    /// column as its index's bits.
    fn assert_every_window_matches_emit_row(cg: &Cg, windows: &[(usize, usize)]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows: Vec<(Vec<u64>, u64)> = (0..cg.n)
            .map(|r| {
                let mut flat = Vec::new();
                let sum = cg.emit_row(r, &mut flat);
                assert_columns_are_index_bits(&flat, cg.n, &format!("{cg:?} emit_row {r}"));
                (bits(&flat), sum.to_bits())
            })
            .collect();
        for &(offset, m) in windows {
            let (flat, offsets, b_local) = cg.share(offset, m);
            let at = format!("{cg:?} rows {offset}..{}", offset + m);
            assert_eq!((offsets.len(), offsets[m]), (m + 1, flat.len()), "{at}");
            assert_columns_are_index_bits(&flat, cg.n, &at);
            for i in 0..m {
                let (want, sum) = &rows[offset + i];
                let got = bits(&flat[offsets[i]..offsets[i + 1]]);
                assert_eq!(&got, want, "row {}, {at}", offset + i);
                assert_eq!(b_local[i].to_bits(), *sum, "row {} sum, {at}", offset + i);
            }
        }
    }

    fn every_window(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|offset| (1..=n - offset).map(move |m| (offset, m)))
            .collect()
    }

    /// Every window of the small instance, and of small matrices with no
    /// band, a band as wide as the matrix or wider, no fill and full
    /// fill; then the paper-size instance under Block on 8 and 5 ranks
    /// and whole.
    #[test]
    fn share_matches_emit_row_over_every_window() {
        assert_every_window_matches_emit_row(&Cg::small(), &every_window(Cg::small().n));
        for (band, fill) in [(0, 0.4), (19, 0.4), (40, 0.4), (5, 0.0), (5, 1.0)] {
            let cg = Cg {
                n: 19,
                band,
                fill,
                ..Cg::small()
            };
            assert_every_window_matches_emit_row(&cg, &every_window(cg.n));
        }
        let cg = Cg::default();
        let mut windows = vec![(0, cg.n)];
        for p in [8, 5] {
            let blk = GenBlock::block(cg.n, p);
            windows.extend(
                blk.offsets()
                    .iter()
                    .copied()
                    .zip(blk.rows().iter().copied()),
            );
        }
        assert_every_window_matches_emit_row(&cg, &windows);
    }

    /// `pattern` is `share`'s shape: the same offsets, element for
    /// element, for the small and the paper-size matrix, for the first
    /// share, the last, shares narrower than the band and single rows.
    #[test]
    fn pattern_is_the_shape_of_share() {
        for cg in [Cg::small(), Cg::default()] {
            let (n, band) = (cg.n, cg.band);
            let last = GenBlock::block(n, 8);
            let windows = [
                (0, n),
                (0, n / 8),
                (last.offsets()[7], last.rows()[7]),
                (0, band / 2),
                (n / 2, band / 2),
                (n - band / 3, band / 3),
                (0, 1),
                (band, 1),
                (n - 1, 1),
            ];
            for (offset, m) in windows {
                let want = cg.share(offset, m).1;
                assert_eq!(
                    cg.pattern(offset, m),
                    want,
                    "{cg:?} rows {offset}..{}",
                    offset + m
                );
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let cg = Cg::small();
        for r in 0..cg.n {
            for (c, v) in cg.row(r) {
                let back = cg.row(c);
                let found = back.iter().find(|e| e.0 == r).map(|e| e.1);
                assert_eq!(found, Some(v), "A[{r}][{c}] != A[{c}][{r}]");
            }
        }
    }

    #[test]
    fn matrix_is_diagonally_dominant() {
        let cg = Cg::small();
        for r in 0..cg.n {
            let row = cg.row(r);
            let diag = row.iter().find(|e| e.0 == r).unwrap().1;
            let off: f64 = row.iter().filter(|e| e.0 != r).map(|e| e.1.abs()).sum();
            assert!(diag > off, "row {r}: diag {diag} <= off {off}");
        }
    }

    #[test]
    fn nnz_varies_per_row() {
        let cg = Cg::small();
        let counts: Vec<usize> = (0..cg.n).map(|r| cg.row(r).len()).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max > min, "pattern is uniform; sparse error source gone");
    }

    #[test]
    fn converges_toward_ones() {
        let spec = quiet(4);
        let short = run_cg(&spec, GenBlock::block(96, 4), 2);
        let long = run_cg(&spec, GenBlock::block(96, 4), 12);
        assert!(long[0].check < short[0].check);
        assert!(long[0].check < 0.1, "||x-1|| = {}", long[0].check);
    }

    #[test]
    fn distribution_independent_result() {
        let spec = quiet(4);
        let a = run_cg(&spec, GenBlock::block(96, 4), 5);
        let b = run_cg(&spec, GenBlock::new(vec![50, 30, 10, 6]).unwrap(), 5);
        let rel = (a[0].check - b[0].check).abs() / a[0].check.max(1e-30);
        assert!(rel < 1e-6, "rel {rel}");
    }

    #[test]
    fn out_of_core_matches_in_core() {
        let mut small_mem = quiet(4);
        for nd in &mut small_mem.nodes {
            // Leaves ~0.5 KiB after vector overheads: 2-row ICLAs.
            nd.memory_bytes = 2 * 1024;
        }
        let a = run_cg(&small_mem, GenBlock::block(96, 4), 5);
        let b = run_cg(&quiet(4), GenBlock::block(96, 4), 5);
        let rel = (a[0].check - b[0].check).abs() / b[0].check.max(1e-30);
        assert!(rel < 1e-9, "rel {rel}");
        // And the memory-starved cluster is slower.
        let ta: f64 = a.iter().map(RankResult::secs).fold(0.0, f64::max);
        let tb: f64 = b.iter().map(RankResult::secs).fold(0.0, f64::max);
        assert!(ta > tb);
    }

    #[test]
    fn structure_validates() {
        Cg::small().structure().validate().unwrap();
        assert!(Cg::small().avg_elems_per_row() > 2.0);
    }

    /// The mat-vec one row at a time, as `Cg::run` and `AdaptiveCg` ran
    /// it before rows went abreast: the reference for `spmv`.
    fn reference_spmv(flat: &[f64], offsets: &[usize], p: &[f64], q: &mut [f64]) -> usize {
        let base = offsets[0];
        let mut nnz = 0;
        for (i, out) in q.iter_mut().enumerate() {
            let (lo, hi) = (offsets[i] - base, offsets[i + 1] - base);
            let mut acc = 0.0;
            let mut k = lo;
            while k < hi {
                acc += flat[k + 1] * p[flat[k].to_bits() as usize];
                k += 2;
            }
            *out = acc;
            nnz += (hi - lo) / 2;
        }
        nnz
    }

    /// `spmv` is the row-at-a-time mat-vec bit for bit, over every
    /// window of rows of lengths 0, 1, 2, 5 and 9 in a rotating mix,
    /// so that groups of four have empty, single-entry and unequal rows
    /// and windows start at non-zero offsets.
    #[test]
    fn spmv_matches_the_row_at_a_time_reference() {
        let p: Vec<f64> = (0..16).map(|c| hash01(3, 0, c) - 0.5).collect();
        let lens = [0usize, 1, 9, 2, 5, 1, 0, 9, 9, 2, 1, 5, 0];
        let mut flat = Vec::new();
        let mut offsets = vec![0];
        for (r, &len) in lens.iter().enumerate() {
            for k in 0..len {
                flat.push(col_field((r * 7 + k * 3) % 16));
                flat.push(hash01(3, r as u64 + 1, k as u64) - 0.5);
            }
            offsets.push(flat.len());
        }
        for first in 0..lens.len() {
            for rows in 0..=lens.len() - first {
                let window = &offsets[first..=first + rows];
                let data = &flat[window[0]..window[rows]];
                let mut want = vec![f64::NAN; rows];
                let mut got = vec![f64::NAN; rows];
                let nnz = spmv(data, window, &p, &mut got);
                assert_eq!(nnz, reference_spmv(data, window, &p, &mut want));
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "rows {first}..{}",
                    first + rows
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The streamed rows are the collected-and-sorted ones, bit for
        /// bit: entries, diagonal, row sums, and the offsets between
        /// them, for a share anywhere in the matrix — its first and last
        /// rows included.
        #[test]
        fn streamed_share_equals_collected_rows(
            n in prop_oneof![Just(1usize), 2usize..80],
            band in prop_oneof![Just(0usize), 1usize..24, 80usize..200],
            fill in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..1.0],
            seed in any::<u64>(),
            first in any::<usize>(),
            len in any::<usize>(),
        ) {
            let cg = Cg { n, band, fill, seed, ..Cg::small() };
            let offset = first % n;
            let m = 1 + len % (n - offset);
            for (offset, m) in [(0, n), (offset, m)] {
                let (flat, offsets, b_local) = cg.share(offset, m);
                prop_assert_eq!(&cg.pattern(offset, m), &offsets);
                prop_assert_eq!(offsets.len(), m + 1);
                prop_assert_eq!(offsets[m], flat.len());
                for i in 0..m {
                    let (entries, sum) = reference_row(&cg, offset + i);
                    let want: Vec<u64> = entries
                        .iter()
                        .flat_map(|&(c, v)| [c as u64, v.to_bits()])
                        .collect();
                    let got: Vec<u64> = flat[offsets[i]..offsets[i + 1]]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    prop_assert_eq!(got, want, "row {}", offset + i);
                    prop_assert_eq!(b_local[i].to_bits(), sum.to_bits(), "row {} sum", offset + i);
                    prop_assert_eq!(cg.row(offset + i), entries);
                }
            }
        }

        /// The counting scan is the materialising one, bit for bit — the
        /// figure feeds every model built from CG and every model golden.
        #[test]
        fn counted_average_equals_materialised_rows(
            n in prop_oneof![Just(1usize), 2usize..80],
            band in prop_oneof![Just(0usize), 1usize..24, 80usize..200],
            fill in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..1.0],
            seed in any::<u64>(),
        ) {
            let cg = Cg { n, band, fill, seed, ..Cg::small() };
            let total: usize = (0..n).map(|r| 2 * cg.row(r).len()).sum();
            let materialised = total as f64 / n as f64;
            prop_assert_eq!(cg.avg_elems_per_row().to_bits(), materialised.to_bits());
        }
    }
}
