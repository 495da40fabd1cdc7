//! The MHETA prediction engine (§4.2).
//!
//! Given the program structure, microbenchmarked architecture
//! parameters, and the instrumented-iteration profile, predict the
//! per-iteration execution time of the application under an arbitrary
//! `GEN_BLOCK` distribution:
//!
//! * **Computation** — `T_c' = (T_c / W) · W'` per (node, section,
//!   tile, stage) (§4.2.1).
//! * **Synchronous I/O** — Eq. 1:
//!   `T_io(v) = N_io · [O_r + L_r(v) + (O_w + L_w(v))]`.
//! * **Prefetched I/O** — Eq. 2:
//!   `T_io(v) = N_io·(O_r + T_o + O_w + L_w) + L_r + (N_io−1)·L_e`,
//!   `L_e = max(0, L_r − T_o)`. Because the `N_io · T_o` term *is* the
//!   stage's computation, this module keeps `T_c` separate and adds
//!   only the I/O component — algebraically identical to Eq. 2.
//! * **Nearest-neighbor waits** — Eq. 3 generalized to any number of
//!   nodes: a node's blocked time for message `m` from `j` is
//!   `max(0, (T_S(j) + o_s) + X(m) − (T_S(i) + o_s·sends_i))`, folded
//!   over its incoming messages in receive order (Eq. 5 sums `o_s`,
//!   waits, and `o_r`).
//! * **Pipelined waits** — Eq. 4, implemented as the equivalent
//!   tile-completion recurrence
//!   `start(i,t) = max(finish(i,t−1), arrive(i,t))`.
//! * **Reduction** — the binomial-tree twin of the executed collective
//!   ([`mheta_mpi::model_allreduce_in_place`], which reads the same
//!   schedule); the paper defers this to \[25\].
//! * **Totals** — §4.2.3: per-node sums over sections, iteration time
//!   is the slowest node.

use std::collections::HashMap;
use std::ops::Range;

use mheta_mpi::{clock_max, model_allreduce_in_place, HopCost, Scope};
use mheta_sim::VarId;

use crate::error::ModelError;
use crate::ooc::{plan_node, plan_rows, VarPlan};
use crate::params::ArchParams;
use crate::profile::InstrumentedProfile;
use crate::structure::{CommPattern, ProgramStructure};

/// Per-node cost decomposition of one predicted iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeBreakdown {
    /// Computation, ns.
    pub compute_ns: f64,
    /// Disk I/O, ns.
    pub io_ns: f64,
    /// Communication (overheads + waits), ns.
    pub comm_ns: f64,
}

impl NodeBreakdown {
    /// Total predicted time for this node.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.compute_ns + self.io_ns + self.comm_ns
    }
}

/// One model term of the prediction, fully decomposed: every
/// nanosecond the model charges lands in exactly one of the seven
/// exclusive fields, so [`TermBreakdown::total_ns`] — a fixed-order
/// fold over [`TermBreakdown::terms`] — *is* the charged time, with
/// no hidden remainder. `prefetch_masked_ns` is informational (latency
/// the model believes was hidden under computation) and is not part of
/// the total.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TermBreakdown {
    /// Computation (§4.2.1), ns.
    pub compute_ns: f64,
    /// Disk seek/overhead charges: `N_io · O_r` and `N_io · O_w`, ns.
    pub disk_seek_ns: f64,
    /// Synchronous disk latency on the transferred bytes
    /// (`N_io · L_r`, `L_w · OCLA`), ns.
    pub disk_transfer_ns: f64,
    /// Prefetched-read latency the computation could *not* hide:
    /// Eq. 2's `L_r + (N_io − 1) · L_e`, ns.
    pub prefetch_exposed_ns: f64,
    /// Message endpoint overheads (`o_s`, `o_r`) outside collectives,
    /// ns.
    pub comm_overhead_ns: f64,
    /// Blocking on neighbor/pipeline messages (Eq. 3/4 waits), ns.
    pub neighbor_wait_ns: f64,
    /// Reduction/collective time, overheads and waits included
    /// (the \[25\] tree model), ns.
    pub collective_ns: f64,
    /// Prefetched-read latency hidden under computation
    /// (`(N_io − 1) · min(L_r, T_o)`) — informational, not in the
    /// total.
    pub prefetch_masked_ns: f64,
}

impl TermBreakdown {
    /// Canonical term order; every aggregate in this module folds in
    /// this order, which is what makes sums reproducible bitwise.
    pub const NAMES: [&'static str; 7] = [
        "compute",
        "disk_seek",
        "disk_transfer",
        "prefetch_exposed",
        "comm_overhead",
        "neighbor_wait",
        "collective",
    ];

    /// The seven exclusive terms, in [`TermBreakdown::NAMES`] order.
    #[must_use]
    pub fn terms(&self) -> [(&'static str, f64); 7] {
        [
            ("compute", self.compute_ns),
            ("disk_seek", self.disk_seek_ns),
            ("disk_transfer", self.disk_transfer_ns),
            ("prefetch_exposed", self.prefetch_exposed_ns),
            ("comm_overhead", self.comm_overhead_ns),
            ("neighbor_wait", self.neighbor_wait_ns),
            ("collective", self.collective_ns),
        ]
    }

    /// Total charged time: the fixed-order fold of
    /// [`TermBreakdown::terms`].
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.terms().iter().fold(0.0, |acc, (_, v)| acc + v)
    }

    /// Disk I/O total, the [`NodeBreakdown::io_ns`] view.
    #[must_use]
    pub fn io_ns(&self) -> f64 {
        self.disk_seek_ns + self.disk_transfer_ns + self.prefetch_exposed_ns
    }

    /// Communication total, the [`NodeBreakdown::comm_ns`] view.
    #[must_use]
    pub fn comm_ns(&self) -> f64 {
        self.comm_overhead_ns + self.neighbor_wait_ns + self.collective_ns
    }

    /// Term-wise accumulation (`self += other`), masked term included.
    pub fn add(&mut self, other: &TermBreakdown) {
        self.compute_ns += other.compute_ns;
        self.disk_seek_ns += other.disk_seek_ns;
        self.disk_transfer_ns += other.disk_transfer_ns;
        self.prefetch_exposed_ns += other.prefetch_exposed_ns;
        self.comm_overhead_ns += other.comm_overhead_ns;
        self.neighbor_wait_ns += other.neighbor_wait_ns;
        self.collective_ns += other.collective_ns;
        self.prefetch_masked_ns += other.prefetch_masked_ns;
    }
}

/// Predicted terms of one stage (aggregated over the section's tiles).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTerms {
    /// Stage id within the section.
    pub stage: u32,
    /// The stage's compute + I/O terms (its comm terms are always 0:
    /// communication closes the *section*).
    pub terms: TermBreakdown,
}

/// Predicted terms of one section on one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SectionTerms {
    /// Section id.
    pub section: u32,
    /// Per-stage compute/I-O terms, aggregated over tiles.
    pub stages: Vec<StageTerms>,
    /// The section's closing communication (overheads, waits,
    /// collective).
    pub comm: TermBreakdown,
}

impl SectionTerms {
    /// Section totals: stages folded in order, then the comm terms.
    #[must_use]
    pub fn totals(&self) -> TermBreakdown {
        let mut t = TermBreakdown::default();
        for s in &self.stages {
            t.add(&s.terms);
        }
        t.add(&self.comm);
        t
    }
}

/// Predicted term decomposition of one iteration on one rank. The
/// per-stage and per-comm leaves are the source of truth; every total
/// is a fixed-order fold over them, so aggregates are exactly the sum
/// of their parts at every level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTerms {
    /// Node index.
    pub rank: usize,
    /// Per-section decomposition, in program order.
    pub sections: Vec<SectionTerms>,
}

impl RankTerms {
    /// Rank totals: sections folded in program order.
    #[must_use]
    pub fn totals(&self) -> TermBreakdown {
        let mut t = TermBreakdown::default();
        for s in &self.sections {
            t.add(&s.totals());
        }
        t
    }
}

/// The outcome of evaluating one distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted time of one iteration on each node, ns.
    pub per_node_ns: Vec<f64>,
    /// Predicted iteration time: the slowest node, ns.
    pub iteration_ns: f64,
    /// Per-node decomposition (coarse view, derived from `terms`).
    pub breakdown: Vec<NodeBreakdown>,
    /// Per-rank/per-section/per-stage model-term decomposition of the
    /// steady-state iteration.
    pub terms: Vec<RankTerms>,
}

impl Prediction {
    /// Predicted application time for `iters` iterations, seconds.
    #[must_use]
    pub fn app_secs(&self, iters: u32) -> f64 {
        self.iteration_ns * f64::from(iters) / 1e9
    }

    /// Folded term totals for one rank.
    #[must_use]
    pub fn rank_terms(&self, rank: usize) -> TermBreakdown {
        self.terms[rank].totals()
    }
}

/// How reductions are modeled (ablation knob; the paper's model — and
/// the execution — use the binomial tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionModel {
    /// Binomial tree matching the executed collective (default).
    #[default]
    Tree,
    /// Flat: every node sends to the root serially, then the root
    /// broadcasts serially — what a naive model would assume.
    Flat,
}

/// Ablation switches for [`Mheta::predict_with`]. The defaults are the
/// full model; each switch removes one modeling ingredient so its
/// contribution to accuracy can be measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictOptions {
    /// Model blocking time (the Eq. 3/4 waits). With `false`,
    /// communication costs only its send/receive overheads plus the
    /// transfer — nodes never wait for each other, so load imbalance
    /// is invisible to the prediction.
    pub model_waits: bool,
    /// Reduction schedule model.
    pub reduction: ReductionModel,
}

impl Default for PredictOptions {
    fn default() -> Self {
        PredictOptions {
            model_waits: true,
            reduction: ReductionModel::Tree,
        }
    }
}

/// One disk access of a stage on one rank, with every table lookup
/// already done.
#[derive(Debug, Clone, Copy)]
struct Access {
    /// Write half of Eq. 1/2 (else the read half).
    write: bool,
    /// `l_r(v)` or `l_w(v)`: the measured per-element latency, else the
    /// microbenchmarked disk rate times the element size.
    ns_per_elem: f64,
    /// `O_r` or `O_w` of the rank's disk.
    seek_ns: f64,
    elems_per_row: f64,
}

/// One stage of the lowered program.
#[derive(Debug, Clone)]
struct StagePlan {
    id: u32,
    prefetch: bool,
    row_fraction: f64,
    /// This stage's slice of every rank's [`RankPlan::accesses`]:
    /// distributed reads first, then writes, in declaration order.
    accesses: Range<usize>,
}

/// One section of the lowered program.
#[derive(Debug, Clone)]
struct SectionPlan {
    id: u32,
    comm: CommPattern,
    /// Tiles the model evaluates: the declared count for pipelined
    /// sections, one for every other pattern.
    tiles: usize,
    stages: Vec<StagePlan>,
    /// Endpoint overheads and the transfer time of the section's
    /// closing message (measured payload, else `msg_elems × 8` bytes).
    hop: HopCost,
}

/// One rank's coefficients, in the order evaluation consumes them.
#[derive(Debug, Clone)]
struct RankPlan {
    memory_bytes: u64,
    /// `T_c / W` per (section, tile, stage), cluster-mean fallback
    /// resolved.
    compute_ns_per_row: Vec<f64>,
    accesses: Vec<Access>,
}

/// The model lowered for evaluation: what a prediction needs from the
/// profile's hash maps, the variable table, the out-of-core plans and
/// the message sizes, resolved once into dense tables — each value
/// obtained from the public accessor that defines it, fallbacks
/// applied. Evaluation indexes these and nothing else.
#[derive(Debug, Clone)]
struct EvalPlan {
    sections: Vec<SectionPlan>,
    ranks: Vec<RankPlan>,
    /// `f64` slots of one rank's leaves: Σ evaluated tiles.
    leaf_len: usize,
    /// Stage-term leaves behind one rank's slots: Σ stages.
    leaf_terms: usize,
    max_tiles: usize,
    /// Rows a distribution must sum to (0: unconstrained).
    total_rows: usize,
    /// `plan_rows` inputs: overhead = replicated + rows · resident.
    replicated_bytes: f64,
    resident_row_bytes: f64,
    total_row_bytes: f64,
}

impl EvalPlan {
    fn lower(
        structure: &ProgramStructure,
        arch: &ArchParams,
        profile: &InstrumentedProfile,
    ) -> Self {
        let distributed = |v: VarId| structure.variable(v).filter(|var| var.distributed);
        let mut access_vars: Vec<(VarId, bool)> = Vec::new();
        let sections: Vec<SectionPlan> = structure
            .sections
            .iter()
            .map(|section| {
                let stages = section
                    .stages
                    .iter()
                    .map(|stage| {
                        let first = access_vars.len();
                        // Replicated arrays are resident (§3.1), and a
                        // read-only variable is never written back.
                        access_vars.extend(
                            stage
                                .reads
                                .iter()
                                .filter(|v| distributed(**v).is_some())
                                .map(|&v| (v, false)),
                        );
                        access_vars.extend(
                            stage
                                .writes
                                .iter()
                                .filter(|v| distributed(**v).is_some_and(|var| !var.read_only))
                                .map(|&v| (v, true)),
                        );
                        StagePlan {
                            id: stage.id,
                            prefetch: stage.prefetch,
                            row_fraction: stage.row_fraction,
                            accesses: first..access_vars.len(),
                        }
                    })
                    .collect();
                let (tiles, msg_elems) = match section.comm {
                    CommPattern::None => (1, 0),
                    CommPattern::NearestNeighbor { msg_elems }
                    | CommPattern::Reduction { msg_elems } => (1, msg_elems),
                    CommPattern::Pipelined { msg_elems } => (section.tiles as usize, msg_elems),
                };
                let measured = profile.section_send_bytes(section.id);
                let msg_bytes = if measured > 0 {
                    measured
                } else {
                    (msg_elems * 8) as u64
                };
                SectionPlan {
                    id: section.id,
                    comm: section.comm,
                    tiles,
                    stages,
                    hop: HopCost {
                        o_s: arch.comm.o_s,
                        o_r: arch.comm.o_r,
                        transfer: arch.comm.transfer_ns(msg_bytes),
                    },
                }
            })
            .collect();

        let ranks = (0..arch.len())
            .map(|rank| {
                let disk = &arch.disks[rank];
                let mut compute_ns_per_row = Vec::new();
                for (section, plan) in structure.sections.iter().zip(&sections) {
                    for tile in 0..plan.tiles as u32 {
                        compute_ns_per_row.extend(section.stages.iter().map(|stage| {
                            let scope = Scope {
                                section: section.id,
                                tile,
                                stage: stage.id,
                            };
                            profile.compute_ns_per_row(rank, scope)
                        }));
                    }
                }
                let accesses = access_vars
                    .iter()
                    .map(|&(v, write)| {
                        let var = distributed(v).expect("filtered on it above");
                        let (measured, rate, seek_ns) = if write {
                            (
                                profile.write_ns_per_elem(rank, v),
                                disk.write_ns_per_byte,
                                disk.o_write,
                            )
                        } else {
                            (
                                profile.read_ns_per_elem(rank, v),
                                disk.read_ns_per_byte,
                                disk.o_read,
                            )
                        };
                        Access {
                            write,
                            ns_per_elem: measured.unwrap_or(rate * var.elem_bytes as f64),
                            seek_ns,
                            elems_per_row: var.elems_per_row,
                        }
                    })
                    .collect();
                RankPlan {
                    memory_bytes: arch.memory_bytes[rank],
                    compute_ns_per_row,
                    accesses,
                }
            })
            .collect();

        EvalPlan {
            leaf_len: sections.iter().map(|s| s.tiles).sum(),
            leaf_terms: sections.iter().map(|s| s.stages.len()).sum(),
            max_tiles: sections.iter().map(|s| s.tiles).max().unwrap_or(0),
            sections,
            ranks,
            total_rows: structure.distribution_rows(),
            replicated_bytes: structure.replicated_bytes(),
            resident_row_bytes: structure.resident_row_bytes(),
            total_row_bytes: structure.footprint_row_bytes().iter().map(|(_, b)| b).sum(),
        }
    }
}

/// Compute + I/O terms of one (rank, tile, stage): §4.2.1's
/// `T_c' = (T_c / W) · W'` plus Eq. 1 / Eq. 2 per streamed variable.
/// `chunks` is the rank's `(N_io, OCLA rows)` when its share is out of
/// core, `None` when it fits (no steady-state I/O).
fn stage_terms(
    compute_ns_per_row: f64,
    rows: f64,
    stage: &StagePlan,
    accesses: &[Access],
    chunks: Option<(f64, f64)>,
) -> TermBreakdown {
    let t_c = compute_ns_per_row * rows;
    let mut terms = TermBreakdown {
        compute_ns: t_c,
        ..TermBreakdown::default()
    };
    let Some((n_io, ocla_rows)) = chunks else {
        return terms;
    };
    for a in accesses {
        let ocla_elems = ocla_rows * a.elems_per_row * stage.row_fraction;
        terms.disk_seek_ns += n_io * a.seek_ns;
        if a.write {
            // Eq. 1 / Eq. 2 write half (identical in both): seeks per
            // pass, latency on the actual elements written.
            terms.disk_transfer_ns += a.ns_per_elem * ocla_elems;
            continue;
        }
        // Eq. 1 charges N_io x (O_r + L_r) with L_r per ICLA; we
        // charge the seeks per pass but the latency on the actual
        // OCLA elements, so the ragged final chunk is not billed as
        // a full pass (equivalently: L_r uses the mean chunk size).
        let mean_chunk_elems = ocla_elems / n_io;
        let big_l_r = a.ns_per_elem * mean_chunk_elems;
        if stage.prefetch {
            // Eq. 2 minus its N·T_o computation term (T_c covers it).
            let t_o = t_c / n_io;
            let l_e = (big_l_r - t_o).max(0.0);
            terms.prefetch_exposed_ns += big_l_r + (n_io - 1.0) * l_e;
            terms.prefetch_masked_ns += (n_io - 1.0) * big_l_r.min(t_o);
        } else {
            // Eq. 1, read half.
            terms.disk_transfer_ns += n_io * big_l_r;
        }
    }
    terms
}

/// Where the clock propagation charges a section's communication
/// terms. It is the only thing the two users of
/// [`Mheta::advance_section`] pass differently: scoring charges nowhere
/// ([`NoTerms`]), `predict` charges every rank's terms (`[RankTerms]`).
/// The one routine is monomorphised per sink, so the score path carries
/// no per-term test and the two agree bitwise by construction — a sink
/// is written to, never read by the clocks. Every charge defaults to
/// nothing.
trait CommSink {
    /// Endpoint overhead (`o_s` or `o_r`) of `rank` in `section`.
    fn overhead(&mut self, _rank: usize, _section: usize, _ns: f64) {}
    /// Time `rank` blocked on a neighbor or pipeline message.
    fn wait(&mut self, _rank: usize, _section: usize, _ns: f64) {}
    /// Collective time of `rank`, overheads and waits included.
    fn collective(&mut self, _rank: usize, _section: usize, _ns: f64) {}
}

/// The score path's sink: its instance computes no term at all.
struct NoTerms;

impl CommSink for NoTerms {}

impl CommSink for [RankTerms] {
    fn overhead(&mut self, rank: usize, section: usize, ns: f64) {
        self[rank].sections[section].comm.comm_overhead_ns += ns;
    }
    fn wait(&mut self, rank: usize, section: usize, ns: f64) {
        self[rank].sections[section].comm.neighbor_wait_ns += ns;
    }
    fn collective(&mut self, rank: usize, section: usize, ns: f64) {
        self[rank].sections[section].comm.collective_ns += ns;
    }
}

/// The per-evaluation buffers of the clock propagation, carved out of
/// one caller-owned block so a search session allocates them once.
struct Clocks<'a> {
    clock: &'a mut [f64],
    after_warmup: &'a mut [f64],
    ready: &'a mut [f64],
    after_sends: &'a mut [f64],
    from_left: &'a mut [f64],
    from_right: &'a mut [f64],
    /// Pipeline arrivals from the upstream rank, per tile, and the ones
    /// being produced for the downstream rank.
    arrival: &'a mut [f64],
    next_arrival: &'a mut [f64],
}

impl<'a> Clocks<'a> {
    fn carve(block: &'a mut Vec<f64>, ranks: usize, tiles: usize) -> Self {
        let need = 6 * ranks + 2 * tiles;
        if block.len() < need {
            block.resize(need, 0.0);
        }
        let (clock, rest) = block.split_at_mut(ranks);
        let (after_warmup, rest) = rest.split_at_mut(ranks);
        let (ready, rest) = rest.split_at_mut(ranks);
        let (after_sends, rest) = rest.split_at_mut(ranks);
        let (from_left, rest) = rest.split_at_mut(ranks);
        let (from_right, rest) = rest.split_at_mut(ranks);
        let (arrival, rest) = rest.split_at_mut(tiles);
        Clocks {
            clock,
            after_warmup,
            ready,
            after_sends,
            from_left,
            from_right,
            arrival,
            next_arrival: &mut rest[..tiles],
        }
    }
}

/// The assembled model: evaluate distributions with [`Mheta::predict`].
#[derive(Debug, Clone)]
pub struct Mheta {
    structure: ProgramStructure,
    arch: ArchParams,
    profile: InstrumentedProfile,
    /// Bytes per row of each distributed variable (model's view:
    /// averages).
    dist_row_bytes: Vec<(VarId, f64)>,
    plan: EvalPlan,
}

impl Mheta {
    /// Assemble a model; validates the three inputs against each other
    /// and lowers them into the tables evaluation runs from.
    pub fn new(
        structure: ProgramStructure,
        arch: ArchParams,
        profile: InstrumentedProfile,
    ) -> Result<Self, ModelError> {
        structure.validate().map_err(ModelError::Structure)?;
        if arch.len() != profile.nodes.len() {
            return Err(ModelError::Dimension(format!(
                "arch has {} nodes but profile has {}",
                arch.len(),
                profile.nodes.len()
            )));
        }
        if arch.disks.len() != arch.len() {
            return Err(ModelError::Dimension(format!(
                "arch has {} nodes but {} disks",
                arch.len(),
                arch.disks.len()
            )));
        }
        for section in &structure.sections {
            for stage in &section.stages {
                if stage.prefetch {
                    let dist_reads = stage
                        .reads
                        .iter()
                        .filter(|v| structure.variable(**v).is_some_and(|var| var.distributed))
                        .count();
                    if dist_reads > 1 {
                        return Err(ModelError::Dimension(format!(
                            "section {} stage {}: prefetch stages support one \
                             distributed read variable, found {dist_reads}",
                            section.id, stage.id
                        )));
                    }
                }
            }
        }
        let dist_row_bytes = structure.footprint_row_bytes();
        let plan = EvalPlan::lower(&structure, &arch, &profile);
        Ok(Mheta {
            structure,
            arch,
            profile,
            dist_row_bytes,
            plan,
        })
    }

    /// The program structure this model was built for.
    #[must_use]
    pub fn structure(&self) -> &ProgramStructure {
        &self.structure
    }

    /// The measured architecture parameters.
    #[must_use]
    pub fn arch(&self) -> &ArchParams {
        &self.arch
    }

    /// The instrumented profile.
    #[must_use]
    pub fn profile(&self) -> &InstrumentedProfile {
        &self.profile
    }

    /// Out-of-core plans for a node under `my_rows`: the structure's
    /// declared resident overhead plus average row sizes — the simple
    /// heuristic of §4.2.1, which diverges from the applications only
    /// through what the structure cannot express (actual sparse row
    /// sizes, small implementation buffers — the §5.4 error sources).
    #[must_use]
    pub fn node_plans(&self, rank: usize, my_rows: usize) -> HashMap<VarId, VarPlan> {
        plan_node(
            self.arch.memory_bytes[rank],
            self.structure.overhead_bytes(my_rows),
            my_rows,
            &self.dist_row_bytes,
        )
    }

    /// Predict one iteration under the distribution `rows` (rows per
    /// node).
    pub fn predict(&self, rows: &[usize]) -> Result<Prediction, ModelError> {
        self.predict_with(rows, PredictOptions::default())
    }

    /// [`Mheta::predict`] with explicit ablation switches. Computes
    /// every rank's cost leaves and runs the clock propagation with the
    /// term detail switched on — the same two routines a search session
    /// scores through, so the two agree bitwise by construction.
    pub fn predict_with(
        &self,
        rows: &[usize],
        opts: PredictOptions,
    ) -> Result<Prediction, ModelError> {
        self.check_rows(rows)?;
        let width = self.plan.leaf_len;
        let mut leaves = vec![0.0; rows.len() * width];
        let mut terms: Vec<RankTerms> = (0..rows.len())
            .map(|rank| RankTerms {
                rank,
                sections: self
                    .plan
                    .sections
                    .iter()
                    .map(|section| SectionTerms {
                        section: section.id,
                        stages: section
                            .stages
                            .iter()
                            .map(|stage| StageTerms {
                                stage: stage.id,
                                terms: TermBreakdown::default(),
                            })
                            .collect(),
                        comm: TermBreakdown::default(),
                    })
                    .collect(),
            })
            .collect();
        for ((rt, &r), out) in terms
            .iter_mut()
            .zip(rows)
            .zip(leaves.chunks_exact_mut(width))
        {
            self.rank_leaves(rt.rank, r, out, Some(&mut rt.sections));
        }
        let mut block = Vec::new();
        let mut clocks = Clocks::carve(&mut block, rows.len(), self.plan.max_tiles);
        let iteration_ns = self.propagate(&leaves, &mut clocks, terms.as_mut_slice(), opts);

        let per_node_ns: Vec<f64> = clocks
            .clock
            .iter()
            .zip(clocks.after_warmup.iter())
            .map(|(c, w)| c - w)
            .collect();
        let breakdown = terms
            .iter()
            .map(|rt| {
                let t = rt.totals();
                NodeBreakdown {
                    compute_ns: t.compute_ns,
                    io_ns: t.io_ns(),
                    comm_ns: t.comm_ns(),
                }
            })
            .collect();
        Ok(Prediction {
            per_node_ns,
            iteration_ns,
            breakdown,
            terms,
        })
    }

    /// Validate a distribution vector against the model's dimensions:
    /// one entry per node, summing to the structure's rows.
    ///
    /// # Errors
    /// [`ModelError::Dimension`] naming the mismatch.
    pub fn check_rows(&self, rows: &[usize]) -> Result<(), ModelError> {
        let n = self.plan.ranks.len();
        if rows.len() != n {
            return Err(ModelError::Dimension(format!(
                "distribution has {} entries for {} nodes",
                rows.len(),
                n
            )));
        }
        let total: usize = rows.iter().sum();
        let expected = self.plan.total_rows;
        if expected != 0 && total != expected {
            return Err(ModelError::Dimension(format!(
                "distribution sums to {total} rows, structure has {expected}"
            )));
        }
        Ok(())
    }

    /// `f64` slots in one rank's cost leaves (see [`Mheta::rank_cost`]).
    #[must_use]
    pub fn leaf_len(&self) -> usize {
        self.plan.leaf_len
    }

    /// Stage-term leaves one rank's cost leaves stand for: the unit of
    /// a delta session's `terms_reused` tally.
    #[must_use]
    pub fn leaf_terms(&self) -> usize {
        self.plan.leaf_terms
    }

    /// One rank's cost **leaves** under `rows` rows: the compute + I/O
    /// clock advance of every evaluated tile, sections in program order
    /// (a pipelined section contributes one slot per tile, every other
    /// pattern one slot). This is everything the clock propagation
    /// reads from a rank; cross-rank coupling (neighbor waits,
    /// collectives, pipeline arrivals) enters only at assembly time
    /// ([`Mheta::score_from_leaves`]), never into the leaves.
    ///
    /// A pure function of `(rank, rows)` — it never looks at any other
    /// rank — so leaves computed for an earlier distribution are
    /// bitwise-identical to ones computed fresh whenever the rank's
    /// row count is unchanged: the contract that makes caching them
    /// safe under any change to *other* ranks. Search sessions use
    /// [`Mheta::rank_cost_into`].
    ///
    /// # Panics
    /// Panics if `rank` is not a node of the model.
    #[must_use]
    pub fn rank_cost(&self, rank: usize, rows: usize) -> Vec<f64> {
        let mut leaves = vec![0.0; self.plan.leaf_len];
        self.rank_leaves(rank, rows, &mut leaves, None);
        leaves
    }

    /// [`Mheta::rank_cost`] into a caller-owned slab of
    /// [`Mheta::leaf_len`] slots: no allocation, no hashing.
    ///
    /// # Panics
    /// Panics if `rank` is not a node of the model or `out` is not
    /// exactly one rank's slots.
    pub fn rank_cost_into(&self, rank: usize, rows: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.plan.leaf_len, "one slot per evaluated tile");
        self.rank_leaves(rank, rows, out, None);
    }

    /// The per-stage cost routine's driver: fill `out` with one rank's
    /// tile totals and, when `detail` is given (one zeroed entry per
    /// section), accumulate every stage's terms over its tiles there.
    fn rank_leaves(
        &self,
        rank: usize,
        rows: usize,
        out: &mut [f64],
        mut detail: Option<&mut [SectionTerms]>,
    ) {
        let plan = &self.plan;
        let node = &plan.ranks[rank];
        let chunks = if node.accesses.is_empty() {
            None
        } else {
            let overhead = plan.replicated_bytes + rows as f64 * plan.resident_row_bytes;
            let p = plan_rows(node.memory_bytes, overhead, rows, plan.total_row_bytes);
            (!p.in_core && p.n_io != 0).then_some((p.n_io as f64, p.ocla_rows as f64))
        };
        let rows = rows as f64;
        let mut coefficients = node.compute_ns_per_row.iter();
        let mut slots = out.iter_mut();
        for (sec_idx, section) in plan.sections.iter().enumerate() {
            for _tile in 0..section.tiles {
                let mut total = 0.0;
                for (idx, stage) in section.stages.iter().enumerate() {
                    let cpr = *coefficients.next().expect("one per (section, tile, stage)");
                    let accesses = &node.accesses[stage.accesses.clone()];
                    let terms = stage_terms(cpr, rows, stage, accesses, chunks);
                    total += terms.compute_ns + terms.io_ns();
                    if let Some(d) = detail.as_deref_mut() {
                        d[sec_idx].stages[idx].terms.add(&terms);
                    }
                }
                *slots.next().expect("one per evaluated tile") = total;
            }
        }
    }

    /// Score a distribution from its ranks' cost leaves — `leaves` holds
    /// [`Mheta::leaf_len`] slots per rank, rank-major, each rank's as
    /// [`Mheta::rank_cost_into`] fills them for `rows[rank]` — with the
    /// default [`PredictOptions`]. The clock arithmetic never reads the
    /// term detail, so the result is bitwise-identical to
    /// `predict(rows).iteration_ns`. `scratch` is the caller's reusable
    /// buffer block (any contents; grown on first use): with it, this
    /// call allocates nothing — it is a search session's hot path. A
    /// NaN or +∞ leaf scores non-finite, never as a finite time.
    pub fn score_from_leaves(
        &self,
        rows: &[usize],
        leaves: &[f64],
        scratch: &mut Vec<f64>,
    ) -> Result<f64, ModelError> {
        self.check_rows(rows)?;
        if leaves.len() != rows.len() * self.plan.leaf_len {
            return Err(ModelError::Dimension(format!(
                "{} leaf slots for {} ranks of {}",
                leaves.len(),
                rows.len(),
                self.plan.leaf_len
            )));
        }
        let mut clocks = Clocks::carve(scratch, rows.len(), self.plan.max_tiles);
        Ok(self.propagate(leaves, &mut clocks, &mut NoTerms, PredictOptions::default()))
    }

    /// The clock propagation: two passes over the section chain. The
    /// first develops the steady-state clock skew between nodes
    /// (pipeline fill, bcast tree asymmetry); the second measures the
    /// per-iteration cycle the remaining iterations actually repeat. A
    /// single pass would fold the one-time skew into every predicted
    /// iteration. Leaves `c.clock` and `c.after_warmup` for the caller
    /// and returns the slowest node's cycle; `sink` receives the
    /// measured pass's communication terms.
    ///
    /// A NaN cycle wins the final fold, so a non-finite leaf never
    /// scores finite: [`clock_max`] keeps a rank's own NaN clock NaN,
    /// and an infinite one becomes NaN in `end − start`.
    fn propagate<S: CommSink + ?Sized>(
        &self,
        leaves: &[f64],
        c: &mut Clocks<'_>,
        sink: &mut S,
        opts: PredictOptions,
    ) -> f64 {
        c.clock.fill(0.0);
        let mut first_slot = 0;
        for (idx, section) in self.plan.sections.iter().enumerate() {
            self.advance_section(idx, first_slot, leaves, c, &mut NoTerms, opts);
            first_slot += section.tiles;
        }
        c.after_warmup.copy_from_slice(c.clock);
        let mut first_slot = 0;
        for (idx, section) in self.plan.sections.iter().enumerate() {
            self.advance_section(idx, first_slot, leaves, c, sink, opts);
            first_slot += section.tiles;
        }
        c.clock
            .iter()
            .zip(c.after_warmup.iter())
            .map(|(end, start)| end - start)
            .fold(0.0, |slowest, cycle| {
                if cycle > slowest || cycle.is_nan() {
                    cycle
                } else {
                    slowest
                }
            })
    }

    /// Advance all per-node clocks across section `idx`, including its
    /// closing communication, reading per-rank stage work from the cost
    /// leaves (`first_slot` is the section's first slot within a rank's
    /// leaves) and charging the comm terms to `sink`, which the clock
    /// arithmetic never reads. Every clock `max` is a [`clock_max`].
    ///
    /// Cross-rank coupling lives entirely in this pass: neighbor
    /// arrivals, collective trees, and pipeline recurrences all read
    /// every rank's clock. That is the conservative "dirty closure" —
    /// comm is never reused from a cache, so leaf reuse can never
    /// leak a stale wait or collective term.
    fn advance_section<S: CommSink + ?Sized>(
        &self,
        idx: usize,
        first_slot: usize,
        leaves: &[f64],
        c: &mut Clocks<'_>,
        sink: &mut S,
        opts: PredictOptions,
    ) {
        let section = &self.plan.sections[idx];
        let n = c.clock.len();
        let width = self.plan.leaf_len;
        let hop = section.hop;
        // Per-rank stage work for one tile, straight from the leaves.
        let tile_total = |i: usize, tile: usize| leaves[i * width + first_slot + tile];

        match section.comm {
            CommPattern::None => {
                for i in 0..n {
                    c.clock[i] += tile_total(i, 0);
                }
            }
            CommPattern::NearestNeighbor { .. } => {
                let x = hop.transfer;
                // Phase 1: stages, then posts (left first, then right).
                // Rank i writes `from_right[i - 1]` and `from_left[i + 1]`
                // here: every slot phase 2 reads.
                for i in 0..n {
                    c.ready[i] = c.clock[i] + tile_total(i, 0);
                    let mut t = c.ready[i];
                    if i > 0 {
                        t += hop.o_s;
                        sink.overhead(i, idx, hop.o_s);
                        c.from_right[i - 1] = t + x;
                    }
                    if i + 1 < n {
                        t += hop.o_s;
                        sink.overhead(i, idx, hop.o_s);
                        c.from_left[i + 1] = t + x;
                    }
                    c.after_sends[i] = t;
                }
                // Phase 2: receives in the same order (left, then right).
                // Eq. 5's T_C splits into endpoint overheads (o_s/o_r)
                // and the Eq. 3 blocked time, attributed separately.
                for i in 0..n {
                    let mut t = c.after_sends[i];
                    if i > 0 {
                        if opts.model_waits {
                            let waited = c.from_left[i] - t;
                            if waited > 0.0 {
                                sink.wait(i, idx, waited);
                            }
                            t = clock_max(t, c.from_left[i]);
                        }
                        t += hop.o_r;
                        sink.overhead(i, idx, hop.o_r);
                    }
                    if i + 1 < n {
                        if opts.model_waits {
                            let waited = c.from_right[i] - t;
                            if waited > 0.0 {
                                sink.wait(i, idx, waited);
                            }
                            t = clock_max(t, c.from_right[i]);
                        }
                        t += hop.o_r;
                        sink.overhead(i, idx, hop.o_r);
                    }
                    c.clock[i] = t;
                }
            }
            CommPattern::Reduction { .. } => {
                // The collective starts from the ready times; `ready`
                // keeps them for the collective term and the ablation.
                for i in 0..n {
                    c.clock[i] += tile_total(i, 0);
                    c.ready[i] = c.clock[i];
                }
                // `after_sends` is free here: the collectives' scratch.
                match (opts.model_waits, opts.reduction) {
                    (true, ReductionModel::Tree) => {
                        model_allreduce_in_place(c.clock, c.after_sends, hop);
                    }
                    (true, ReductionModel::Flat) => flat_allreduce(c.clock, hop),
                    (false, _) => {
                        // No-wait ablation: every node pays only its own
                        // role's critical path from a synchronized start.
                        c.clock.fill(0.0);
                        model_allreduce_in_place(c.clock, c.after_sends, hop);
                        for (done, ready) in c.clock.iter_mut().zip(c.ready.iter()) {
                            *done += ready;
                        }
                    }
                }
                for i in 0..n {
                    sink.collective(i, idx, c.clock[i] - c.ready[i]);
                }
            }
            CommPattern::Pipelined { .. } => {
                let x = hop.transfer;
                // Rank i - 1 wrote every tile's `arrival` rank i reads:
                // it sent each tile downstream into `next_arrival`, and
                // the two swap after each rank. Rank 0 reads none.
                for i in 0..n {
                    let mut t = c.clock[i];
                    for tile in 0..section.tiles {
                        if i > 0 {
                            if opts.model_waits {
                                let waited = c.arrival[tile] - t;
                                if waited > 0.0 {
                                    sink.wait(i, idx, waited);
                                }
                                t = clock_max(t, c.arrival[tile]);
                            }
                            t += hop.o_r;
                            sink.overhead(i, idx, hop.o_r);
                        }
                        t += tile_total(i, tile);
                        if i + 1 < n {
                            t += hop.o_s;
                            sink.overhead(i, idx, hop.o_s);
                            c.next_arrival[tile] = t + x;
                        }
                    }
                    c.clock[i] = t;
                    std::mem::swap(&mut c.arrival, &mut c.next_arrival);
                }
            }
        }
    }
}

/// Flat (serialized) allreduce model for the [`ReductionModel::Flat`]
/// ablation: every non-root sends to rank 0, which receives them in
/// rank order, then sends the result back to each in rank order.
/// `clock` holds the ready times on entry, the finish times on return.
fn flat_allreduce(clock: &mut [f64], cost: HopCost) {
    let n = clock.len();
    if n <= 1 {
        return;
    }
    // Gather to root.
    let mut root = clock[0];
    for c in clock.iter_mut().skip(1) {
        *c += cost.o_s;
        let arrival = *c + cost.transfer;
        root = clock_max(root, arrival) + cost.o_r;
    }
    clock[0] = root;
    // Serial broadcast back.
    for i in 1..n {
        clock[0] += cost.o_s;
        let arrival = clock[0] + cost.transfer;
        clock[i] = clock_max(clock[i], arrival) + cost.o_r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CommParams, DiskParams};
    use crate::profile::NodeProfile;
    use crate::structure::{SectionSpec, StageSpec, Variable};

    fn arch(n: usize, memory: u64) -> ArchParams {
        ArchParams {
            name: "t".into(),
            comm: CommParams {
                o_s: 10.0,
                o_r: 20.0,
                alpha: 100.0,
                beta: 1.0,
            },
            disks: vec![
                DiskParams {
                    o_read: 1_000.0,
                    o_write: 2_000.0,
                    read_ns_per_byte: 1.0,
                    write_ns_per_byte: 1.0,
                };
                n
            ],
            memory_bytes: vec![memory; n],
        }
    }

    fn variable(id: VarId, rows: usize, epr: f64, read_only: bool) -> Variable {
        Variable {
            id,
            name: format!("v{id}"),
            elem_bytes: 8,
            read_only,
            distributed: true,
            resident: false,
            total_rows: rows,
            elems_per_row: epr,
        }
    }

    fn one_section(
        rows: usize,
        comm: CommPattern,
        prefetch: bool,
        read_only: bool,
    ) -> ProgramStructure {
        ProgramStructure {
            name: "t".into(),
            sections: vec![SectionSpec {
                id: 0,
                tiles: 1,
                stages: vec![StageSpec {
                    id: 0,
                    reads: vec![1],
                    writes: if read_only { vec![] } else { vec![1] },
                    prefetch,
                    row_fraction: 1.0,
                }],
                comm,
            }],
            variables: vec![variable(1, rows, 10.0, read_only)],
        }
    }

    fn profile_uniform(
        n: usize,
        rows_each: usize,
        cpr: f64,
        l_r: f64,
        l_w: f64,
    ) -> InstrumentedProfile {
        let nodes = (0..n)
            .map(|rank| {
                let mut p = NodeProfile {
                    rank,
                    ..Default::default()
                };
                for sec in 0..4u32 {
                    for tile in 0..8u32 {
                        p.compute_ns_per_row.insert(
                            Scope {
                                section: sec,
                                tile,
                                stage: 0,
                            },
                            cpr,
                        );
                    }
                }
                p.read_ns_per_elem.insert(1, l_r);
                p.write_ns_per_elem.insert(1, l_w);
                p
            })
            .collect();
        InstrumentedProfile {
            nodes,
            rows: vec![rows_each; n],
        }
    }

    #[test]
    fn in_core_single_node_is_pure_compute() {
        let s = one_section(100, CommPattern::None, false, true);
        // 100 rows x 80 B = 8000 B fits in 1 MiB: in core, no I/O.
        let m = Mheta::new(s, arch(1, 1 << 20), profile_uniform(1, 100, 50.0, 1.0, 1.0)).unwrap();
        let p = m.predict(&[100]).unwrap();
        assert!((p.iteration_ns - 5_000.0).abs() < 1e-9);
        assert_eq!(p.breakdown[0].io_ns, 0.0);
        assert_eq!(p.breakdown[0].comm_ns, 0.0);
    }

    #[test]
    fn equation_one_arithmetic() {
        // Share: 100 rows x 10 elems x 8 B = 8000 B. The variable is
        // read-write, so its streaming footprint is 160 B/row; memory
        // 2000 B -> ICLA 12 rows, N_io = ceil(100/12) = 9.
        // Reads: 9 seeks + latency on the whole 1000-elem OCLA;
        // writes likewise.
        let s = one_section(100, CommPattern::None, false, false);
        let m = Mheta::new(s, arch(1, 2_000), profile_uniform(1, 100, 0.0, 8.0, 4.0)).unwrap();
        let p = m.predict(&[100]).unwrap();
        let expect = (9.0 * 1_000.0 + 8.0 * 1_000.0) + (9.0 * 2_000.0 + 4.0 * 1_000.0);
        assert!(
            (p.iteration_ns - expect).abs() < 1e-6,
            "got {} want {expect}",
            p.iteration_ns
        );
    }

    #[test]
    fn read_only_variable_keeps_single_footprint() {
        // Read-only: footprint 80 B/row -> ICLA 25 rows, N_io = 4,
        // no write terms.
        let s = one_section(100, CommPattern::None, false, true);
        let m = Mheta::new(s, arch(1, 2_000), profile_uniform(1, 100, 0.0, 8.0, 4.0)).unwrap();
        let p = m.predict(&[100]).unwrap();
        let expect = 4.0 * (1_000.0 + 8.0 * 250.0);
        assert!(
            (p.iteration_ns - expect).abs() < 1e-6,
            "got {} want {expect}",
            p.iteration_ns
        );
    }

    #[test]
    fn row_fraction_scales_transfer_not_seeks() {
        let mut s = one_section(100, CommPattern::None, false, true);
        s.sections[0].stages[0].row_fraction = 0.5;
        let m = Mheta::new(s, arch(1, 2_000), profile_uniform(1, 100, 0.0, 8.0, 4.0)).unwrap();
        let p = m.predict(&[100]).unwrap();
        // Same N_io and seeks, half the per-pass latency.
        let expect = 4.0 * (1_000.0 + 8.0 * 125.0);
        assert!(
            (p.iteration_ns - expect).abs() < 1e-6,
            "got {} want {expect}",
            p.iteration_ns
        );
    }

    #[test]
    fn equation_two_reduces_to_equation_one_without_compute() {
        let s1 = one_section(100, CommPattern::None, false, true);
        let s2 = one_section(100, CommPattern::None, true, true);
        let a = arch(1, 2_000);
        let prof = profile_uniform(1, 100, 0.0, 8.0, 4.0);
        let p1 = Mheta::new(s1, a.clone(), prof.clone())
            .unwrap()
            .predict(&[100])
            .unwrap();
        let p2 = Mheta::new(s2, a, prof).unwrap().predict(&[100]).unwrap();
        // With T_o = 0 (no compute), Eq. 2 == Eq. 1.
        assert!((p1.iteration_ns - p2.iteration_ns).abs() < 1e-6);
    }

    #[test]
    fn prefetch_masks_latency_with_enough_compute() {
        // L_r per ICLA = 2000 ns; compute per ICLA = 25 rows x 200 = 5000.
        // T_o >= L_r so L_e = 0: I/O = N*O_r + L_r.
        let s = one_section(100, CommPattern::None, true, true);
        let m = Mheta::new(s, arch(1, 2_000), profile_uniform(1, 100, 200.0, 8.0, 4.0)).unwrap();
        let p = m.predict(&[100]).unwrap();
        let t_c = 100.0 * 200.0;
        let expect_io = 4.0 * 1_000.0 + 2_000.0;
        assert!(
            (p.iteration_ns - (t_c + expect_io)).abs() < 1e-6,
            "got {}",
            p.iteration_ns
        );
        // Same program without prefetch pays the full latency each pass.
        let s_sync = one_section(100, CommPattern::None, false, true);
        let p_sync = Mheta::new(
            s_sync,
            arch(1, 2_000),
            profile_uniform(1, 100, 200.0, 8.0, 4.0),
        )
        .unwrap()
        .predict(&[100])
        .unwrap();
        assert!(p_sync.iteration_ns > p.iteration_ns);
    }

    #[test]
    fn nearest_neighbor_wait_matches_hand_computation() {
        // Two nodes, node 1 slower (300 ns/row vs 100), 10 rows each.
        let s = ProgramStructure {
            name: "t".into(),
            sections: vec![SectionSpec {
                id: 0,
                tiles: 1,
                stages: vec![StageSpec {
                    id: 0,
                    reads: vec![],
                    writes: vec![],
                    prefetch: false,
                    row_fraction: 1.0,
                }],
                comm: CommPattern::NearestNeighbor { msg_elems: 10 },
            }],
            variables: vec![variable(1, 20, 10.0, true)],
        };
        let mut prof = profile_uniform(2, 10, 100.0, 1.0, 1.0);
        for p in prof.nodes[1].compute_ns_per_row.values_mut() {
            *p = 300.0;
        }
        let m = Mheta::new(s, arch(2, 1 << 20), prof).unwrap();
        let p = m.predict(&[10, 10]).unwrap();
        // T_S: node0 = 1000, node1 = 3000; X = 100 + 80 = 180.
        // Warmup: node0 ends at 3210 (blocked on the slow node), node1
        // at 3030. In steady state both repeat the slow node's cycle:
        // node1 never waits (its message arrives early), spending
        // 3000 + o_s + o_r = 3030 per iteration; node0 is bound by
        // node1's cadence, also 3030.
        assert!(
            (p.per_node_ns[0] - 3_030.0).abs() < 1e-9,
            "{}",
            p.per_node_ns[0]
        );
        assert!(
            (p.per_node_ns[1] - 3_030.0).abs() < 1e-9,
            "{}",
            p.per_node_ns[1]
        );
        assert!((p.iteration_ns - 3_030.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_accumulates_along_the_chain() {
        let tiles = 4u32;
        let s = ProgramStructure {
            name: "t".into(),
            sections: vec![SectionSpec {
                id: 0,
                tiles,
                stages: vec![StageSpec {
                    id: 0,
                    reads: vec![],
                    writes: vec![],
                    prefetch: false,
                    row_fraction: 1.0,
                }],
                comm: CommPattern::Pipelined { msg_elems: 4 },
            }],
            variables: vec![variable(1, 30, 10.0, true)],
        };
        let m = Mheta::new(s, arch(3, 1 << 20), profile_uniform(3, 10, 100.0, 1.0, 1.0)).unwrap();
        let p = m.predict(&[10, 10, 10]).unwrap();
        // Steady state: node 0 never waits (tiles x (work + o_s));
        // interior nodes add the receive overhead per tile; the tail
        // node skips the send. The chain is bounded below by upstream.
        let expect0 = f64::from(tiles) * (10.0 * 100.0 + 10.0);
        let expect1 = f64::from(tiles) * (20.0 + 10.0 * 100.0 + 10.0);
        // The tail node's own busy time (o_r + work) is less than its
        // producer's cadence, so it is bound by node 1's cycle.
        let expect2 = expect1;
        assert!(
            (p.per_node_ns[0] - expect0).abs() < 1e-9,
            "{}",
            p.per_node_ns[0]
        );
        assert!(
            (p.per_node_ns[1] - expect1).abs() < 1e-9,
            "{}",
            p.per_node_ns[1]
        );
        assert!(
            (p.per_node_ns[2] - expect2).abs() < 1e-9,
            "{}",
            p.per_node_ns[2]
        );
        assert!(p.iteration_ns >= expect0);
    }

    #[test]
    fn reduction_uses_tree_model() {
        let s = one_section(40, CommPattern::Reduction { msg_elems: 1 }, false, true);
        let m = Mheta::new(s, arch(4, 1 << 20), profile_uniform(4, 10, 100.0, 1.0, 1.0)).unwrap();
        let p = m.predict(&[10, 10, 10, 10]).unwrap();
        // All nodes same T_S = 1000; allreduce adds tree latency.
        assert!(p.iteration_ns > 1_000.0);
        // Everyone ends within one hop of each other after the bcast.
        let min = p.per_node_ns.iter().copied().fold(f64::MAX, f64::min);
        assert!(p.iteration_ns - min < 2.0 * (10.0 + 108.0 + 20.0) + 1.0);
    }

    #[test]
    fn wrong_distribution_length_rejected() {
        let s = one_section(100, CommPattern::None, false, true);
        let m = Mheta::new(s, arch(2, 1 << 20), profile_uniform(2, 50, 1.0, 1.0, 1.0)).unwrap();
        assert!(m.predict(&[100]).is_err());
        assert!(m.predict(&[50, 49]).is_err());
        assert!(m.predict(&[50, 50]).is_ok());
    }

    #[test]
    fn more_rows_cost_more() {
        let s = one_section(100, CommPattern::None, false, true);
        let m = Mheta::new(s, arch(2, 1 << 20), profile_uniform(2, 50, 10.0, 1.0, 1.0)).unwrap();
        let balanced = m.predict(&[50, 50]).unwrap();
        let skewed = m.predict(&[90, 10]).unwrap();
        assert!(skewed.iteration_ns > balanced.iteration_ns);
    }

    #[test]
    fn no_wait_ablation_hides_imbalance() {
        // Two nodes, one much slower; NN comm. The full model's cycle
        // is bound by the slow node on both; the no-wait ablation lets
        // the fast node's prediction ignore its partner.
        let s = ProgramStructure {
            name: "t".into(),
            sections: vec![SectionSpec {
                id: 0,
                tiles: 1,
                stages: vec![StageSpec::new(0, vec![], vec![], false)],
                comm: CommPattern::NearestNeighbor { msg_elems: 10 },
            }],
            variables: vec![variable(1, 20, 10.0, true)],
        };
        let mut prof = profile_uniform(2, 10, 100.0, 1.0, 1.0);
        for p in prof.nodes[1].compute_ns_per_row.values_mut() {
            *p = 300.0;
        }
        let m = Mheta::new(s, arch(2, 1 << 20), prof).unwrap();
        let full = m.predict(&[10, 10]).unwrap();
        let ablated = m
            .predict_with(
                &[10, 10],
                PredictOptions {
                    model_waits: false,
                    ..PredictOptions::default()
                },
            )
            .unwrap();
        // Full model: both nodes run at the slow node's cycle (3030).
        // Ablated: node 0 believes it only pays its own work+overheads,
        // while the slow node (which never waited) is unchanged — so
        // the iteration time stays put but the per-node picture is
        // wrong, which is what breaks distribution comparisons.
        assert!(ablated.per_node_ns[0] < full.per_node_ns[0] * 0.5);
        assert!((ablated.per_node_ns[1] - full.per_node_ns[1]).abs() < 1.0);
        assert!((ablated.iteration_ns - full.iteration_ns).abs() < 1.0);
    }

    #[test]
    fn reduction_model_choice_changes_predictions() {
        let s = one_section(80, CommPattern::Reduction { msg_elems: 1 }, false, true);
        let m = Mheta::new(s, arch(8, 1 << 20), profile_uniform(8, 10, 100.0, 1.0, 1.0)).unwrap();
        let rows = vec![10; 8];
        let tree = m.predict(&rows).unwrap().iteration_ns;
        let flat = m
            .predict_with(
                &rows,
                PredictOptions {
                    reduction: ReductionModel::Flat,
                    ..PredictOptions::default()
                },
            )
            .unwrap()
            .iteration_ns;
        // With 8 nodes and cheap endpoint overheads the serialized
        // schedule actually beats the 2·log2(n)-deep tree on paper —
        // but the *execution* uses the tree, so predicting with the
        // flat model is a real (measurable) modeling error either way.
        assert_ne!(flat, tree, "the ablation must change the prediction");
        assert!(flat > 0.0 && tree > 0.0);
    }

    #[test]
    fn term_breakdown_is_exact_and_matches_coarse_view() {
        // Out-of-core read/write + reduction: exercises seek, transfer,
        // compute, and collective terms at once.
        let s = one_section(100, CommPattern::Reduction { msg_elems: 1 }, false, false);
        let m = Mheta::new(s, arch(4, 2_000), profile_uniform(4, 25, 50.0, 8.0, 4.0)).unwrap();
        let p = m.predict(&[25, 25, 25, 25]).unwrap();
        for (i, rt) in p.terms.iter().enumerate() {
            assert_eq!(rt.rank, i);
            let t = rt.totals();
            // total_ns IS the fixed-order fold of terms() — bitwise.
            let fold = t.terms().iter().fold(0.0, |acc, (_, v)| acc + v);
            assert_eq!(t.total_ns(), fold, "rank {i} total is the term fold");
            // The coarse NodeBreakdown is exactly the grouped view.
            assert_eq!(p.breakdown[i].compute_ns, t.compute_ns);
            assert_eq!(p.breakdown[i].io_ns, t.io_ns());
            assert_eq!(p.breakdown[i].comm_ns, t.comm_ns());
            // Hierarchy: rank totals are the fold of section totals.
            let mut acc = TermBreakdown::default();
            for sec in &rt.sections {
                acc.add(&sec.totals());
            }
            assert_eq!(acc, t, "rank {i} hierarchy folds to the totals");
            // The clock-derived per-node time agrees with the terms to
            // f64 accumulation error.
            assert!(
                (t.total_ns() - p.per_node_ns[i]).abs() <= 1e-6 * p.per_node_ns[i].abs() + 1e-6,
                "rank {i}: terms {} vs clock {}",
                t.total_ns(),
                p.per_node_ns[i]
            );
            assert!(t.collective_ns > 0.0, "reduction charges the collective");
            assert!(t.disk_seek_ns > 0.0 && t.disk_transfer_ns > 0.0);
            assert_eq!(t.prefetch_exposed_ns, 0.0);
        }
    }

    #[test]
    fn prefetch_terms_split_masked_and_exposed() {
        // T_o >= L_r: all overlapped passes fully masked.
        let s = one_section(100, CommPattern::None, true, true);
        let m = Mheta::new(s, arch(1, 2_000), profile_uniform(1, 100, 200.0, 8.0, 4.0)).unwrap();
        let p = m.predict(&[100]).unwrap();
        let t = p.rank_terms(0);
        // N_io = 4, L_r per chunk = 2000, T_o = 5000: first chunk fully
        // exposed, remaining 3 fully masked.
        assert!((t.prefetch_exposed_ns - 2_000.0).abs() < 1e-9);
        assert!((t.prefetch_masked_ns - 3.0 * 2_000.0).abs() < 1e-9);
        assert_eq!(t.disk_transfer_ns, 0.0);
        // Masked latency is informational: not part of the total.
        assert!(
            (t.total_ns() - (t.compute_ns + t.disk_seek_ns + t.prefetch_exposed_ns)).abs() < 1e-9
        );
    }

    #[test]
    fn neighbor_terms_split_waits_from_overheads() {
        let s = ProgramStructure {
            name: "t".into(),
            sections: vec![SectionSpec {
                id: 0,
                tiles: 1,
                stages: vec![StageSpec::new(0, vec![], vec![], false)],
                comm: CommPattern::NearestNeighbor { msg_elems: 10 },
            }],
            variables: vec![variable(1, 20, 10.0, true)],
        };
        let mut prof = profile_uniform(2, 10, 100.0, 1.0, 1.0);
        for p in prof.nodes[1].compute_ns_per_row.values_mut() {
            *p = 300.0;
        }
        let m = Mheta::new(s, arch(2, 1 << 20), prof).unwrap();
        let p = m.predict(&[10, 10]).unwrap();
        // Steady state (see nearest_neighbor_wait_matches_hand_computation):
        // the slow node never waits; both pay o_s + o_r overheads.
        let t0 = p.rank_terms(0);
        let t1 = p.rank_terms(1);
        assert!((t0.comm_overhead_ns - 30.0).abs() < 1e-9, "{t0:?}");
        assert!((t1.comm_overhead_ns - 30.0).abs() < 1e-9, "{t1:?}");
        assert_eq!(t1.neighbor_wait_ns, 0.0, "slow node never waits");
        assert!(
            (t0.neighbor_wait_ns - 2_000.0).abs() < 1e-9,
            "fast node absorbs the imbalance: {t0:?}"
        );
    }

    #[test]
    fn lowering_resolves_the_cluster_mean_for_a_rank_without_its_own_rate() {
        // Rank 1 never timed the stage (no entry), rank 2 timed garbage:
        // both take the mean of the ranks that have a finite figure.
        let s = one_section(90, CommPattern::None, false, true);
        let mut prof = profile_uniform(3, 30, 100.0, 1.0, 1.0);
        prof.nodes[1].compute_ns_per_row.clear();
        for p in prof.nodes[2].compute_ns_per_row.values_mut() {
            *p = f64::NAN;
        }
        let m = Mheta::new(s, arch(3, 1 << 20), prof).unwrap();
        for rank in 0..3 {
            assert_eq!(m.plan.ranks[rank].compute_ns_per_row, vec![100.0]);
            assert_eq!(m.rank_cost(rank, 7), vec![700.0]);
        }
    }

    #[test]
    fn lowering_sizes_an_unmeasured_message_from_its_element_count() {
        let s = one_section(40, CommPattern::Reduction { msg_elems: 5 }, false, true);
        let mut prof = profile_uniform(2, 20, 100.0, 1.0, 1.0);
        // No measured payload: 5 elements x 8 bytes, alpha 100, beta 1.
        let m = Mheta::new(s.clone(), arch(2, 1 << 20), prof.clone()).unwrap();
        assert_eq!(m.plan.sections[0].hop.transfer, 100.0 + 40.0);
        // A measured payload (the largest any rank sent) wins.
        prof.nodes[0].section_send_bytes.insert(0, 64);
        prof.nodes[1].section_send_bytes.insert(0, 48);
        let m = Mheta::new(s, arch(2, 1 << 20), prof).unwrap();
        assert_eq!(m.plan.sections[0].hop.transfer, 100.0 + 64.0);
    }

    #[test]
    fn leaves_score_to_the_predicted_iteration_time() {
        // The session's path by hand: per-rank leaves into one slab,
        // assembled with a reused scratch block.
        let s = one_section(100, CommPattern::Reduction { msg_elems: 1 }, false, false);
        let m = Mheta::new(s, arch(4, 2_000), profile_uniform(4, 25, 50.0, 8.0, 4.0)).unwrap();
        let mut scratch = Vec::new();
        for rows in [[25usize, 25, 25, 25], [40, 10, 30, 20]] {
            let mut leaves = vec![0.0; 4 * m.leaf_len()];
            for (rank, out) in leaves.chunks_exact_mut(m.leaf_len()).enumerate() {
                m.rank_cost_into(rank, rows[rank], out);
            }
            let score = m.score_from_leaves(&rows, &leaves, &mut scratch).unwrap();
            assert_eq!(
                score.to_bits(),
                m.predict(&rows).unwrap().iteration_ns.to_bits()
            );
        }
        assert!(m
            .score_from_leaves(&[25; 4], &[0.0; 3], &mut scratch)
            .is_err());
    }

    #[test]
    fn app_secs_scales_linearly() {
        let s = one_section(100, CommPattern::None, false, true);
        let m = Mheta::new(s, arch(1, 1 << 20), profile_uniform(1, 100, 10.0, 1.0, 1.0)).unwrap();
        let p = m.predict(&[100]).unwrap();
        assert!((p.app_secs(10) - 10.0 * p.iteration_ns / 1e9).abs() < 1e-12);
    }
}
