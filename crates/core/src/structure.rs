//! Static program structure.
//!
//! MHETA's input includes a description of the application's shape —
//! the number and relationship of parallel sections, tiles, and stages,
//! and which variables each stage reads and writes (paper §4.1, §5.1:
//! "We currently analyze the application source code manually to
//! determine the number and relationship between the parallel sections,
//! tiles, and stages in the program as well as which variables they
//! use. We store this information in a file read by MHETA.").
//!
//! Each benchmark application in `mheta-apps` exports its
//! [`ProgramStructure`]; it is the contract between the application,
//! the instrumentation, and the prediction engine.

use mheta_sim::VarId;
use serde::Serialize;

/// One application array.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Variable {
    /// Identifier used in file I/O calls (the VID of Figure 3).
    pub id: VarId,
    /// Human-readable name.
    pub name: String,
    /// Bytes per element (8 for `f64` everywhere in this repo).
    pub elem_bytes: u64,
    /// True when the variable is never written back per iteration
    /// (e.g. the CG and Lanczos matrices); Eq. 1's write terms vanish.
    pub read_only: bool,
    /// True when the variable is partitioned by the data distribution;
    /// false for replicated arrays (which every node holds whole).
    pub distributed: bool,
    /// True when the variable is always memory-resident and never
    /// streamed from disk (per-row working vectors, halo buffers).
    /// Resident distributed variables consume `elems_per_row` elements
    /// of memory per assigned row; resident replicated variables their
    /// whole size. They never appear in stage read/write lists.
    pub resident: bool,
    /// Total rows of the (logically 2-D) array; distributed variables
    /// are split along this axis into GEN_BLOCK pieces.
    pub total_rows: usize,
    /// *Average* elements per row. Exact for dense arrays; an average
    /// for sparse ones — which is precisely the simplification that
    /// costs MHETA accuracy on CG (paper §5.4, limitation 3).
    pub elems_per_row: f64,
}

impl Variable {
    /// Average bytes per distributed row.
    #[must_use]
    pub fn row_bytes(&self) -> f64 {
        self.elems_per_row * self.elem_bytes as f64
    }

    /// A streamed (potentially out-of-core) distributed array.
    #[must_use]
    pub fn streamed(
        id: VarId,
        name: &str,
        total_rows: usize,
        elems_per_row: f64,
        read_only: bool,
    ) -> Self {
        Variable {
            id,
            name: name.to_string(),
            elem_bytes: 8,
            read_only,
            distributed: true,
            resident: false,
            total_rows,
            elems_per_row,
        }
    }

    /// A memory-resident distributed working array (never streamed).
    #[must_use]
    pub fn resident_local(id: VarId, name: &str, total_rows: usize, elems_per_row: f64) -> Self {
        Variable {
            id,
            name: name.to_string(),
            elem_bytes: 8,
            read_only: false,
            distributed: true,
            resident: true,
            total_rows,
            elems_per_row,
        }
    }

    /// A replicated array of `total_elems` elements held whole by every
    /// node.
    #[must_use]
    pub fn replicated(id: VarId, name: &str, total_elems: usize) -> Self {
        Variable {
            id,
            name: name.to_string(),
            elem_bytes: 8,
            read_only: false,
            distributed: false,
            resident: true,
            total_rows: total_elems,
            elems_per_row: 1.0,
        }
    }
}

/// The communication pattern closing a parallel section.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum CommPattern {
    /// No communication (compute/I/O-only section).
    None,
    /// Boundary exchange with the left and right neighbor in rank
    /// order, `msg_elems` elements each way.
    NearestNeighbor {
        /// Elements per boundary message.
        msg_elems: usize,
    },
    /// Pipelined chain: rank `i` receives from `i-1` and sends to
    /// `i+1` once per tile.
    Pipelined {
        /// Elements per inter-stage message.
        msg_elems: usize,
    },
    /// Global allreduce of `msg_elems` elements.
    Reduction {
        /// Elements reduced.
        msg_elems: usize,
    },
}

/// One stage: the innermost compute + I/O bracket, bounded by a loop
/// over an out-of-core array (or the end of the tile).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageSpec {
    /// Stage index within its tile.
    pub id: u32,
    /// Variables read (from disk when out of core) in this stage.
    pub reads: Vec<VarId>,
    /// Variables written (to disk when out of core) in this stage.
    pub writes: Vec<VarId>,
    /// Whether the stage's ICLA loop uses prefetching (Figure 6);
    /// selects Eq. 2 over Eq. 1.
    pub prefetch: bool,
    /// Fraction of each variable row this stage touches: 1.0 for whole
    /// rows; `1/tiles` for column-tiled pipelined stages (each tile's
    /// stage streams only its column slice).
    pub row_fraction: f64,
}

impl StageSpec {
    /// A whole-row stage (the common case).
    #[must_use]
    pub fn new(id: u32, reads: Vec<VarId>, writes: Vec<VarId>, prefetch: bool) -> Self {
        StageSpec {
            id,
            reads,
            writes,
            prefetch,
            row_fraction: 1.0,
        }
    }

    /// Restrict the stage to a fraction of each row (builder-style).
    #[must_use]
    pub fn with_row_fraction(mut self, f: f64) -> Self {
        self.row_fraction = f;
        self
    }
}

/// One parallel section: code between communication events.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SectionSpec {
    /// Section index (the PID of Figure 3).
    pub id: u32,
    /// Number of tiles; pipelined sections have several, all others 1.
    pub tiles: u32,
    /// Stages executed within each tile, in order.
    pub stages: Vec<StageSpec>,
    /// The communication pattern at the section boundary.
    pub comm: CommPattern,
}

/// The whole application shape.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgramStructure {
    /// Application name ("jacobi", "cg", …).
    pub name: String,
    /// Parallel sections in per-iteration execution order.
    pub sections: Vec<SectionSpec>,
    /// All variables the application touches.
    pub variables: Vec<Variable>,
}

impl ProgramStructure {
    /// Look up a variable by ID.
    #[must_use]
    pub fn variable(&self, id: VarId) -> Option<&Variable> {
        self.variables.iter().find(|v| v.id == id)
    }

    /// All distributed variables.
    pub fn distributed_vars(&self) -> impl Iterator<Item = &Variable> {
        self.variables.iter().filter(|v| v.distributed)
    }

    /// True when any stage writes `var` back per iteration.
    #[must_use]
    pub fn is_written(&self, var: VarId) -> bool {
        self.sections
            .iter()
            .flat_map(|s| &s.stages)
            .any(|st| st.writes.contains(&var))
    }

    /// Per-row memory footprint of each *streamed* distributed variable:
    /// read-write variables need an output buffer alongside the input
    /// chunk, so they cost twice their row bytes. This is the shared
    /// convention between the model's ICLA heuristic and the
    /// applications' actual buffer sizing — keeping them aligned except
    /// for the divergences the model cannot see (§5.4).
    #[must_use]
    pub fn footprint_row_bytes(&self) -> Vec<(VarId, f64)> {
        self.distributed_vars()
            .filter(|v| !v.resident)
            .map(|v| {
                let factor = if self.is_written(v.id) { 2.0 } else { 1.0 };
                (v.id, v.row_bytes() * factor)
            })
            .collect()
    }

    /// Bytes of memory-resident replicated data every node holds
    /// regardless of the distribution.
    #[must_use]
    pub fn replicated_bytes(&self) -> f64 {
        self.variables
            .iter()
            .filter(|v| !v.distributed)
            .map(|v| v.total_rows as f64 * v.row_bytes())
            .sum()
    }

    /// Per-assigned-row bytes of memory-resident distributed working
    /// data (vectors indexed by local row that are never streamed).
    #[must_use]
    pub fn resident_row_bytes(&self) -> f64 {
        self.distributed_vars()
            .filter(|v| v.resident)
            .map(Variable::row_bytes)
            .sum()
    }

    /// The model's estimate of a node's non-streamable memory overhead
    /// under a distribution assigning it `my_rows` rows.
    #[must_use]
    pub fn overhead_bytes(&self, my_rows: usize) -> f64 {
        self.replicated_bytes() + my_rows as f64 * self.resident_row_bytes()
    }

    /// Total rows of the distribution axis (all distributed variables
    /// must agree — they are partitioned by one GEN_BLOCK).
    #[must_use]
    pub fn distribution_rows(&self) -> usize {
        self.distributed_vars()
            .map(|v| v.total_rows)
            .max()
            .unwrap_or(0)
    }

    /// Validate internal consistency (stage variable references resolve,
    /// tiles are nonzero, distributed variables agree on row count).
    pub fn validate(&self) -> Result<(), String> {
        if self.sections.is_empty() {
            return Err(format!("{}: no sections", self.name));
        }
        let rows: Vec<usize> = self.distributed_vars().map(|v| v.total_rows).collect();
        if let Some(&first) = rows.first() {
            if rows.iter().any(|&r| r != first) {
                return Err(format!(
                    "{}: distributed variables disagree on total_rows: {rows:?}",
                    self.name
                ));
            }
        }
        for s in &self.sections {
            if s.tiles == 0 {
                return Err(format!("{}: section {} has zero tiles", self.name, s.id));
            }
            if s.tiles > 1 && !matches!(s.comm, CommPattern::Pipelined { .. }) {
                return Err(format!(
                    "{}: section {} has {} tiles but is not pipelined",
                    self.name, s.id, s.tiles
                ));
            }
            for st in &s.stages {
                if !(st.row_fraction.is_finite() && st.row_fraction > 0.0 && st.row_fraction <= 1.0)
                {
                    return Err(format!(
                        "{}: section {} stage {} has row_fraction {} outside (0, 1]",
                        self.name, s.id, st.id, st.row_fraction
                    ));
                }
                for v in st.reads.iter().chain(&st.writes) {
                    match self.variable(*v) {
                        None => {
                            return Err(format!(
                                "{}: section {} stage {} references unknown variable {v}",
                                self.name, s.id, st.id
                            ));
                        }
                        Some(var) if var.resident => {
                            return Err(format!(
                                "{}: section {} stage {} streams resident variable {v}",
                                self.name, s.id, st.id
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(id: VarId, rows: usize) -> Variable {
        Variable {
            id,
            name: format!("v{id}"),
            elem_bytes: 8,
            read_only: false,
            distributed: true,
            resident: false,
            total_rows: rows,
            elems_per_row: 16.0,
        }
    }

    fn simple() -> ProgramStructure {
        ProgramStructure {
            name: "t".into(),
            sections: vec![SectionSpec {
                id: 0,
                tiles: 1,
                stages: vec![StageSpec {
                    id: 0,
                    reads: vec![1],
                    writes: vec![1],
                    prefetch: false,
                    row_fraction: 1.0,
                }],
                comm: CommPattern::NearestNeighbor { msg_elems: 4 },
            }],
            variables: vec![var(1, 100)],
        }
    }

    #[test]
    fn valid_structure_passes() {
        simple().validate().unwrap();
    }

    #[test]
    fn unknown_variable_reference_fails() {
        let mut s = simple();
        s.sections[0].stages[0].reads.push(9);
        assert!(s.validate().is_err());
    }

    #[test]
    fn row_disagreement_fails() {
        let mut s = simple();
        s.variables.push(var(2, 50));
        assert!(s.validate().is_err());
    }

    #[test]
    fn multi_tile_requires_pipeline() {
        let mut s = simple();
        s.sections[0].tiles = 4;
        assert!(s.validate().is_err());
        s.sections[0].comm = CommPattern::Pipelined { msg_elems: 4 };
        s.validate().unwrap();
    }

    #[test]
    fn zero_tiles_fails() {
        let mut s = simple();
        s.sections[0].tiles = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn distribution_rows_is_max_of_distributed() {
        let s = simple();
        assert_eq!(s.distribution_rows(), 100);
    }

    #[test]
    fn row_bytes_uses_average() {
        let v = var(1, 10);
        assert_eq!(v.row_bytes(), 128.0);
    }
}
