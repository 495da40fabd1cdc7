//! MPI-Jack style interposition hooks.
//!
//! The paper's MPI-Jack tool exploits PMPI, the MPI profiling layer, to
//! run arbitrary code before and after any intercepted MPI call
//! (Figure 3). Here every [`crate::Comm`] operation is routed through a
//! [`Recorder`], which receives:
//!
//! * **scope events** — the begin/end markers for iterations, parallel
//!   sections, tiles, and stages that the paper says "the user or
//!   preprocessor can insert" (§4.1.1), and
//! * **operation events** — each send/recv/file-read/file-write with
//!   its variable ID (extracted from the call parameters, exactly as
//!   MPI-Jack's pre-hook does), peer ranks, byte counts, and start/end
//!   timestamps on the rank's virtual clock.
//!
//! Computation time per stage is *not* recorded directly: MHETA derives
//! it as stage duration minus the I/O time inside the stage (§4.1.1),
//! and the profile builder in `mheta-core` does the same.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mheta_sim::{SimDur, SimTime, VarId};

/// Position in the program's static structure: which parallel section,
/// tile, and stage an operation occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
pub struct Scope {
    /// Parallel-section index (PID in the paper's Figure 3).
    pub section: u32,
    /// Tile index within the section (TID); always 0 for non-pipelined
    /// sections.
    pub tile: u32,
    /// Stage index within the tile (SID).
    pub stage: u32,
}

/// Which structural bracket a scope event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum ScopeKind {
    /// One outer iteration of the application's convergence loop.
    Iteration,
    /// A parallel section (code between communication events).
    Section,
    /// A tile (pipelined sections have several per section).
    Tile,
    /// A stage (innermost compute+I/O bracket).
    Stage,
}

/// The kind of intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum OpKind {
    /// Message send (`MPI_Send`).
    Send,
    /// Message receive (`MPI_Recv`).
    Recv,
    /// Synchronous file read (`MPI_File_read`).
    FileRead,
    /// Synchronous file write (`MPI_File_write`).
    FileWrite,
    /// Asynchronous read issue (`MPI_File_iread`).
    PrefetchIssue,
    /// Wait for an asynchronous read (`MPI_Wait`).
    PrefetchWait,
}

/// Everything the pre/post hook pair learns about one operation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct OpInfo {
    /// Operation kind.
    pub kind: OpKind,
    /// Variable involved, for I/O ops (the VID of Figure 3).
    pub var: Option<VarId>,
    /// Peer rank, for communication ops (the nIDs of §4.1.2).
    pub peer: Option<usize>,
    /// Payload or transfer size in bytes.
    pub bytes: u64,
    /// Element count for f64 I/O (0 for raw sends).
    pub elems: usize,
    /// Structural position of the call.
    pub scope: Scope,
    /// Time spent blocked (receives and prefetch waits; zero otherwise).
    pub blocked: SimDur,
}

/// One event delivered to a recorder.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum HookEvent {
    /// A structural bracket opened.
    ScopeEnter {
        /// Bracket kind.
        kind: ScopeKind,
        /// Bracket index (iteration number, section id, …).
        id: u32,
        /// Virtual time of entry.
        at: SimTime,
    },
    /// A structural bracket closed.
    ScopeExit {
        /// Bracket kind.
        kind: ScopeKind,
        /// Bracket index.
        id: u32,
        /// Virtual time of exit.
        at: SimTime,
    },
    /// An intercepted operation completed.
    Op {
        /// What the pre/post hooks observed.
        info: OpInfo,
        /// Virtual time the operation began.
        start: SimTime,
        /// Virtual time it completed.
        end: SimTime,
    },
    /// A transient I/O fault was absorbed by the communicator's retry
    /// policy: the failed attempt's cost and the backoff delay have
    /// been charged to the rank's clock, and the operation is about to
    /// be retried.
    Retry {
        /// The operation being retried.
        kind: OpKind,
        /// Variable involved, for I/O ops.
        var: Option<VarId>,
        /// Which attempt just failed (1 = first try).
        attempt: u32,
        /// Backoff charged before the next attempt.
        backoff: SimDur,
        /// Virtual time after the backoff.
        at: SimTime,
    },
}

/// A sink for hook events — the "arbitrary code" MPI-Jack lets a user
/// attach. `mheta-core` provides the profile-building implementation;
/// [`NullRecorder`] is the zero-cost default for production runs.
pub trait Recorder: Send {
    /// Receive one event. Called synchronously from the rank's thread.
    fn record(&mut self, ev: &HookEvent);
}

/// Discards all events (hooks "undefined", left side of Figure 3).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _ev: &HookEvent) {}
}

/// Retains every event verbatim; useful for tests and debugging.
///
/// A `VecRecorder` belongs to exactly one rank thread (`record` takes
/// `&mut self`, so the borrow checker enforces this): the runner builds
/// one per rank and hands the filled recorders back after the run. To
/// share a single sink across every rank thread instead, use
/// [`SharedEventLog`].
#[derive(Debug, Default)]
pub struct VecRecorder {
    /// All events in program order.
    pub events: Vec<HookEvent>,
}

impl Recorder for VecRecorder {
    fn record(&mut self, ev: &HookEvent) {
        self.events.push(ev.clone());
    }
}

type EventLog = Mutex<Vec<(usize, HookEvent)>>;

/// Lock a shared log, recovering a poisoned lock: a rank that panics
/// while recording must not take its siblings' recorders down with it
/// (the simulator reports the panic through its own channel).
fn lock(log: &EventLog) -> MutexGuard<'_, Vec<(usize, HookEvent)>> {
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread-safe hook-event sink shared by every rank of a run —
/// the lock-guarded alternative to collecting one [`VecRecorder`] per
/// rank and merging afterwards.
///
/// Clone the log, then hand each rank a [`SharedEventLog::recorder`];
/// all of them append into the same rank-tagged vector. The *global*
/// interleaving across ranks depends on host thread scheduling and is
/// therefore **not** deterministic, but each rank's subsequence is —
/// consumers that need determinism should use [`SharedEventLog::per_rank`],
/// which restores the per-rank program order.
#[derive(Debug, Default, Clone)]
pub struct SharedEventLog {
    inner: Arc<EventLog>,
}

impl SharedEventLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that appends rank-tagged events to this log.
    #[must_use]
    pub fn recorder(&self, rank: usize) -> SharedVecRecorder {
        SharedVecRecorder {
            rank,
            log: Arc::clone(&self.inner),
        }
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// True when no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }

    /// Drain the log in arrival order (nondeterministic across ranks).
    #[must_use]
    pub fn take(&self) -> Vec<(usize, HookEvent)> {
        std::mem::take(&mut *lock(&self.inner))
    }

    /// Drain the log into deterministic per-rank event sequences.
    /// `ranks` is the communicator size; events from ranks at or beyond
    /// it are discarded.
    #[must_use]
    pub fn per_rank(&self, ranks: usize) -> Vec<Vec<HookEvent>> {
        let mut out = vec![Vec::new(); ranks];
        for (rank, ev) in self.take() {
            if let Some(slot) = out.get_mut(rank) {
                slot.push(ev);
            }
        }
        out
    }
}

/// One rank's handle onto a [`SharedEventLog`].
#[derive(Debug, Clone)]
pub struct SharedVecRecorder {
    rank: usize,
    log: Arc<EventLog>,
}

impl Recorder for SharedVecRecorder {
    fn record(&mut self, ev: &HookEvent) {
        lock(&self.log).push((self.rank, ev.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_recorder_accumulates_in_order() {
        let mut r = VecRecorder::default();
        r.record(&HookEvent::ScopeEnter {
            kind: ScopeKind::Stage,
            id: 1,
            at: SimTime(5),
        });
        r.record(&HookEvent::ScopeExit {
            kind: ScopeKind::Stage,
            id: 1,
            at: SimTime(9),
        });
        assert_eq!(r.events.len(), 2);
        assert!(matches!(
            r.events[0],
            HookEvent::ScopeEnter {
                kind: ScopeKind::Stage,
                ..
            }
        ));
    }

    #[test]
    fn shared_log_collects_across_handles_and_splits_per_rank() {
        let log = SharedEventLog::new();
        let mut r0 = log.recorder(0);
        let mut r1 = log.recorder(1);
        r0.record(&HookEvent::ScopeEnter {
            kind: ScopeKind::Iteration,
            id: 0,
            at: SimTime(0),
        });
        r1.record(&HookEvent::ScopeEnter {
            kind: ScopeKind::Iteration,
            id: 0,
            at: SimTime(3),
        });
        r0.record(&HookEvent::ScopeExit {
            kind: ScopeKind::Iteration,
            id: 0,
            at: SimTime(7),
        });
        assert_eq!(log.len(), 3);
        let per_rank = log.per_rank(2);
        assert_eq!(per_rank[0].len(), 2);
        assert_eq!(per_rank[1].len(), 1);
        assert!(log.is_empty(), "per_rank drains the log");
    }

    #[test]
    fn null_recorder_is_inert() {
        let mut r = NullRecorder;
        r.record(&HookEvent::ScopeEnter {
            kind: ScopeKind::Iteration,
            id: 0,
            at: SimTime(0),
        });
    }
}
