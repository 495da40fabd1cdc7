//! # mheta-mpi — message passing and explicit I/O over the simulator
//!
//! An MPI-flavoured layer over [`mheta_sim`]: typed point-to-point
//! messaging, binomial-tree collectives, explicit file I/O with
//! asynchronous prefetch, and — crucially for MHETA — an MPI-Jack style
//! interposition mechanism ([`hooks`]) that lets an instrumented
//! iteration observe every operation's variable, peers, sizes, and
//! virtual-clock timestamps without touching application code beyond
//! the structural begin/end markers.
//!
//! The collectives module writes its binomial tree once: the executed
//! collectives walk it, and the analytical twins behind
//! [`collectives::model_allreduce_in_place`] replay it over virtual
//! clocks. The MHETA model uses the twins to predict reduction time
//! with the exact tree the execution uses.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod collectives;
pub mod comm;
pub mod detector;
pub mod hooks;
pub mod msg;
pub mod runner;

pub use collectives::{
    agree_mask, allreduce, barrier, clock_max, ft_allreduce_among, model_allreduce_in_place,
    HopCost, ReduceOp, TAG_AGREE, TAG_BCAST, TAG_COLLECTIVE_BASE, TAG_REDUCE,
};
pub use comm::{Comm, ExecMode, PrefetchToken, RetryPolicy};
pub use detector::{HealthState, PhiAccrualDetector, SuspicionSample, Transition};
pub use hooks::{
    HookEvent, NullRecorder, OpInfo, OpKind, Recorder, Scope, ScopeKind, SharedEventLog,
    SharedVecRecorder, VecRecorder,
};
pub use runner::{run_app, AppRun, RunOptions};
