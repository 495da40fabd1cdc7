//! The virtual-time execution engine.
//!
//! Each simulated rank runs on a real OS thread — one parked worker per
//! rank, reused across runs — executing the actual application code (so
//! numerical results are real), but *time* is a per-rank virtual clock
//! advanced by the cost model:
//!
//! * `compute(work, ws)` — advances the local clock by
//!   `work · ns_per_unit / cpu_power`, scaled by the cache-tier factor
//!   and the deterministic noise stream;
//! * disk operations — seek overhead + bytes × per-byte latency;
//! * `send` — charges the sender-side overhead and deposits the message
//!   in the kernel mailbox stamped with its *arrival* time
//!   (`sender_clock + o_s + α + bytes·β`);
//! * `recv` — blocks (on a real condvar) until a matching message is
//!   present, then sets `clock = max(clock, arrival) + o_r`.
//!
//! Both charge a message through one rule, [`Hop::charge`], with costs
//! drawn from the rank's own streams in the order the rank makes them.
//!
//! Because message matching is by `(src, dst, tag)` FIFO order and the
//! application is deterministic, the resulting virtual timelines are
//! reproducible regardless of host scheduling — a conservative
//! rendezvous simulation in the style of LogP simulators.
//!
//! A collective over every rank need not move its messages through the
//! mailboxes at all: in [`RankCtx::rendezvous`] each rank lists the
//! messages it would make, draws their costs, deposits them with its
//! clock and values and parks once; the last rank to arrive replays the
//! whole schedule over the deposits and wakes the others, and each then
//! charges and traces its own messages at the replayed times. `recv`
//! still parks per message.
//!
//! Deadlock of the *simulated* program (every live rank blocked in a
//! receive or a rendezvous) is detected and surfaced as
//! [`SimError::Deadlock`] rather than hanging the host process.
//!
//! There are two ways to run a program over a cluster, with one result
//! type: [`run_cluster`] gives every rank its own parked worker thread,
//! reused across runs, and runs any program; [`run_in_rank_order`] runs
//! the ranks one after another on the caller's thread, for programs in
//! which no rank ever has to wait for a rank that has not run yet.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::config::ClusterSpec;
use crate::disk::{DiskStore, MemTracker, VarId};
use crate::error::{SimError, SimResult};
use crate::fault::{CrashSpec, FaultKind, RankFaults};
use crate::noise::NoiseStream;
use crate::time::{SimDur, SimTime};
use crate::trace::{Event, EventKind, RankTrace};

/// Raw message payload. The MPI layer serializes typed data into this.
pub type Payload = Vec<u8>;

#[derive(Debug)]
struct InFlight {
    payload: Payload,
    arrival: SimTime,
    bytes: u64,
}

/// Which way a [`Hop`] moves its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// The rank sends the message.
    Send,
    /// The rank receives the message.
    Recv,
}

/// One message a rank sends or receives, with the costs its streams
/// drew for it: what [`RankCtx::send`] and [`RankCtx::recv`] charge, and
/// what a rank lists for a [`RankCtx::rendezvous`].
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Send or receive.
    pub kind: HopKind,
    /// The receiver of a send, the sender of a receive.
    pub peer: usize,
    /// The message's tag.
    pub tag: u32,
    /// The payload's size.
    pub bytes: u64,
    /// When the message arrives: at the peer for a send (set by
    /// [`Hop::charge`]), here for a receive (set by whoever delivers it
    /// before it is charged).
    pub arrival: SimTime,
    /// `o_s` for a send, `o_r` for a receive.
    overhead: SimDur,
    /// A send's time in flight, per transmission.
    transfer: SimDur,
    /// How many times a send is dropped and sent again.
    resends: u32,
}

impl Hop {
    /// A message of `bytes` bytes to or from `peer`, its costs not yet
    /// drawn.
    #[must_use]
    pub fn new(kind: HopKind, peer: usize, tag: u32, bytes: u64) -> Hop {
        Hop {
            kind,
            peer,
            tag,
            bytes,
            arrival: SimTime::ZERO,
            overhead: SimDur::ZERO,
            transfer: SimDur::ZERO,
            resends: 0,
        }
    }

    /// Advance a clock standing at `now` over this hop — the one charge
    /// rule of every message. A send pays `o_s`, and its message arrives
    /// one transfer later per transmission (the sender is not delayed
    /// by resends: a buffered send, retransmitted by the NIC). A receive
    /// waits for its message's `arrival`, then pays `o_r`.
    pub fn charge(&mut self, now: &mut SimTime) {
        match self.kind {
            HopKind::Send => {
                *now += self.overhead;
                self.arrival = *now + self.transfer * u64::from(self.resends + 1);
            }
            HopKind::Recv => *now = (*now).max(self.arrival) + self.overhead,
        }
    }
}

/// One rank's part in a [`RankCtx::rendezvous`], a slot the kernel
/// reuses from one collective to the next.
#[derive(Debug, Default)]
pub struct Deposit {
    /// The rank's clock on entry; the settler may run it forward.
    pub clock: SimTime,
    /// Free for the settler: the arrival of a message between this rank
    /// and a peer, while it replays the schedule.
    pub inbox: SimTime,
    /// The rank's messages in the order it makes them, costs drawn. The
    /// settler charges each and sets every receive's `arrival`.
    pub hops: Vec<Hop>,
    /// The rank's values on entry; the settler leaves in them the values
    /// the rank returns with.
    pub values: Vec<f64>,
}

impl Deposit {
    /// Hand a settled deposit's hops and values to its rank: the hops by
    /// a swap with `hops`, the buffer the rank gave up for them.
    fn hand_back(&mut self, hops: &mut Vec<Hop>, values: &mut [f64]) {
        std::mem::swap(&mut self.hops, hops);
        values.copy_from_slice(&self.values);
    }
}

#[derive(Debug, Default)]
struct KernelState {
    mailboxes: HashMap<(usize, usize, u32), VecDeque<InFlight>>,
    /// Ranks that have been handed their context; `active` counts each
    /// of them down once, so a rank gets exactly one.
    issued: Vec<bool>,
    /// Ranks that have not yet called `finish`.
    active: usize,
    /// Ranks currently parked in `recv` or in a rendezvous.
    blocked: usize,
    /// One deposit slot per rank for the rendezvous in progress.
    deposits: Vec<Deposit>,
    /// Ranks that have deposited for the rendezvous in progress.
    arrived: usize,
    /// Rendezvous settled so far: a parked rank's is settled once this
    /// has moved past the count it parked at.
    settled: u64,
    /// What each parked rank is waiting for: rank → (src, tag).
    waiting: HashMap<usize, (usize, u32)>,
    /// Crash-stopped ranks and their virtual instants of death.
    dead: HashMap<usize, SimTime>,
    /// Set when the simulated program can make no further progress.
    deadlocked: Option<String>,
}

impl KernelState {
    /// True if any parked rank's awaited mailbox already holds a
    /// message, or the awaited peer is dead (the wait will resolve to
    /// [`SimError::PeerDead`]) — i.e. the system can still make
    /// progress even though every live rank is currently counted as
    /// blocked.
    fn any_satisfiable(&self) -> bool {
        self.waiting.iter().any(|(&rank, &(src, tag))| {
            self.dead.contains_key(&src)
                || self
                    .mailboxes
                    .get(&(src, rank, tag))
                    .is_some_and(|q| !q.is_empty())
        })
    }
}

/// Shared kernel for one cluster run.
pub struct SimKernel {
    spec: ClusterSpec,
    state: Mutex<KernelState>,
    /// One per rank, all over `state`: a rank parks only on its own, so
    /// a send wakes the one rank it can unblock instead of all of them.
    /// Empty when `rank_ordered`: nobody parks.
    cvars: Vec<Condvar>,
    /// The ranks run to completion one after another on one thread
    /// ([`run_in_rank_order`]). While one runs no other can send, so a
    /// receive with nothing to take and a live peer can never be
    /// satisfied: it is a deadlock at once, not a wait.
    rank_ordered: bool,
}

impl SimKernel {
    /// Build a kernel for `spec`, one parked worker per rank, reused
    /// across runs; validates the configuration.
    pub fn new(spec: ClusterSpec) -> SimResult<Arc<Self>> {
        Self::build(spec, false)
    }

    fn build(spec: ClusterSpec, rank_ordered: bool) -> SimResult<Arc<Self>> {
        spec.validate()?;
        let n = spec.len();
        let parking = if rank_ordered { 0 } else { n };
        Ok(Arc::new(SimKernel {
            spec,
            state: Mutex::new(KernelState {
                issued: vec![false; n],
                active: n,
                deposits: std::iter::repeat_with(Deposit::default).take(n).collect(),
                ..KernelState::default()
            }),
            cvars: (0..parking).map(|_| Condvar::new()).collect(),
            rank_ordered,
        }))
    }

    /// Lock the kernel state, recovering a poisoned lock. A rank body
    /// that panics while holding the lock — or whose `RankCtx::drop`
    /// takes it while the panic unwinds — must not cascade poisoning
    /// into its siblings (or abort the process with a second panic in
    /// that destructor): `run_cluster` reports the panic itself.
    fn lock(&self) -> MutexGuard<'_, KernelState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every parked rank: for state changes any wait may depend
    /// on (a death, a declared deadlock).
    fn wake_all(&self) {
        for cvar in &self.cvars {
            cvar.notify_one();
        }
    }

    /// The cluster configuration this kernel simulates.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Create the execution context for `rank`, from the thread that
    /// will run it. A rank has one context for the life of the kernel:
    /// a second request is [`SimError::InvalidConfig`].
    pub fn rank_ctx(self: &Arc<Self>, rank: usize, tracing: bool) -> SimResult<RankCtx> {
        if rank >= self.spec.len() {
            return Err(SimError::InvalidRank {
                rank,
                size: self.spec.len(),
            });
        }
        if std::mem::replace(&mut self.lock().issued[rank], true) {
            return Err(SimError::InvalidConfig(format!(
                "rank {rank} already has its execution context"
            )));
        }
        Ok(RankCtx {
            rank,
            now: SimTime::ZERO,
            kernel: Arc::clone(self),
            noise: NoiseStream::new(&self.spec.noise, self.spec.seed, rank),
            faults: RankFaults::new(&self.spec.faults, self.spec.seed, rank),
            iteration: 0,
            degrade_mask: 0,
            disk: DiskStore::new(),
            mem: MemTracker::new(self.spec.nodes[rank].memory_bytes),
            events: tracing.then(Vec::new),
            prefetches: HashMap::new(),
            next_prefetch: 0,
            read_bytes: HashMap::new(),
            hops: Vec::new(),
            finished: false,
            crashed: false,
        })
    }

    fn declare_deadlock(state: &mut KernelState, detail: String) {
        if state.deadlocked.is_none() {
            state.deadlocked = Some(detail);
        }
    }
}

/// Handle to an in-flight asynchronous (prefetch) disk read.
///
/// The data is captured eagerly (the rank is the sole writer of its own
/// disk, so the copy is equivalent to completing at wait time) but the
/// virtual completion instant is what `wait` synchronizes with.
#[derive(Debug)]
pub struct Prefetch {
    id: u64,
    var: VarId,
    /// The elements that the disk will have delivered by `completion`.
    pub data: Vec<f64>,
}

/// Per-rank execution context: virtual clock, local disk, memory
/// tracker, noise stream, and the kernel endpoint for messaging.
pub struct RankCtx {
    rank: usize,
    now: SimTime,
    kernel: Arc<SimKernel>,
    noise: NoiseStream,
    faults: RankFaults,
    /// Current application iteration, advanced by
    /// [`RankCtx::note_iteration`]; iteration-triggered degrades key
    /// off this.
    iteration: u32,
    /// Bitmask of currently-active [`crate::fault::DegradeSpec`]
    /// entries, so each activation transition is logged exactly once.
    degrade_mask: u64,
    /// This node's local disk contents.
    pub disk: DiskStore,
    mem: MemTracker,
    events: Option<Vec<Event>>,
    prefetches: HashMap<u64, SimTime>,
    next_prefetch: u64,
    /// Cumulative bytes read per variable, for the warm-read model.
    read_bytes: HashMap<VarId, u64>,
    /// The buffer this rank draws its next rendezvous's hops into.
    hops: Vec<Hop>,
    finished: bool,
    /// Set once this rank's scheduled crash-stop failure has fired.
    crashed: bool,
}

impl RankCtx {
    /// This rank's index.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    #[must_use]
    pub fn size(&self) -> usize {
        self.kernel.spec.len()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster configuration.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.kernel.spec
    }

    /// This node's hardware spec.
    #[must_use]
    pub fn node(&self) -> &crate::config::NodeSpec {
        &self.kernel.spec.nodes[self.rank]
    }

    fn record(&mut self, start: SimTime, kind: EventKind) {
        let end = self.now;
        self.record_span(start, end, kind);
    }

    fn record_span(&mut self, start: SimTime, end: SimTime, kind: EventKind) {
        if let Some(events) = &mut self.events {
            events.push(Event { start, end, kind });
        }
    }

    /// Sample the memory gauge into the trace as a zero-length
    /// [`EventKind::MemLevel`] event at `at`; the level is considered
    /// to hold until the next sample.
    fn record_mem_level(&mut self, at: SimTime) {
        let in_use = self.mem.in_use();
        let high_water = self.mem.high_water();
        self.record_span(at, at, EventKind::MemLevel { in_use, high_water });
    }

    /// Advance the clock by a raw duration (used by higher layers for
    /// costs they model themselves, e.g. hook bookkeeping).
    pub fn charge(&mut self, d: SimDur) {
        self.now += d;
    }

    /// Perform `work_units` of computation over a working set of
    /// `ws_bytes` bytes. Returns the charged duration.
    ///
    /// The cache-tier factor is applied here and *only* here — MHETA
    /// never sees it, reproducing the paper's first limitation (§5.4).
    pub fn compute(&mut self, work_units: f64, ws_bytes: u64) -> SimDur {
        let start = self.now;
        let node = &self.kernel.spec.nodes[self.rank];
        let cache_factor = if ws_bytes <= node.cache_bytes {
            node.cache_speedup
        } else {
            1.0
        };
        // Scheduled degradation: transitions (activation and recovery)
        // are recorded once, and the factor multiplies the whole
        // computation.
        let degrade_factor = if self.faults.has_degrades() {
            let (mask, factor) = self.faults.degrades_at(self.iteration, start);
            if mask != self.degrade_mask {
                let kind = if mask & !self.degrade_mask != 0 {
                    FaultKind::Degrade { factor }
                } else {
                    FaultKind::DegradeEnd
                };
                self.degrade_mask = mask;
                self.record_span(start, start, EventKind::Fault { fault: kind });
            }
            factor
        } else {
            1.0
        };
        let cost = work_units * self.kernel.spec.compute_ns_per_unit
            / self.kernel.spec.nodes[self.rank].cpu_power
            * cache_factor
            * degrade_factor;
        let d = SimDur::from_nanos_f64(self.noise.perturb(cost));
        self.now += d;
        self.record(start, EventKind::Compute { work_units });
        d
    }

    /// Warm-read factor for `var`: 1.0 until the variable has been
    /// fully traversed once, then the node's `warm_read_factor`
    /// (sequential re-reads hit OS read-ahead and buffer cache).
    fn read_warmth(&mut self, var: VarId, bytes: u64) -> f64 {
        let extent_bytes = self
            .disk
            .extent(var, self.rank)
            .map(|e| (e * 8) as u64)
            .unwrap_or(u64::MAX);
        let seen = self.read_bytes.entry(var).or_insert(0);
        let warm = *seen >= extent_bytes;
        *seen = seen.saturating_add(bytes);
        if warm {
            self.kernel.spec.nodes[self.rank].warm_read_factor
        } else {
            1.0
        }
    }

    /// Synchronous disk read into `out`: the data, copied, then
    /// [`RankCtx::disk_read_charge`]'s charge. Returns the charged
    /// duration.
    pub fn disk_read(&mut self, var: VarId, offset: usize, out: &mut [f64]) -> SimResult<SimDur> {
        self.disk.read(var, offset, out, self.rank)?;
        self.disk_read_charge(var, offset, out.len())
    }

    /// Charge a synchronous read of `len` elements of `var` at
    /// `offset` (seek + per-byte latency) without moving a byte: the
    /// caller takes them in place from [`DiskStore::view`]. The range
    /// is checked first, then the fault draw, then warmth, the noise
    /// draw and the trace events. Returns the charged duration.
    pub fn disk_read_charge(&mut self, var: VarId, offset: usize, len: usize) -> SimResult<SimDur> {
        let start = self.now;
        self.disk.view(var, offset, len, self.rank)?;
        if let Some(attempt) = self.faults.read_attempt(var) {
            return Err(self.fail_disk_attempt(
                start,
                FaultKind::ReadFault { var, attempt },
                var,
                attempt,
            ));
        }
        let bytes = (len * 8) as u64;
        let warmth = self.read_warmth(var, bytes);
        let node = &self.kernel.spec.nodes[self.rank];
        let cost = node.io_read_seek_ns + bytes as f64 * node.io_read_ns_per_byte * warmth;
        let d = SimDur::from_nanos_f64(self.noise.perturb(cost));
        self.now += d;
        self.mem.stage(bytes);
        self.record_mem_level(start);
        self.record(start, EventKind::DiskRead { var, bytes });
        self.mem.unstage(bytes);
        self.record_mem_level(self.now);
        Ok(d)
    }

    /// Charge and record a transiently failed disk attempt: the wasted
    /// seek is paid on the virtual clock, the fault lands in the trace,
    /// and the caller gets a typed, retryable error. The warm-read
    /// counters are deliberately untouched — a failed attempt delivers
    /// no bytes.
    fn fail_disk_attempt(
        &mut self,
        start: SimTime,
        fault: FaultKind,
        var: VarId,
        attempt: u32,
    ) -> SimError {
        let seek = match fault {
            FaultKind::WriteFault { .. } => self.kernel.spec.nodes[self.rank].io_write_seek_ns,
            _ => self.kernel.spec.nodes[self.rank].io_read_seek_ns,
        };
        let d = SimDur::from_nanos_f64(self.noise.perturb(seek));
        self.now += d;
        self.record(start, EventKind::Fault { fault });
        SimError::TransientIo {
            rank: self.rank,
            var,
            attempt,
        }
    }

    /// Synchronous disk write of `input`: the data, stored, then
    /// [`RankCtx::disk_write_charge`]'s charge. The bytes land before
    /// the fault draw, so a failed attempt leaves them on disk too.
    /// Returns the charged duration.
    pub fn disk_write(&mut self, var: VarId, offset: usize, input: &[f64]) -> SimResult<SimDur> {
        self.disk.write(var, offset, input, self.rank)?;
        self.disk_write_charge(var, offset, input.len())
    }

    /// Charge a synchronous write of `len` elements of `var` at
    /// `offset` whose bytes are already on disk, updated in place
    /// through [`DiskStore::view_mut`]. The range is checked first,
    /// then the fault draw, then the noise draw and the trace events.
    /// Returns the charged duration.
    pub fn disk_write_charge(
        &mut self,
        var: VarId,
        offset: usize,
        len: usize,
    ) -> SimResult<SimDur> {
        let start = self.now;
        self.disk.view(var, offset, len, self.rank)?;
        if let Some(attempt) = self.faults.write_attempt(var) {
            return Err(self.fail_disk_attempt(
                start,
                FaultKind::WriteFault { var, attempt },
                var,
                attempt,
            ));
        }
        let bytes = (len * 8) as u64;
        let node = &self.kernel.spec.nodes[self.rank];
        let cost = node.io_write_seek_ns + bytes as f64 * node.io_write_ns_per_byte;
        let d = SimDur::from_nanos_f64(self.noise.perturb(cost));
        self.now += d;
        self.mem.stage(bytes);
        self.record_mem_level(start);
        self.record(start, EventKind::DiskWrite { var, bytes });
        self.mem.unstage(bytes);
        self.record_mem_level(self.now);
        Ok(d)
    }

    /// Issue an asynchronous (prefetch) read of `len` elements of `var`
    /// starting at `offset`. Charges the seek/issue overhead to the CPU
    /// timeline; the transfer latency proceeds concurrently and is
    /// reconciled by [`RankCtx::prefetch_wait`] (Figure 4 of the paper).
    pub fn prefetch_issue(&mut self, var: VarId, offset: usize, len: usize) -> SimResult<Prefetch> {
        let start = self.now;
        let data = self.disk.view(var, offset, len, self.rank)?.to_vec();
        if let Some(attempt) = self.faults.read_attempt(var) {
            return Err(self.fail_disk_attempt(
                start,
                FaultKind::ReadFault { var, attempt },
                var,
                attempt,
            ));
        }
        let bytes = (len * 8) as u64;
        let warmth = self.read_warmth(var, bytes);
        let node = &self.kernel.spec.nodes[self.rank];
        let overhead = SimDur::from_nanos_f64(self.noise.perturb(node.io_read_seek_ns));
        self.now += overhead;
        let latency = SimDur::from_nanos_f64(
            self.noise
                .perturb(bytes as f64 * node.io_read_ns_per_byte * warmth),
        );
        let completion = self.now + latency;
        let id = self.next_prefetch;
        self.next_prefetch += 1;
        self.prefetches.insert(id, completion);
        // The prefetch buffer stays staged until the matching wait
        // consumes it, so the memory track shows buffers held across
        // the compute/IO overlap window.
        self.mem.stage(bytes);
        self.record_mem_level(start);
        self.record(
            start,
            EventKind::PrefetchIssue {
                var,
                bytes,
                latency_ns: latency.as_nanos(),
            },
        );
        Ok(Prefetch { id, var, data })
    }

    /// Block until a previously issued prefetch completes; returns the
    /// data and the duration actually spent stalled.
    pub fn prefetch_wait(&mut self, p: Prefetch) -> (Vec<f64>, SimDur) {
        let start = self.now;
        let completion = self
            .prefetches
            .remove(&p.id)
            .expect("prefetch handle is unique and unconsumed");
        let blocked = completion.saturating_since(self.now);
        self.now = self.now.max(completion);
        self.record(
            start,
            EventKind::PrefetchWait {
                var: p.var,
                blocked_ns: blocked.as_nanos(),
            },
        );
        self.mem.unstage((p.data.len() * 8) as u64);
        self.record_mem_level(self.now);
        (p.data, blocked)
    }

    /// Fire this rank's scheduled crash-stop failure: record the
    /// [`FaultKind::Crash`] event, publish the death to the kernel's
    /// dead-set (waking parked peers so their waits resolve to
    /// [`SimError::PeerDead`]), and hand the caller the terminal
    /// [`SimError::Crashed`] it must propagate.
    fn execute_crash(&mut self, spec: CrashSpec) -> SimError {
        self.crashed = true;
        let at = self.now;
        self.record_span(
            at,
            at,
            EventKind::Fault {
                fault: FaultKind::Crash {
                    rank: self.rank,
                    at_iteration: spec.at_iteration,
                    at_ns: at.as_nanos(),
                },
            },
        );
        {
            let mut st = self.kernel.lock();
            st.dead.insert(self.rank, at);
        }
        self.kernel.wake_all();
        SimError::Crashed {
            rank: self.rank,
            at_ns: at.as_nanos(),
        }
    }

    /// Check the iteration-triggered crash schedule at the start of
    /// iteration `it` (0-based); if this rank is scheduled to die here,
    /// it dies now and the returned [`SimError::Crashed`] must be
    /// propagated (the MPI layer calls this from `begin_iteration`).
    pub fn crash_check_iteration(&mut self, it: u32) -> SimResult<()> {
        if self.crashed {
            return Ok(());
        }
        if let Some(c) = self.faults.scheduled_crash() {
            if c.at_iteration == Some(it) {
                return Err(self.execute_crash(c));
            }
        }
        Ok(())
    }

    /// Record that the application is entering iteration `it`
    /// (0-based); the MPI layer calls this from `begin_iteration`.
    /// Iteration-triggered [`crate::fault::DegradeSpec`]s key off the
    /// most recent value.
    pub fn note_iteration(&mut self, it: u32) {
        self.iteration = it;
    }

    /// Check the time-triggered crash schedule against the current
    /// virtual clock; called by the MPI layer at operation entry so a
    /// crash scheduled "at instant T" fires at the first operation at
    /// or after T.
    pub fn crash_check_time(&mut self) -> SimResult<()> {
        if self.crashed {
            return Ok(());
        }
        if let Some(c) = self.faults.scheduled_crash() {
            if let Some(t) = c.at_time_ns {
                if self.now.as_nanos() >= t {
                    return Err(self.execute_crash(c));
                }
            }
        }
        Ok(())
    }

    /// Draw `hop`'s costs from this rank's streams: a send's `o_s`, its
    /// transfer and its resend count, a receive's `o_r`, in that order.
    fn draw(&mut self, mut hop: Hop) -> Hop {
        let net = &self.kernel.spec.net;
        match hop.kind {
            HopKind::Send => {
                hop.overhead = SimDur::from_nanos_f64(self.noise.perturb(net.send_overhead_ns));
                let transfer_ns = net.transfer_ns(hop.bytes);
                hop.transfer = SimDur::from_nanos_f64(self.noise.perturb(transfer_ns));
                hop.resends = self.faults.msg_resends();
            }
            HopKind::Recv => {
                hop.overhead = SimDur::from_nanos_f64(self.noise.perturb(net.recv_overhead_ns));
            }
        }
        hop
    }

    /// Charge a drawn `hop` to this rank's clock and trace it; returns
    /// it charged (a send with its arrival at the peer).
    fn charge_traced(&mut self, mut hop: Hop) -> Hop {
        let start = self.now;
        hop.charge(&mut self.now);
        let Hop {
            peer, tag, bytes, ..
        } = hop;
        match hop.kind {
            HopKind::Send => {
                if hop.resends > 0 {
                    let resends = hop.resends;
                    let fault = FaultKind::MessageResend {
                        to: peer,
                        tag,
                        resends,
                    };
                    self.record_span(start, start, EventKind::Fault { fault });
                }
                self.record(
                    start,
                    EventKind::Send {
                        to: peer,
                        tag,
                        bytes,
                    },
                );
            }
            HopKind::Recv => {
                let blocked_ns = hop.arrival.saturating_since(start).as_nanos();
                let kind = EventKind::Recv {
                    from: peer,
                    tag,
                    bytes,
                    blocked_ns,
                };
                self.record(start, kind);
            }
        }
        hop
    }

    /// Send `payload` to rank `to` with `tag`. Charges the sender-side
    /// overhead; the message arrives at
    /// `clock_after_overhead + α + bytes·β`. Buffered: never blocks.
    pub fn send(&mut self, to: usize, tag: u32, payload: Payload) -> SimResult<()> {
        if to >= self.size() {
            return Err(SimError::InvalidRank {
                rank: to,
                size: self.size(),
            });
        }
        let hop = self.draw(Hop::new(HopKind::Send, to, tag, payload.len() as u64));
        let hop = self.charge_traced(hop);
        let dest_parked_on_this = {
            let mut st = self.kernel.lock();
            // Sends to a crashed peer succeed as silent no-ops: the
            // sender still pays its local overhead (the NIC does not
            // know the peer is gone) but nothing is enqueued, so
            // fault-tolerant collectives can keep their send pattern
            // without corrupting mailboxes nobody will drain.
            if !st.dead.contains_key(&to) {
                st.mailboxes
                    .entry((self.rank, to, tag))
                    .or_default()
                    .push_back(InFlight {
                        payload,
                        arrival: hop.arrival,
                        bytes: hop.bytes,
                    });
            }
            st.waiting.get(&to) == Some(&(self.rank, tag))
        };
        if dest_parked_on_this {
            self.kernel.cvars[to].notify_one();
        }
        Ok(())
    }

    /// Receive the next message from rank `from` with `tag`. Blocks the
    /// host thread until the matching send has been posted; advances the
    /// virtual clock to `max(clock, arrival) + o_r`. Under
    /// [`run_in_rank_order`] nothing can be posted while this rank runs,
    /// so a receive that would block is [`SimError::Deadlock`] instead.
    pub fn recv(&mut self, from: usize, tag: u32) -> SimResult<Payload> {
        if from >= self.size() {
            return Err(SimError::InvalidRank {
                rank: from,
                size: self.size(),
            });
        }
        let start = self.now;
        let msg = {
            let mut st = self.kernel.lock();
            loop {
                if let Some(q) = st.mailboxes.get_mut(&(from, self.rank, tag)) {
                    if let Some(m) = q.pop_front() {
                        break m;
                    }
                }
                // Messages posted before the peer died still deliver
                // (checked above); with the mailbox empty, a wait on a
                // crashed peer resolves through the failure detector
                // instead of parking forever.
                if let Some(&died) = st.dead.get(&from) {
                    drop(st);
                    let detect = died + SimDur::from_nanos(self.faults.crash_detect_delay_ns());
                    self.now = self.now.max(detect);
                    self.record(
                        start,
                        EventKind::Fault {
                            fault: FaultKind::DeadPeerDetected { peer: from },
                        },
                    );
                    return Err(SimError::PeerDead {
                        rank: self.rank,
                        peer: from,
                        at_ns: self.now.as_nanos(),
                    });
                }
                if let Some(d) = &st.deadlocked {
                    return Err(SimError::Deadlock { detail: d.clone() });
                }
                if self.kernel.rank_ordered {
                    return Err(SimError::Deadlock {
                        detail: format!(
                            "rank {} waiting on ({from}, tag {tag}) in a rank-ordered run: \
                             nothing is posted and no other rank can run to send it",
                            self.rank
                        ),
                    });
                }
                st.blocked += 1;
                st.waiting.insert(self.rank, (from, tag));
                if st.blocked == st.active && !st.any_satisfiable() {
                    let detail = format!(
                        "all {} live ranks blocked; rank {} waiting on ({from}, tag {tag})",
                        st.active, self.rank
                    );
                    SimKernel::declare_deadlock(&mut st, detail.clone());
                    st.blocked -= 1;
                    st.waiting.remove(&self.rank);
                    self.kernel.wake_all();
                    return Err(SimError::Deadlock { detail });
                }
                st = self.park(st);
                st.blocked -= 1;
                st.waiting.remove(&self.rank);
            }
        };
        let hop = self.draw(Hop::new(HopKind::Recv, from, tag, msg.bytes));
        self.charge_traced(Hop {
            arrival: msg.arrival,
            ..hop
        });
        Ok(msg.payload)
    }

    /// Park on this rank's condvar until a peer wakes it. Only the
    /// kernel's state ends a wait: a message, a death, a settled
    /// rendezvous or a declared deadlock, never the host clock.
    fn park<'k>(&'k self, st: MutexGuard<'k, KernelState>) -> MutexGuard<'k, KernelState> {
        self.kernel.cvars[self.rank]
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Take part in a collective over every rank as one rendezvous
    /// instead of its messages. `hops` are the messages this rank would
    /// make, in the order it would make them; their costs are drawn here,
    /// in that order, exactly as [`RankCtx::send`] and [`RankCtx::recv`]
    /// would draw them. The rank deposits them with its clock and
    /// `values` and parks once. The last rank to arrive runs its `settle`
    /// over every rank's deposit — it must charge every hop with
    /// [`Hop::charge`], set every receive's `arrival`, and leave in each
    /// deposit's `values` what that rank returns with — and wakes the
    /// others. Each rank then charges its own hops at the settled times,
    /// traces them as `send` and `recv` would and reports each to
    /// `on_hop` with its start and end, and returns with its settled
    /// values in `values`.
    ///
    /// Every rank must join with the same `settle`. No mailbox is
    /// touched, and no peer may crash: a collective that must survive
    /// one sends its messages. A rendezvous that some rank never joins
    /// is a [`SimError::Deadlock`] once every live rank is blocked.
    pub fn rendezvous(
        &mut self,
        hops: impl IntoIterator<Item = Hop>,
        values: &mut [f64],
        settle: impl FnOnce(&mut [Deposit]),
        mut on_hop: impl FnMut(&Hop, SimTime, SimTime),
    ) -> SimResult<()> {
        let mut drawn = std::mem::take(&mut self.hops);
        drawn.clear();
        for hop in hops {
            let hop = self.draw(hop);
            drawn.push(hop);
        }
        let size = self.size();
        let mut st = self.kernel.lock();
        if let Some(d) = &st.deadlocked {
            return Err(SimError::Deadlock { detail: d.clone() });
        }
        if self.kernel.rank_ordered && size > 1 {
            return Err(SimError::Deadlock {
                detail: format!(
                    "rank {} in a collective in a rank-ordered run: \
                     the ranks after it cannot run to join",
                    self.rank
                ),
            });
        }
        // The slot keeps this rank's hops and hands back the buffer it
        // held, so no collective allocates once warm.
        let slot = &mut st.deposits[self.rank];
        slot.clock = self.now;
        std::mem::swap(&mut slot.hops, &mut drawn);
        slot.values.clear();
        slot.values.extend_from_slice(values);
        st.arrived += 1;
        if st.arrived == size {
            settle(&mut st.deposits);
            st.arrived = 0;
            st.settled += 1;
            // The others count as unblocked now, not when they next
            // take the lock: this rank may park again before they do.
            st.blocked -= size - 1;
            st.deposits[self.rank].hand_back(&mut drawn, values);
            drop(st);
            for (rank, cvar) in self.kernel.cvars.iter().enumerate() {
                if rank != self.rank {
                    cvar.notify_one();
                }
            }
        } else {
            let parked_at = st.settled;
            st.blocked += 1;
            if st.blocked == st.active && !st.any_satisfiable() {
                let detail = format!(
                    "all {} live ranks blocked; rank {} waiting in a collective \
                     that {} of {size} ranks have joined",
                    st.active, self.rank, st.arrived
                );
                SimKernel::declare_deadlock(&mut st, detail.clone());
                st.blocked -= 1;
                st.arrived -= 1;
                drop(st);
                self.kernel.wake_all();
                return Err(SimError::Deadlock { detail });
            }
            loop {
                st = self.park(st);
                if st.settled != parked_at {
                    st.deposits[self.rank].hand_back(&mut drawn, values);
                    break;
                }
                if let Some(d) = &st.deadlocked {
                    let detail = d.clone();
                    st.blocked -= 1;
                    st.arrived -= 1;
                    return Err(SimError::Deadlock { detail });
                }
            }
            drop(st);
        }
        for &hop in &drawn {
            let start = self.now;
            let hop = self.charge_traced(hop);
            on_hop(&hop, start, self.now);
        }
        self.hops = drawn;
        Ok(())
    }

    /// Mark this rank finished and extract its trace. Must be the last
    /// call on the context.
    pub fn finish(mut self) -> RankTrace {
        self.mark_finished();
        RankTrace {
            rank: self.rank,
            events: self.events.take().unwrap_or_default(),
            finish: self.now,
        }
    }

    fn mark_finished(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut st = self.kernel.lock();
        st.active -= 1;
        // A finish posts nothing, so the only parked rank it can release
        // is one it leaves deadlocked.
        if st.active > 0 && st.blocked == st.active && !st.any_satisfiable() {
            let detail = format!(
                "rank {} finished leaving all {} remaining ranks blocked",
                self.rank, st.active
            );
            SimKernel::declare_deadlock(&mut st, detail);
            drop(st);
            self.kernel.wake_all();
        }
    }
}

impl Drop for RankCtx {
    fn drop(&mut self) {
        // A context dropped by a panic unwinding must still release its
        // slot so sibling ranks detect the dead peer instead of hanging.
        self.mark_finished();
    }
}

/// Outcome of running a program over the whole cluster.
#[derive(Debug)]
pub struct ClusterRun<T> {
    /// Per-rank application results, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank traces (empty event lists when tracing was off).
    pub traces: Vec<RankTrace>,
}

impl<T> ClusterRun<T> {
    /// The simulated makespan: the latest finishing rank's clock.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.traces
            .iter()
            .map(|t| t.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// What one rank's body left behind: its value and trace, its error, or
/// the payload of its panic.
type RankOutcome<T> = std::thread::Result<SimResult<(T, RankTrace)>>;

/// Run `f` once per rank, each on its own worker thread, against a fresh
/// kernel for `spec`. Returns per-rank results and traces.
///
/// Any program may run this way: a receive parks its thread until the
/// matching send is posted. A program in which every receive takes what
/// a lower rank (or the receiver itself) has already sent needs no
/// threads; [`run_in_rank_order`] runs it to the same results, traces
/// and errors on the caller's thread.
///
/// The workers are parked between runs and reused, so a run spawns a
/// thread only when more ranks are running at once, process wide, than
/// ever before. The call returns, or unwinds, only after every rank
/// body it handed out has finished.
///
/// Panics in rank bodies are converted to a panic of the caller with the
/// offending rank identified; simulated deadlocks surface as `Err`.
pub fn run_cluster<T, F>(spec: &ClusterSpec, tracing: bool, f: F) -> SimResult<ClusterRun<T>>
where
    T: Send,
    F: Fn(&mut RankCtx) -> SimResult<T> + Sync,
{
    let kernel = SimKernel::new(spec.clone())?;
    let (kernel, f) = (&kernel, &f);
    let mut outcomes: Vec<Option<RankOutcome<T>>> = (0..spec.len()).map(|_| None).collect();
    {
        let submitted = Submitted::default();
        for (rank, outcome) in outcomes.iter_mut().enumerate() {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                *outcome = Some(catch_unwind(AssertUnwindSafe(|| {
                    run_rank(kernel, rank, tracing, f)
                })));
            });
            // SAFETY: only the lifetime changes, which is how
            // `std::thread::scope` hands a borrowing closure to a thread,
            // and its argument holds here. The job borrows `kernel`, `f`
            // and its own `outcome` slot, each of which outlives
            // `submitted`; `submitted` is a local this function never
            // forgets or moves out, so its drop runs on return and on
            // unwind alike, and it blocks until every job handed to a
            // worker has run and been dropped (a worker counts a job
            // done only after that, and then touches nothing of it).
            let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            submitted.hand_to_worker(job);
        }
    }
    collect_run(
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every handed-out rank ran before the wait ended"))
            .collect(),
    )
}

/// A rank body boxed for a worker, its borrows' lifetime erased.
type Job = Box<dyn FnOnce() + Send>;

/// A parked worker thread and the slot its next job arrives in.
struct Worker {
    next: Mutex<Option<(Job, Arc<Latch>)>>,
    wake: Condvar,
}

/// Workers parked between runs, the most recently parked on top. It
/// holds at most the peak number of ranks that ever ran at once: a
/// worker is spawned only when none is parked, and each parks again
/// before the run it served can return.
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

/// How many of one run's jobs are still out on workers.
#[derive(Default)]
struct Latch {
    left: Mutex<usize>,
    done: Condvar,
}

/// The jobs one [`run_cluster`] call has handed out. Dropping it waits
/// until every one has finished, so the call cannot return or unwind
/// while a worker still holds its borrows.
#[derive(Default)]
struct Submitted(Arc<Latch>);

impl Submitted {
    /// Run `job` on a worker of its own — a parked one, or a new one if
    /// none is parked — so a rank that blocks never queues behind
    /// another.
    fn hand_to_worker(&self, job: Job) {
        let parked = unpoisoned(&IDLE).pop();
        let worker = parked.unwrap_or_else(|| {
            let worker = Arc::new(Worker {
                next: Mutex::new(None),
                wake: Condvar::new(),
            });
            let served = Arc::clone(&worker);
            std::thread::spawn(move || serve(&served));
            worker
        });
        *unpoisoned(&self.0.left) += 1;
        *unpoisoned(&worker.next) = Some((job, Arc::clone(&self.0)));
        worker.wake.notify_one();
    }
}

impl Drop for Submitted {
    fn drop(&mut self) {
        let left = unpoisoned(&self.0.left);
        let _all_done = self.0.done.wait_while(left, |left| *left > 0);
    }
}

/// A worker's life: take a job, run it, park again, and only then count
/// the job done, so the run that follows finds every worker parked. A
/// worker is never joined: its job catches the rank body's panic, so
/// nothing ends the loop but the process.
fn serve(worker: &Arc<Worker>) {
    loop {
        let (job, latch) = worker
            .wake
            .wait_while(unpoisoned(&worker.next), |next| next.is_none())
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("woken with a job");
        job();
        unpoisoned(&IDLE).push(Arc::clone(worker));
        let mut left = unpoisoned(&latch.left);
        *left -= 1;
        if *left == 0 {
            latch.done.notify_one();
        }
    }
}

/// Lock a pool mutex. Each update under these locks is one assignment,
/// push, pop or count, so a poisoned lock still guards valid data.
fn unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` once per rank on the caller's thread, rank 0 to completion,
/// then rank 1, and so on, against a fresh kernel for `spec`: what
/// [`run_cluster`] does, without its threads, for **rank-ordered**
/// programs — those in which a rank receives only what a lower rank, or
/// the rank itself, has already sent (sends may go anywhere).
///
/// For such a program results, virtual clocks, noise streams, injected
/// faults ([`SimError::PeerDead`] once a crashed peer's delivered
/// messages are drained included), traces, errors and the re-raised
/// panic are [`run_cluster`]'s to the bit. For any other program the
/// receive that would have had to wait fails at once with
/// [`SimError::Deadlock`] naming the rank, source and tag: with one rank
/// running at a time nobody could ever send what it waits for, which is
/// the exact condition, and nothing waits.
pub fn run_in_rank_order<T, F>(spec: &ClusterSpec, tracing: bool, f: F) -> SimResult<ClusterRun<T>>
where
    F: Fn(&mut RankCtx) -> SimResult<T>,
{
    let kernel = SimKernel::build(spec.clone(), true)?;
    let outcomes = (0..spec.len())
        .map(|rank| {
            // As a rank's thread would: a panicking body drops its
            // context, later ranks still run, the panic is re-raised.
            catch_unwind(AssertUnwindSafe(|| run_rank(&kernel, rank, tracing, &f)))
        })
        .collect();
    collect_run(outcomes)
}

fn run_rank<T, F>(
    kernel: &Arc<SimKernel>,
    rank: usize,
    tracing: bool,
    f: &F,
) -> SimResult<(T, RankTrace)>
where
    F: Fn(&mut RankCtx) -> SimResult<T>,
{
    let mut ctx = kernel.rank_ctx(rank, tracing)?;
    let value = f(&mut ctx)?;
    Ok((value, ctx.finish()))
}

/// Assemble the run in rank order: the lowest panicked rank's panic is
/// re-raised with the rank named, else the lowest failed rank's error is
/// the run's.
fn collect_run<T>(outcomes: Vec<RankOutcome<T>>) -> SimResult<ClusterRun<T>> {
    let settled: Vec<SimResult<(T, RankTrace)>> = outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, outcome)| {
            outcome.unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".into());
                panic!("simulated rank {rank} panicked: {msg}");
            })
        })
        .collect();
    let ranks = settled.into_iter().collect::<SimResult<Vec<_>>>()?;
    let (results, traces) = ranks.into_iter().unzip();
    Ok(ClusterRun { results, traces })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn quiet_spec(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    #[test]
    fn compute_advances_clock_by_cost_model() {
        let spec = quiet_spec(1);
        let expect = 100.0 * spec.compute_ns_per_unit;
        let run = run_cluster(&spec, false, |ctx| {
            ctx.compute(100.0, u64::MAX); // never fits cache
            Ok(ctx.now().as_nanos())
        })
        .unwrap();
        assert_eq!(run.results[0] as f64, expect);
    }

    #[test]
    fn cache_fit_speeds_up_compute() {
        let spec = quiet_spec(1);
        let run = run_cluster(&spec, false, |ctx| {
            let slow = ctx.compute(100.0, u64::MAX);
            let fast = ctx.compute(100.0, 1);
            Ok((slow, fast))
        })
        .unwrap();
        let (slow, fast) = run.results[0];
        assert!(fast < slow);
        let ratio = fast.as_nanos_f64() / slow.as_nanos_f64();
        assert!((ratio - spec.nodes[0].cache_speedup).abs() < 1e-6);
    }

    #[test]
    fn cpu_power_divides_compute_time() {
        let mut spec = quiet_spec(2);
        spec.nodes[1].cpu_power = 2.0;
        let run = run_cluster(&spec, false, |ctx| {
            Ok(ctx.compute(1000.0, u64::MAX).as_nanos_f64())
        })
        .unwrap();
        assert!((run.results[0] / run.results[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn message_roundtrip_carries_payload_and_time() {
        let spec = quiet_spec(2);
        let run = run_cluster(&spec, true, |ctx| {
            if ctx.rank() == 0 {
                ctx.compute(500.0, u64::MAX);
                ctx.send(1, 7, vec![1, 2, 3, 4])?;
                Ok(vec![])
            } else {
                ctx.recv(0, 7)
            }
        })
        .unwrap();
        assert_eq!(run.results[1], vec![1, 2, 3, 4]);
        // Receiver clock >= sender compute + o_s + transfer + o_r.
        let net = &spec.net;
        let min_ns = 500.0 * spec.compute_ns_per_unit
            + net.send_overhead_ns
            + net.transfer_ns(4)
            + net.recv_overhead_ns;
        assert!(run.traces[1].finish.as_nanos() as f64 >= min_ns - 1.0);
    }

    #[test]
    fn fifo_ordering_per_channel() {
        let spec = quiet_spec(2);
        let run = run_cluster(&spec, false, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10u8 {
                    ctx.send(1, 0, vec![i])?;
                }
                Ok(vec![])
            } else {
                let mut got = Vec::new();
                for _ in 0..10 {
                    got.push(ctx.recv(0, 0)?[0]);
                }
                Ok(got)
            }
        })
        .unwrap();
        assert_eq!(run.results[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn tags_demultiplex() {
        let spec = quiet_spec(2);
        let run = run_cluster(&spec, false, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![10])?;
                ctx.send(1, 2, vec![20])?;
                Ok((0, 0))
            } else {
                // Receive in the opposite order of sending.
                let b = ctx.recv(0, 2)?[0];
                let a = ctx.recv(0, 1)?[0];
                Ok((a, b))
            }
        })
        .unwrap();
        assert_eq!(run.results[1], (10, 20));
    }

    #[test]
    fn deadlock_detected_not_hung() {
        let spec = quiet_spec(2);
        let err = run_cluster(&spec, false, |ctx| {
            // Both ranks receive first: classic deadlock.
            let peer = 1 - ctx.rank();
            ctx.recv(peer, 0)?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn finished_sender_leaves_receiver_deadlocked() {
        let spec = quiet_spec(2);
        let err = run_cluster(&spec, false, |ctx| {
            if ctx.rank() == 0 {
                Ok(()) // exits immediately without sending
            } else {
                ctx.recv(0, 0)?;
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn disk_roundtrip_charges_time() {
        let spec = quiet_spec(1);
        let run = run_cluster(&spec, true, |ctx| {
            ctx.disk.create(1, 100);
            ctx.disk_write(1, 0, &[3.5; 100])?;
            let mut buf = [0.0; 100];
            ctx.disk_read(1, 0, &mut buf)?;
            assert_eq!(buf[99], 3.5);
            Ok(ctx.now().as_nanos())
        })
        .unwrap();
        let node = &spec.nodes[0];
        let expect = node.io_write_seek_ns
            + 800.0 * node.io_write_ns_per_byte
            + node.io_read_seek_ns
            + 800.0 * node.io_read_ns_per_byte;
        assert_eq!(run.results[0] as f64, expect);
    }

    #[test]
    fn prefetch_overlaps_computation() {
        let spec = quiet_spec(1);
        let run = run_cluster(&spec, false, |ctx| {
            ctx.disk.create(1, 1000);
            // Sync baseline.
            let mut buf = vec![0.0; 1000];
            let sync_cost = ctx.disk_read(1, 0, &mut buf)?;
            // Prefetch with fully covering computation.
            let before = ctx.now();
            let p = ctx.prefetch_issue(1, 0, 1000)?;
            ctx.compute(1e7, u64::MAX); // long overlap
            let (_, blocked) = ctx.prefetch_wait(p);
            let async_cost = ctx.now() - before;
            Ok((sync_cost, async_cost, blocked))
        })
        .unwrap();
        let (sync_cost, async_cost, blocked) = run.results[0];
        assert_eq!(blocked, SimDur::ZERO, "long compute masks the latency");
        // The async path should cost roughly the compute + seek only,
        // i.e. strictly less than compute + full sync read.
        assert!(
            async_cost.as_nanos_f64() < 1e7 * spec.compute_ns_per_unit + sync_cost.as_nanos_f64()
        );
    }

    #[test]
    fn prefetch_without_overlap_costs_full_latency() {
        let spec = quiet_spec(1);
        let run = run_cluster(&spec, false, |ctx| {
            ctx.disk.create(1, 1000);
            let p = ctx.prefetch_issue(1, 0, 1000)?;
            let (_, blocked) = ctx.prefetch_wait(p);
            Ok(blocked)
        })
        .unwrap();
        let node = &spec.nodes[0];
        let expect = 8000.0 * node.io_read_ns_per_byte;
        assert_eq!(run.results[0].as_nanos_f64(), expect);
    }

    #[test]
    fn determinism_across_runs() {
        let mut spec = ClusterSpec::homogeneous(4);
        spec.noise.amplitude = 0.05;
        let body = |ctx: &mut RankCtx| {
            ctx.compute(123.0, u64::MAX);
            let peer = ctx.rank() ^ 1;
            ctx.send(peer, 0, vec![ctx.rank() as u8])?;
            ctx.recv(peer, 0)?;
            Ok(ctx.now())
        };
        let a = run_cluster(&spec, false, body).unwrap();
        let b = run_cluster(&spec, false, body).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn makespan_is_max_rank_finish() {
        let spec = quiet_spec(3);
        let run = run_cluster(&spec, false, |ctx| {
            ctx.compute(100.0 * (ctx.rank() as f64 + 1.0), u64::MAX);
            Ok(())
        })
        .unwrap();
        assert_eq!(run.makespan(), run.traces[2].finish);
    }

    #[test]
    fn disk_fault_surfaces_transient_io_not_panic() {
        let mut spec = quiet_spec(1);
        spec.faults.disk_read_fault_rate = 0.999;
        let err = run_cluster(&spec, true, |ctx| {
            ctx.disk.create(1, 16);
            let mut buf = [0.0; 16];
            // With a ~1.0 fault rate the first read attempt fails.
            ctx.disk_read(1, 0, &mut buf)?;
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::TransientIo {
                    rank: 0,
                    var: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn failed_disk_attempt_charges_time_and_records_fault() {
        let mut spec = quiet_spec(1);
        spec.faults.disk_read_fault_rate = 0.999;
        let run = run_cluster(&spec, true, |ctx| {
            ctx.disk.create(1, 16);
            let mut buf = [0.0; 16];
            // Swallow the failure so the rank still finishes cleanly.
            let res = ctx.disk_read(1, 0, &mut buf);
            assert!(res.is_err());
            Ok(ctx.now().as_nanos())
        })
        .unwrap();
        let node_seek = ClusterSpec::homogeneous(1).nodes[0].io_read_seek_ns;
        assert_eq!(run.results[0] as f64, node_seek, "wasted seek charged");
        assert_eq!(run.traces[0].fault_count(), 1);
        assert!(matches!(
            run.traces[0].faults()[0],
            FaultKind::ReadFault { var: 1, attempt: 1 }
        ));
    }

    /// A time-triggered degrade window: a compute that starts inside
    /// `[from_ns, until_ns)` costs `factor` times as much; every other
    /// compute, and the other rank, is untouched.
    #[test]
    fn slowdown_windows_inflate_compute_time() {
        let clean = quiet_spec(2);
        let body = |ctx: &mut RankCtx| {
            let mut starts_and_costs = Vec::new();
            for _ in 0..10 {
                let start = ctx.now().as_nanos();
                starts_and_costs.push((start, ctx.compute(1_000.0, u64::MAX).as_nanos()));
            }
            Ok(starts_and_costs)
        };
        let a = run_cluster(&clean, true, body).unwrap();
        let d = a.results[0][0].1;
        let (from, until) = (d * 5 / 2, d * 8);
        let mut slow = clean.clone();
        slow.faults.degrades = vec![crate::fault::DegradeSpec::at_time(0, from, 4.0)
            .recovering(crate::fault::RecoverSpec::at_time(until))];
        let b = run_cluster(&slow, true, body).unwrap();
        let mut inside = 0;
        for (&(start, cost), &(_, clean_cost)) in b.results[0].iter().zip(&a.results[0]) {
            let want = if (from..until).contains(&start) {
                inside += 1;
                4.0
            } else {
                1.0
            };
            let ratio = cost as f64 / clean_cost as f64;
            assert!(
                (ratio - want).abs() < 0.01,
                "compute at {start} ns: ratio {ratio}, want {want}"
            );
        }
        assert_eq!(inside, 2, "the window covers the 4th and 5th computes");
        assert_eq!(b.results[1], a.results[1], "rank 1 unaffected");
        let faults = b.traces[0].faults();
        assert_eq!(
            faults,
            vec![FaultKind::Degrade { factor: 4.0 }, FaultKind::DegradeEnd],
            "exactly one activation and one recovery transition"
        );
        assert_eq!(a.traces[0].fault_count(), 0, "clean run has no faults");
        assert_eq!(b.traces[1].fault_count(), 0);
    }

    /// A degrade past the 64-bit transition mask would slow its rank
    /// without ever being traced, so a spec with more than 64 is
    /// refused before anything runs.
    #[test]
    fn a_degrade_past_the_transition_mask_is_refused() {
        use crate::fault::{DegradeSpec, RecoverSpec};
        let body = |ctx: &mut RankCtx| {
            let mut per_iter = Vec::new();
            for it in 0..6u32 {
                ctx.note_iteration(it);
                per_iter.push(ctx.compute(1_000.0, u64::MAX).as_nanos());
            }
            Ok(per_iter)
        };
        // 63 degrades on rank 1 that never start, then rank 0's: the
        // 64th entry takes the mask's last bit and is traced.
        let mut spec = quiet_spec(2);
        spec.faults.degrades = vec![DegradeSpec::at_iteration(1, u32::MAX, 2.0); 63];
        spec.faults
            .degrades
            .push(DegradeSpec::at_iteration(0, 2, 4.0).recovering(RecoverSpec::at_iteration(4)));
        let run = run_cluster(&spec, true, body).unwrap();
        assert_eq!(run.results[0][2], 4 * run.results[0][0]);
        assert_eq!(
            run.traces[0].faults(),
            vec![FaultKind::Degrade { factor: 4.0 }, FaultKind::DegradeEnd]
        );
        // One more ahead of it would push rank 0's to index 64.
        spec.faults
            .degrades
            .insert(0, DegradeSpec::at_iteration(1, u32::MAX, 2.0));
        assert!(matches!(
            run_cluster(&spec, true, body),
            Err(SimError::InvalidConfig(msg)) if msg.contains("65 degrades")
        ));
    }

    #[test]
    fn degrade_scales_compute_and_records_transitions() {
        let clean = quiet_spec(2);
        let mut degraded = clean.clone();
        degraded.faults.degrades = vec![crate::fault::DegradeSpec::at_iteration(0, 2, 4.0)
            .recovering(crate::fault::RecoverSpec::at_iteration(4))];
        let body = |ctx: &mut RankCtx| {
            let mut per_iter = Vec::new();
            for it in 0..6u32 {
                ctx.note_iteration(it);
                per_iter.push(ctx.compute(1_000.0, u64::MAX).as_nanos());
            }
            Ok(per_iter)
        };
        let a = run_cluster(&clean, true, body).unwrap();
        let b = run_cluster(&degraded, true, body).unwrap();
        // Iterations 2..4 on rank 0 cost 4x; everything else is untouched.
        for it in 0..6 {
            let ratio = b.results[0][it] as f64 / a.results[0][it] as f64;
            let want = if (2..4).contains(&it) { 4.0 } else { 1.0 };
            assert!(
                (ratio - want).abs() < 0.01,
                "iteration {it}: ratio {ratio}, want {want}"
            );
            assert_eq!(b.results[1][it], a.results[1][it], "rank 1 unaffected");
        }
        let faults = b.traces[0].faults();
        assert!(
            faults
                .iter()
                .any(|f| matches!(f, FaultKind::Degrade { factor } if *factor == 4.0)),
            "activation must be traced once"
        );
        assert!(
            faults.iter().any(|f| matches!(f, FaultKind::DegradeEnd)),
            "recovery must be traced"
        );
        assert_eq!(
            faults
                .iter()
                .filter(|f| matches!(f, FaultKind::Degrade { .. } | FaultKind::DegradeEnd))
                .count(),
            2,
            "exactly one activation and one recovery transition"
        );
    }

    #[test]
    fn message_resends_delay_arrival_and_are_traced() {
        let clean = quiet_spec(2);
        let mut lossy = clean.clone();
        lossy.faults.msg_resend_rate = 0.6;
        let body = |ctx: &mut RankCtx| {
            if ctx.rank() == 0 {
                for _ in 0..20 {
                    ctx.send(1, 0, vec![0u8; 1024])?;
                }
            } else {
                for _ in 0..20 {
                    ctx.recv(0, 0)?;
                }
            }
            Ok(())
        };
        let a = run_cluster(&clean, true, body).unwrap();
        let b = run_cluster(&lossy, true, body).unwrap();
        assert!(b.makespan() > a.makespan(), "resends must delay delivery");
        assert!(
            b.traces[0]
                .faults()
                .iter()
                .any(|f| matches!(f, FaultKind::MessageResend { to: 1, .. })),
            "resends must be traced on the sender"
        );
    }

    #[test]
    fn panicking_rank_is_reported_and_its_blocked_sibling_released() {
        let spec = quiet_spec(2);
        let sibling = Mutex::new(None);
        let start = Instant::now();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cluster(&spec, false, |ctx| {
                if ctx.rank() == 0 {
                    *sibling.lock().unwrap() = ctx.recv(1, 0).err();
                } else {
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("boom");
                }
                Ok(())
            })
        }))
        .expect_err("run_cluster re-raises the rank's panic");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the unwinding rank released its sibling"
        );
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("simulated rank 1 panicked: boom")
        );
        let err = sibling.into_inner().unwrap();
        assert!(matches!(err, Some(SimError::Deadlock { .. })), "{err:?}");
    }

    /// The inverse: the panic is re-raised while a sibling still runs,
    /// and `run_cluster` must not unwind out of the frame that sibling
    /// writes into until the sibling is done.
    #[test]
    fn panicking_rank_waits_for_its_sibling_before_unwinding() {
        let spec = quiet_spec(2);
        let late_write = Mutex::new(None);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cluster(&spec, false, |ctx| {
                if ctx.rank() == 0 {
                    panic!("boom");
                }
                std::thread::sleep(Duration::from_millis(50));
                *late_write.lock().unwrap() = Some(ctx.rank());
                Ok(())
            })
        }))
        .expect_err("run_cluster re-raises the rank's panic");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("simulated rank 0 panicked: boom")
        );
        assert_eq!(late_write.into_inner().unwrap(), Some(1));
    }

    #[test]
    fn poisoned_kernel_lock_is_recovered() {
        let kernel = SimKernel::new(quiet_spec(2)).unwrap();
        let poisoner = Arc::clone(&kernel);
        let _ = std::thread::spawn(move || {
            let _held = poisoner.state.lock().unwrap();
            panic!("poison the kernel lock");
        })
        .join();
        assert!(kernel.state.is_poisoned());
        // Every lock site still works, `RankCtx::drop` included.
        let mut a = kernel.rank_ctx(0, false).unwrap();
        let mut b = kernel.rank_ctx(1, false).unwrap();
        a.send(1, 0, vec![7]).unwrap();
        assert_eq!(b.recv(0, 0).unwrap(), vec![7]);
    }

    #[test]
    fn mem_levels_track_io_staging() {
        let spec = quiet_spec(1);
        let run = run_cluster(&spec, true, |ctx| {
            ctx.disk.create(1, 100);
            ctx.disk_write(1, 0, &[1.0; 100])?;
            let p = ctx.prefetch_issue(1, 0, 100)?;
            ctx.compute(10.0, u64::MAX);
            ctx.prefetch_wait(p);
            Ok(())
        })
        .unwrap();
        let t = &run.traces[0];
        assert!(t.is_monotone(), "mem samples keep the trace monotone");
        assert_eq!(t.peak_mem_bytes(), 800, "staging peak is one buffer");
        let levels: Vec<u64> = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MemLevel { in_use, .. } => Some(in_use),
                _ => None,
            })
            .collect();
        // Write: up then down; prefetch: up at issue, down after wait.
        assert_eq!(levels, vec![800, 0, 800, 0]);
        // The prefetch buffer stays staged across the overlapped
        // compute: the issue-time sample and the wait-time release
        // bracket the Compute event.
        let issue_idx = t
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::PrefetchIssue { .. }))
            .unwrap();
        let wait_idx = t
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::PrefetchWait { .. }))
            .unwrap();
        assert!(t.events[issue_idx..wait_idx]
            .iter()
            .any(|e| matches!(e.kind, EventKind::Compute { .. })));
    }

    #[test]
    fn crash_fires_and_survivor_detects_dead_peer() {
        use crate::fault::CrashSpec;
        let mut spec = quiet_spec(2);
        spec.faults.crashes = vec![CrashSpec::at_iteration(1, 1)];
        spec.faults.checkpoint_interval = 1;
        let delay = spec.faults.crash_detect_delay_ns;
        let run = run_cluster(&spec, true, |ctx| {
            if ctx.rank() == 1 {
                ctx.crash_check_iteration(0)?;
                ctx.compute(100.0, u64::MAX);
                match ctx.crash_check_iteration(1) {
                    Err(SimError::Crashed { rank: 1, at_ns }) => Ok(at_ns),
                    other => panic!("expected crash, got {other:?}"),
                }
            } else {
                match ctx.recv(1, 0) {
                    Err(SimError::PeerDead {
                        rank: 0,
                        peer: 1,
                        at_ns,
                    }) => Ok(at_ns),
                    other => panic!("expected PeerDead, got {other:?}"),
                }
            }
        })
        .unwrap();
        let detect = run.results[0];
        let death = run.results[1];
        assert!(death > 0, "crash happens after real compute");
        // The failure detector resolves the wait exactly at death +
        // configured latency (the survivor's own clock was still 0).
        assert_eq!(detect, death + delay);
        assert!(run.traces[1]
            .faults()
            .iter()
            .any(|f| matches!(f, FaultKind::Crash { rank: 1, .. })));
        assert!(run.traces[0]
            .faults()
            .iter()
            .any(|f| matches!(f, FaultKind::DeadPeerDetected { peer: 1 })));
    }

    #[test]
    fn in_flight_messages_from_crasher_still_deliver() {
        use crate::fault::CrashSpec;
        let mut spec = quiet_spec(2);
        spec.faults.crashes = vec![CrashSpec::at_iteration(1, 0)];
        spec.faults.checkpoint_interval = 1;
        let run = run_cluster(&spec, false, |ctx| {
            if ctx.rank() == 1 {
                ctx.send(0, 9, vec![42])?;
                let _ = ctx.crash_check_iteration(0).unwrap_err();
                Ok(0)
            } else {
                let first = ctx.recv(1, 9)?[0];
                assert_eq!(first, 42, "pre-crash message must deliver");
                match ctx.recv(1, 9) {
                    Err(SimError::PeerDead { peer: 1, .. }) => Ok(i32::from(first)),
                    other => panic!("expected PeerDead, got {other:?}"),
                }
            }
        })
        .unwrap();
        assert_eq!(run.results[0], 42);
    }

    #[test]
    fn send_to_dead_rank_is_silent_noop() {
        use crate::fault::CrashSpec;
        let mut spec = quiet_spec(3);
        spec.faults.crashes = vec![CrashSpec::at_iteration(1, 0)];
        spec.faults.checkpoint_interval = 1;
        let run = run_cluster(&spec, false, |ctx| {
            match ctx.rank() {
                1 => {
                    let _ = ctx.crash_check_iteration(0).unwrap_err();
                    Ok(0)
                }
                2 => {
                    // Learn of the death as the simulator reports it.
                    let err = ctx.recv(1, 5).unwrap_err();
                    assert!(matches!(err, SimError::PeerDead { peer: 1, .. }), "{err:?}");
                    let before = ctx.now();
                    ctx.send(1, 7, vec![9])?;
                    assert!(ctx.now() > before, "sender overhead still charged");
                    let enqueued = ctx
                        .kernel
                        .lock()
                        .mailboxes
                        .get(&(2, 1, 7))
                        .map_or(0, VecDeque::len);
                    assert_eq!(enqueued, 0, "nothing enqueued for the dead");
                    ctx.send(0, 8, vec![3])?;
                    Ok(1)
                }
                _ => {
                    ctx.recv(2, 8)?;
                    Ok(2)
                }
            }
        })
        .unwrap();
        assert_eq!(run.results, vec![2, 0, 1]);
    }

    #[test]
    fn crash_at_time_fires_at_first_op_past_instant() {
        use crate::fault::CrashSpec;
        let mut spec = quiet_spec(1);
        spec.faults.crashes = vec![CrashSpec::at_time(0, 1)];
        spec.faults.checkpoint_interval = 1;
        let run = run_cluster(&spec, false, |ctx| {
            ctx.crash_check_time()?; // clock still 0: no fire
            ctx.compute(100.0, u64::MAX);
            match ctx.crash_check_time() {
                Err(SimError::Crashed { rank: 0, at_ns }) => Ok(at_ns),
                other => panic!("expected crash, got {other:?}"),
            }
        });
        // Validation rejects killing the only rank; widen the cluster.
        assert!(run.is_err());
        let mut spec = quiet_spec(2);
        spec.faults.crashes = vec![CrashSpec::at_time(0, 1)];
        spec.faults.checkpoint_interval = 1;
        let run = run_cluster(&spec, false, |ctx| {
            if ctx.rank() == 0 {
                ctx.crash_check_time()?;
                ctx.compute(100.0, u64::MAX);
                match ctx.crash_check_time() {
                    Err(SimError::Crashed { rank: 0, at_ns }) => Ok(at_ns),
                    other => panic!("expected crash, got {other:?}"),
                }
            } else {
                Ok(0)
            }
        })
        .unwrap();
        assert!(run.results[0] >= 1);
    }

    #[test]
    fn traces_are_monotone() {
        let spec = quiet_spec(2);
        let run = run_cluster(&spec, true, |ctx| {
            ctx.disk.create(1, 10);
            ctx.compute(10.0, u64::MAX);
            ctx.disk_write(1, 0, &[1.0; 10])?;
            let peer = 1 - ctx.rank();
            ctx.send(peer, 0, vec![0])?;
            ctx.recv(peer, 0)?;
            Ok(())
        })
        .unwrap();
        for t in &run.traces {
            assert!(t.is_monotone(), "rank {} trace not monotone", t.rank);
        }
    }

    #[test]
    fn a_rank_gets_one_context() {
        let kernel = SimKernel::new(quiet_spec(2)).unwrap();
        let first = kernel.rank_ctx(0, false).unwrap();
        for _ in 0..2 {
            // Each extra context used to count `active` down again when
            // dropped: an underflow panic in debug, a liveness count of
            // `usize::MAX` in release.
            let again = kernel.rank_ctx(0, false).map(|_| ());
            assert!(
                matches!(&again, Err(SimError::InvalidConfig(m)) if m.contains("rank 0")),
                "{again:?}"
            );
        }
        drop(first);
        assert_eq!(kernel.lock().active, 1, "rank 1 is still to run");
        kernel.rank_ctx(1, false).unwrap();
        assert!(kernel.rank_ctx(2, false).is_err());
    }

    #[test]
    fn rank_ordered_receive_from_a_later_rank_is_an_immediate_deadlock() {
        let spec = quiet_spec(2);
        let start = Instant::now();
        let err = run_in_rank_order(&spec, false, |ctx| {
            if ctx.rank() == 0 {
                ctx.recv(1, 7)?;
            } else {
                ctx.send(0, 7, vec![1])?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the deadlock is reported at once, not waited for"
        );
        let SimError::Deadlock { detail } = &err else {
            panic!("expected a deadlock, got {err:?}");
        };
        assert!(
            detail.contains("rank 0") && detail.contains("(1, tag 7)"),
            "{detail}"
        );
    }

    /// One rank settles its own rendezvous at once; with more, the
    /// first rank of a rank-ordered run could only wait for ranks that
    /// cannot run, so its rendezvous is a deadlock at once.
    #[test]
    fn rank_ordered_rendezvous_settles_alone_and_deadlocks_otherwise() {
        let body = |ctx: &mut RankCtx| {
            let mut values = [1.0];
            let hops = [Hop::new(HopKind::Send, 0, 9, 8)];
            let settle = |deposits: &mut [Deposit]| {
                for d in deposits {
                    d.hops[0].charge(&mut d.clock);
                    d.values[0] += 1.0;
                }
            };
            let mut reported = Vec::new();
            ctx.rendezvous(hops, &mut values, settle, |hop, start, end| {
                reported.push((hop.kind, start, end));
            })?;
            Ok((values[0], reported, ctx.now()))
        };
        let run = run_in_rank_order(&quiet_spec(1), true, body).unwrap();
        let o_s = SimTime::ZERO + SimDur::from_nanos_f64(quiet_spec(1).net.send_overhead_ns);
        assert_eq!(
            run.results[0],
            (2.0, vec![(HopKind::Send, SimTime::ZERO, o_s)], o_s)
        );
        assert!(matches!(
            run.traces[0].events[..],
            [Event {
                kind: EventKind::Send {
                    to: 0,
                    tag: 9,
                    bytes: 8
                },
                ..
            }]
        ));
        let err = run_in_rank_order(&quiet_spec(2), false, body).unwrap_err();
        assert!(
            matches!(&err, SimError::Deadlock { detail } if detail.contains("rank 0")),
            "{err:?}"
        );
    }

    /// Run `f` both ways and hold the rank-ordered run to the threaded
    /// one: results, every trace event and finish time, or the error.
    fn both_ways<T, F>(spec: &ClusterSpec, f: F) -> SimResult<ClusterRun<T>>
    where
        T: Send + PartialEq + std::fmt::Debug,
        F: Fn(&mut RankCtx) -> SimResult<T> + Sync,
    {
        let threaded = run_cluster(spec, true, &f);
        let ordered = run_in_rank_order(spec, true, &f);
        match (&threaded, &ordered) {
            (Ok(t), Ok(o)) => {
                assert_eq!(t.results, o.results);
                for (t, o) in t.traces.iter().zip(&o.traces) {
                    assert_eq!((t.rank, t.finish), (o.rank, o.finish));
                    assert_eq!(t.events, o.events, "rank {}", t.rank);
                }
                assert_eq!(t.traces.len(), o.traces.len());
            }
            (Err(t), Err(o)) => assert_eq!(t, o),
            _ => panic!("threaded {threaded:?}, rank-ordered {ordered:?}"),
        }
        ordered
    }

    #[test]
    fn rank_ordered_crash_delivers_then_reports_the_dead_peer() {
        use crate::fault::CrashSpec;
        let mut spec = ClusterSpec::homogeneous(3);
        spec.faults.crashes = vec![CrashSpec::at_time(0, 0)];
        spec.faults.checkpoint_interval = 1;
        let delay = spec.faults.crash_detect_delay_ns;
        let run = both_ways(&spec, |ctx| {
            if ctx.rank() == 0 {
                ctx.compute(300.0, u64::MAX);
                ctx.send(2, 4, vec![9; 64])?;
                let died = ctx.crash_check_time().unwrap_err();
                return Ok(vec![format!("{died}")]);
            }
            let mut log = Vec::new();
            if ctx.rank() == 2 {
                log.push(format!("{:?}", ctx.recv(0, 4)));
            }
            log.push(format!("{:?}", ctx.recv(0, 4)));
            Ok(log)
        })
        .unwrap();
        let death = run.traces[0].finish.as_nanos();
        for (rank, log) in run.results.iter().enumerate().skip(1) {
            let at_ns = death + delay;
            let dead = format!(
                "{:?}",
                Err::<Payload, _>(SimError::PeerDead {
                    rank,
                    peer: 0,
                    at_ns
                })
            );
            assert_eq!(log.last(), Some(&dead), "rank {rank}: {log:?}");
        }
        assert_eq!(run.results[2].len(), 2, "the posted message came first");
    }

    #[test]
    fn rank_ordered_errors_and_panics_are_the_threaded_ones() {
        let spec = quiet_spec(3);
        // The lowest failed rank's error is the run's, either way.
        let err = both_ways(&spec, |ctx| match ctx.rank() {
            0 => Ok(()),
            r => Err(SimError::InvalidConfig(format!("rank {r} gives up"))),
        })
        .unwrap_err();
        assert_eq!(err, SimError::InvalidConfig("rank 1 gives up".into()));

        // A panic outranks a lower rank's error, and names its rank.
        type Run =
            fn(&ClusterSpec, bool, fn(&mut RankCtx) -> SimResult<()>) -> SimResult<ClusterRun<()>>;
        let entry_points: [Run; 2] = [run_cluster, run_in_rank_order];
        for run in entry_points {
            let panic = std::panic::catch_unwind(|| {
                run(&quiet_spec(3), false, |ctx| match ctx.rank() {
                    0 => Err(SimError::InvalidConfig("not reported".into())),
                    1 => panic!("boom"),
                    _ => Ok(()),
                })
            })
            .expect_err("the rank's panic is re-raised");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some("simulated rank 1 panicked: boom")
            );
        }
    }

    mod rank_ordered_programs {
        //! Differential check of [`run_in_rank_order`] against
        //! [`run_cluster`], the reference: random programs in which every
        //! receive takes what a lower rank or the receiver itself already
        //! sent, over noisy, faulty clusters with tracing on.

        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Compute {
                work: f64,
                ws: u64,
            },
            Create {
                var: VarId,
                len: usize,
            },
            Read {
                var: VarId,
                offset: usize,
                len: usize,
            },
            Write {
                var: VarId,
                offset: usize,
                len: usize,
            },
            Issue {
                var: VarId,
                offset: usize,
                len: usize,
            },
            Wait,
            Send {
                to: usize,
                tag: u32,
                bytes: usize,
            },
            Recv {
                from: usize,
                tag: u32,
            },
            CrashCheck,
        }

        /// Turn raw draws into a rank-ordered program. A receive is
        /// matched against what is posted when its rank gets there — or,
        /// with nothing posted, aimed at a lower rank known to be dead
        /// ([`SimError::PeerDead`] both ways), or dropped. `crasher` dies
        /// at its first crash check, so its program ends there.
        fn program(raw: &[Vec<(u8, u32, u32, u32)>], crasher: Option<usize>) -> Vec<Vec<Op>> {
            let n = raw.len();
            let mut posted: HashMap<(usize, usize, u32), usize> = HashMap::new();
            let mut dead = None;
            let mut ranks = Vec::new();
            for (rank, draws) in raw.iter().enumerate() {
                let mut ops = Vec::new();
                for &(kind, a, b, c) in draws {
                    let (var, offset, len) = (a % 3, b as usize % 48, c as usize % 48 + 1);
                    ops.push(match kind % 10 {
                        0 | 1 => Op::Compute {
                            work: f64::from(a % 5_000),
                            ws: u64::from(b) * 64,
                        },
                        2 => Op::Create { var, len: len + 16 },
                        3 => Op::Read { var, offset, len },
                        4 => Op::Write { var, offset, len },
                        5 => Op::Issue { var, offset, len },
                        6 => Op::Wait,
                        7 => {
                            let (to, tag) = (a as usize % n, b % 3);
                            *posted.entry((rank, to, tag)).or_default() += 1;
                            Op::Send {
                                to,
                                tag,
                                bytes: c as usize % 4096,
                            }
                        }
                        8 => {
                            let mut ready: Vec<_> = posted
                                .iter()
                                .filter(|&(&(_, to, _), &count)| to == rank && count > 0)
                                .map(|(&key, _)| key)
                                .collect();
                            ready.sort_unstable();
                            if let Some(&key) = ready.get(a as usize % ready.len().max(1)) {
                                *posted.get_mut(&key).expect("listed above") -= 1;
                                Op::Recv {
                                    from: key.0,
                                    tag: key.2,
                                }
                            } else if let Some(from) = dead.filter(|&d| d < rank) {
                                Op::Recv { from, tag: b % 3 }
                            } else {
                                continue;
                            }
                        }
                        _ if crasher == Some(rank) => {
                            dead = crasher;
                            ops.push(Op::CrashCheck);
                            break;
                        }
                        _ => Op::CrashCheck,
                    });
                }
                ranks.push(ops);
            }
            ranks
        }

        /// Execute one rank's ops, logging what each returned and the
        /// clock after it; errors are logged, not propagated, so the
        /// rest of the program still runs.
        fn execute(ctx: &mut RankCtx, ops: &[Op]) -> SimResult<Vec<String>> {
            let mut log = Vec::with_capacity(ops.len());
            let mut issued = Vec::new();
            let mut buf = vec![0.0; 64];
            // Variables 0 and 1 always exist; 2 only once an op creates it.
            ctx.disk.create(0, 64);
            ctx.disk.create(1, 64);
            for op in ops {
                let outcome = match *op {
                    Op::Compute { work, ws } => format!("{:?}", ctx.compute(work, ws)),
                    Op::Create { var, len } => {
                        ctx.disk.create(var, len);
                        String::new()
                    }
                    Op::Read { var, offset, len } => {
                        format!(
                            "{:?} {:?}",
                            ctx.disk_read(var, offset, &mut buf[..len]),
                            buf[0]
                        )
                    }
                    Op::Write { var, offset, len } => {
                        buf[..len].fill(offset as f64 + 0.5);
                        format!("{:?}", ctx.disk_write(var, offset, &buf[..len]))
                    }
                    Op::Issue { var, offset, len } => match ctx.prefetch_issue(var, offset, len) {
                        Ok(p) => {
                            issued.push(p);
                            String::new()
                        }
                        Err(e) => format!("{e:?}"),
                    },
                    Op::Wait => match issued.pop() {
                        Some(p) => format!("{:?}", ctx.prefetch_wait(p)),
                        None => String::new(),
                    },
                    Op::Send { to, tag, bytes } => {
                        format!("{:?}", ctx.send(to, tag, vec![tag as u8; bytes]))
                    }
                    Op::Recv { from, tag } => format!("{:?}", ctx.recv(from, tag)),
                    Op::CrashCheck => format!("{:?}", ctx.crash_check_time()),
                };
                log.push(format!("{outcome} @{:?}", ctx.now()));
            }
            Ok(log)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn run_in_rank_order_matches_run_cluster(
                raw in proptest::collection::vec(
                    proptest::collection::vec(
                        (any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()),
                        0..40,
                    ),
                    1..5,
                ),
                seed in any::<u64>(),
                amplitude in 0.0f64..0.08,
                faulty in any::<bool>(),
                crash in (any::<bool>(), any::<usize>()),
            ) {
                let n = raw.len();
                let mut spec = ClusterSpec::homogeneous(n);
                spec.seed = seed;
                spec.noise.amplitude = amplitude;
                for (i, node) in spec.nodes.iter_mut().enumerate() {
                    node.cpu_power = 1.0 + i as f64 * 0.5;
                }
                if faulty {
                    spec.faults.msg_resend_rate = 0.3;
                    spec.faults.disk_read_fault_rate = 0.2;
                    spec.faults.disk_write_fault_rate = 0.2;
                    // A degrade window whose rank and start the seed picks.
                    let from = seed % 200_000;
                    spec.faults.degrades = vec![crate::fault::DegradeSpec::at_time(
                        (seed % n as u64) as usize,
                        from,
                        1.5,
                    )
                    .recovering(crate::fault::RecoverSpec::at_time(from + 300_000))];
                }
                // Any rank but the last may be scheduled to die (somebody
                // has to be there to notice).
                let crasher = (n > 1 && crash.0).then(|| crash.1 % (n - 1));
                if let Some(rank) = crasher {
                    spec.faults.crashes = vec![crate::fault::CrashSpec::at_time(rank, 0)];
                    spec.faults.checkpoint_interval = 1;
                }
                let ranks = program(&raw, crasher);
                let run = both_ways(&spec, |ctx| execute(ctx, &ranks[ctx.rank()]));
                prop_assert!(run.is_ok(), "a rank-ordered program runs clean: {:?}", run.err());
            }
        }
    }
}
