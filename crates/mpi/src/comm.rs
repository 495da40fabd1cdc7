//! The per-rank communicator: typed messaging, explicit file I/O, and
//! structural scope markers, all routed through MPI-Jack style hooks.

use mheta_sim::{Deposit, Hop, HopKind, Prefetch, RankCtx, SimDur, SimError, SimResult, VarId};

use crate::hooks::{HookEvent, OpInfo, OpKind, Recorder, Scope, ScopeKind};
use crate::msg;

/// Attempts at a disk read, write or prefetch issue that fails with
/// [`SimError::TransientIo`], the first included. Before attempt `k+1`
/// the rank's virtual clock is charged [`backoff_for`]`(k)`. All other
/// errors surface at once: only transient faults are worth retrying.
const MAX_ATTEMPTS: u32 = 3;

/// Backoff charged after the first failed attempt: 50 µs.
const BASE_BACKOFF: SimDur = SimDur::from_nanos(50_000);

/// Growth of the backoff per further failed attempt.
const BACKOFF_GROWTH: f64 = 2.0;

/// Ceiling on any single backoff charge: 100 ms.
const MAX_BACKOFF: SimDur = SimDur::from_nanos(100_000_000);

/// Largest exponent ever fed to [`BACKOFF_GROWTH`]. `2^32` growth
/// already exceeds [`MAX_BACKOFF`], and a capped exponent keeps `powi`
/// far away from values whose u64 conversion would saturate
/// misleadingly.
const MAX_BACKOFF_EXP: u32 = 32;

/// Backoff to charge after failed attempt number `attempt` (1-based):
/// `BASE_BACKOFF · BACKOFF_GROWTH^(attempt-1)`, at most [`MAX_BACKOFF`].
/// The exponent is capped before the multiply and the result clamped,
/// so no attempt count can overflow the virtual clock.
fn backoff_for(attempt: u32) -> SimDur {
    let exp = attempt.saturating_sub(1).min(MAX_BACKOFF_EXP);
    let ns = BASE_BACKOFF.as_nanos_f64() * BACKOFF_GROWTH.powi(exp as i32);
    SimDur::from_nanos_f64(ns).min(MAX_BACKOFF)
}

/// How the communicator executes I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Production semantics: prefetches are asynchronous.
    #[default]
    Normal,
    /// The instrumented iteration of §4.1.1: prefetch issues become
    /// blocking reads and waits become no-ops (Figure 5), and
    /// applications treat every distributed variable as out of core so
    /// I/O costs exist for all of them. The model reads only the costs
    /// of this iteration, so it computes no values: applications store
    /// zero shares of their data's shape, run no kernel, and charge
    /// every operation with the arguments and in the order of a normal
    /// run's.
    Instrument,
}

/// A pending asynchronous read issued through [`Comm::prefetch`].
#[derive(Debug)]
pub struct PrefetchToken {
    var: VarId,
    inner: TokenInner,
}

#[derive(Debug)]
enum TokenInner {
    /// Real asynchronous read in flight.
    Async(Prefetch),
    /// Instrument mode: the read already completed synchronously.
    Completed(Vec<f64>),
}

/// Rank-local communicator handle. Owns the structural scope state and
/// dispatches every operation through the recorder's hooks.
pub struct Comm<'a, R: Recorder> {
    ctx: &'a mut RankCtx,
    rec: &'a mut R,
    scope: Scope,
    mode: ExecMode,
}

impl<'a, R: Recorder> Comm<'a, R> {
    /// Wrap a rank context with a recorder and execution mode. Every
    /// disk operation makes up to three attempts at a transient fault,
    /// so applications absorb occasional ones without code changes; on
    /// a fault-free cluster no retry ever triggers.
    pub fn new(ctx: &'a mut RankCtx, rec: &'a mut R, mode: ExecMode) -> Self {
        Comm {
            ctx,
            rec,
            scope: Scope::default(),
            mode,
        }
    }

    /// Run `op`, absorbing up to `MAX_ATTEMPTS - 1` transient I/O faults.
    /// Each absorbed fault charges its backoff to the virtual clock and
    /// reports a [`HookEvent::Retry`] through the recorder.
    fn io_with_retry<T>(
        &mut self,
        kind: OpKind,
        var: VarId,
        mut op: impl FnMut(&mut RankCtx) -> SimResult<T>,
    ) -> SimResult<T> {
        let mut attempt = 1;
        loop {
            match op(self.ctx) {
                Err(SimError::TransientIo { .. }) if attempt < MAX_ATTEMPTS => {
                    let backoff = backoff_for(attempt);
                    self.ctx.charge(backoff);
                    self.rec.record(&HookEvent::Retry {
                        kind,
                        var: Some(var),
                        attempt,
                        backoff,
                        at: self.ctx.now(),
                    });
                    attempt += 1;
                }
                done => return done,
            }
        }
    }

    /// This rank's index.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Cluster size.
    #[must_use]
    pub fn size(&self) -> usize {
        self.ctx.size()
    }

    /// Execution mode.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// True when applications must treat distributed variables as out
    /// of core and compute no values (instrumented iteration, §4.1.1).
    #[must_use]
    pub fn force_ooc(&self) -> bool {
        self.mode == ExecMode::Instrument
    }

    /// Direct access to the underlying rank context (clock, disk,
    /// memory tracker).
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.ctx
    }

    /// Immutable access to the rank context.
    #[must_use]
    pub fn ctx_ref(&self) -> &RankCtx {
        self.ctx
    }

    /// Current structural scope.
    #[must_use]
    pub fn scope(&self) -> Scope {
        self.scope
    }

    // ---- structural markers -------------------------------------------------

    fn scope_event(&mut self, enter: bool, kind: ScopeKind, id: u32) {
        let at = self.ctx.now();
        let ev = if enter {
            HookEvent::ScopeEnter { kind, id, at }
        } else {
            HookEvent::ScopeExit { kind, id, at }
        };
        self.rec.record(&ev);
    }

    /// Mark the start of outer iteration `i`.
    pub fn begin_iteration(&mut self, i: u32) {
        self.ctx.note_iteration(i);
        self.scope_event(true, ScopeKind::Iteration, i);
    }

    /// Crash-aware variant of [`Comm::begin_iteration`] for resilient
    /// drivers: an iteration-triggered crash scheduled for this rank at
    /// iteration `i` fires here, before the scope marker, surfacing as
    /// [`SimError::Crashed`].
    pub fn begin_iteration_ft(&mut self, i: u32) -> SimResult<()> {
        self.ctx.crash_check_iteration(i)?;
        self.begin_iteration(i);
        Ok(())
    }

    /// Mark the end of outer iteration `i`.
    pub fn end_iteration(&mut self, i: u32) {
        self.scope_event(false, ScopeKind::Iteration, i);
    }

    /// Mark the start of parallel section `p`; resets tile and stage.
    pub fn begin_section(&mut self, p: u32) {
        self.scope = Scope {
            section: p,
            tile: 0,
            stage: 0,
        };
        self.scope_event(true, ScopeKind::Section, p);
    }

    /// Mark the end of parallel section `p`.
    pub fn end_section(&mut self, p: u32) {
        self.scope_event(false, ScopeKind::Section, p);
    }

    /// Mark the start of tile `t` within the current section.
    pub fn begin_tile(&mut self, t: u32) {
        self.scope.tile = t;
        self.scope.stage = 0;
        self.scope_event(true, ScopeKind::Tile, t);
    }

    /// Mark the end of tile `t`.
    pub fn end_tile(&mut self, t: u32) {
        self.scope_event(false, ScopeKind::Tile, t);
    }

    /// Mark the start of stage `s` within the current tile.
    pub fn begin_stage(&mut self, s: u32) {
        self.scope.stage = s;
        self.scope_event(true, ScopeKind::Stage, s);
    }

    /// Mark the end of stage `s`.
    pub fn end_stage(&mut self, s: u32) {
        self.scope_event(false, ScopeKind::Stage, s);
    }

    // ---- computation --------------------------------------------------------

    /// Perform `work_units` of computation over `ws_bytes` of working
    /// set. Not hooked: MHETA derives stage computation as stage time
    /// minus I/O time (§4.1.1).
    pub fn compute(&mut self, work_units: f64, ws_bytes: u64) -> SimDur {
        self.ctx.compute(work_units, ws_bytes)
    }

    // ---- messaging ----------------------------------------------------------

    fn op_event(&mut self, info: OpInfo, start: mheta_sim::SimTime) {
        let end = self.ctx.now();
        self.rec.record(&HookEvent::Op { info, start, end });
    }

    /// Send a slice of `f64` to `to`.
    ///
    /// Like every communication or file operation, this is a
    /// crash-trigger point: a time-triggered crash scheduled for this
    /// rank at or before the current virtual instant fires here as
    /// [`SimError::Crashed`].
    pub fn send_f64s(&mut self, to: usize, tag: u32, data: &[f64]) -> SimResult<()> {
        self.ctx.crash_check_time()?;
        let start = self.ctx.now();
        let payload = msg::encode_f64s(data);
        let bytes = payload.len() as u64;
        self.ctx.send(to, tag, payload)?;
        self.op_event(
            OpInfo {
                kind: OpKind::Send,
                var: None,
                peer: Some(to),
                bytes,
                elems: data.len(),
                scope: self.scope,
                blocked: SimDur::ZERO,
            },
            start,
        );
        Ok(())
    }

    /// Receive a slice of `f64` from `from`.
    pub fn recv_f64s(&mut self, from: usize, tag: u32) -> SimResult<Vec<f64>> {
        self.ctx.crash_check_time()?;
        let start = self.ctx.now();
        let payload = self.ctx.recv(from, tag)?;
        let end = self.ctx.now();
        let data = msg::decode_f64s(&payload);
        // Blocked time is end − start − o_r; the recorder only needs
        // the interval, but we surface the transport-level stall too.
        let blocked = end.saturating_since(start);
        self.op_event(
            OpInfo {
                kind: OpKind::Recv,
                var: None,
                peer: Some(from),
                bytes: payload.len() as u64,
                elems: data.len(),
                scope: self.scope,
                blocked,
            },
            start,
        );
        Ok(data)
    }

    /// Run a collective over every rank as one rendezvous
    /// ([`RankCtx::rendezvous`]): `hops` are this rank's messages of
    /// `data`'s values, in the order its walk makes them, and each is
    /// reported to the recorder as [`Comm::send_f64s`] or
    /// [`Comm::recv_f64s`] would report it.
    pub(crate) fn rendezvous(
        &mut self,
        hops: impl IntoIterator<Item = Hop>,
        data: &mut [f64],
        settle: impl FnOnce(&mut [Deposit]),
    ) -> SimResult<()> {
        let (rec, scope, elems) = (&mut *self.rec, self.scope, data.len());
        self.ctx.rendezvous(hops, data, settle, |hop, start, end| {
            let (kind, blocked) = match hop.kind {
                HopKind::Send => (OpKind::Send, SimDur::ZERO),
                HopKind::Recv => (OpKind::Recv, end.saturating_since(start)),
            };
            let info = OpInfo {
                kind,
                var: None,
                peer: Some(hop.peer),
                bytes: hop.bytes,
                elems,
                scope,
                blocked,
            };
            rec.record(&HookEvent::Op { info, start, end });
        })
    }

    // ---- explicit file I/O ---------------------------------------------------

    /// Pay for a disk operation of `len` elements of `var`: `charge`, a
    /// [`RankCtx`] charge retried by [`Comm::io_with_retry`], then the
    /// operation's hook event.
    fn charged_io(
        &mut self,
        kind: OpKind,
        var: VarId,
        len: usize,
        charge: impl FnMut(&mut RankCtx) -> SimResult<SimDur>,
    ) -> SimResult<()> {
        let start = self.ctx.now();
        self.io_with_retry(kind, var, charge)?;
        self.op_event(
            OpInfo {
                kind,
                var: Some(var),
                peer: None,
                bytes: (len * 8) as u64,
                elems: len,
                scope: self.scope,
                blocked: SimDur::ZERO,
            },
            start,
        );
        Ok(())
    }

    /// Synchronously read `out.len()` elements of `var` at `offset`
    /// from the local disk into `out`: [`Comm::file_read_with`] and a
    /// copy, for a caller that needs a buffer of its own.
    pub fn file_read(&mut self, var: VarId, offset: usize, out: &mut [f64]) -> SimResult<()> {
        self.file_read_with(var, offset, out.len(), |data| out.copy_from_slice(data))
    }

    /// Synchronously read `len` elements of `var` at `offset` from the
    /// local disk and lend them to `f` in place. The read is charged
    /// (and its faults retried) before `f` runs, exactly as
    /// [`Comm::file_read`] charges it; `f` is host work and may not
    /// touch the virtual clock. An out-of-range read fails with
    /// `file_read`'s error and charges nothing.
    pub fn file_read_with<T>(
        &mut self,
        var: VarId,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[f64]) -> T,
    ) -> SimResult<T> {
        self.ctx.crash_check_time()?;
        self.charged_io(OpKind::FileRead, var, len, |ctx| {
            ctx.disk_read_charge(var, offset, len)
        })?;
        let rank = self.ctx.rank();
        Ok(f(self.ctx.disk.view(var, offset, len, rank)?))
    }

    /// [`Comm::file_read_with`] for an update in place: `f` may change
    /// the lent elements, which are on disk as soon as it returns. The
    /// caller then charges its compute and the write of the same range
    /// with [`Comm::file_write_back`], so read → compute → write stays
    /// the order of virtual charges. The bytes are where a copying
    /// read, compute and [`Comm::file_write`] would leave them, failed
    /// write attempts included, since that stores before its fault draw.
    pub fn file_update_with<T>(
        &mut self,
        var: VarId,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [f64]) -> T,
    ) -> SimResult<T> {
        self.ctx.crash_check_time()?;
        self.charged_io(OpKind::FileRead, var, len, |ctx| {
            ctx.disk_read_charge(var, offset, len)
        })?;
        let rank = self.ctx.rank();
        Ok(f(self.ctx.disk.view_mut(var, offset, len, rank)?))
    }

    /// Synchronously write `data` to `var` at `offset` on the local
    /// disk: a copy, then [`Comm::file_write_back`]'s charge.
    pub fn file_write(&mut self, var: VarId, offset: usize, data: &[f64]) -> SimResult<()> {
        self.ctx.crash_check_time()?;
        let rank = self.ctx.rank();
        self.ctx.disk.write(var, offset, data, rank)?;
        self.charged_io(OpKind::FileWrite, var, data.len(), |ctx| {
            ctx.disk_write_charge(var, offset, data.len())
        })
    }

    /// Charge the write of `len` elements of `var` at `offset` that a
    /// [`Comm::file_update_with`] already left on disk, as
    /// [`Comm::file_write`] charges it; no byte moves.
    pub fn file_write_back(&mut self, var: VarId, offset: usize, len: usize) -> SimResult<()> {
        self.ctx.crash_check_time()?;
        self.charged_io(OpKind::FileWrite, var, len, |ctx| {
            ctx.disk_write_charge(var, offset, len)
        })
    }

    /// The compulsory load of a whole variable: charge a read of its
    /// whole extent, as [`Comm::file_read`] would, then move its data
    /// off the disk and hand it over. The variable is gone afterwards
    /// (a later read is [`SimError::UnknownVariable`]), so take only a
    /// variable that nothing reads again.
    pub fn file_take(&mut self, var: VarId) -> SimResult<Vec<f64>> {
        self.ctx.crash_check_time()?;
        let rank = self.ctx.rank();
        let len = self.ctx.disk.extent(var, rank)?;
        self.charged_io(OpKind::FileRead, var, len, |ctx| {
            ctx.disk_read_charge(var, 0, len)
        })?;
        let data = self.ctx.disk.remove(var);
        Ok(data.expect("a charged variable is on disk"))
    }

    /// Issue an asynchronous read (prefetch). In instrumented mode this
    /// becomes a blocking read (Figure 5) so its full latency is
    /// measurable from the hooks.
    pub fn prefetch(&mut self, var: VarId, offset: usize, len: usize) -> SimResult<PrefetchToken> {
        self.ctx.crash_check_time()?;
        let start = self.ctx.now();
        let inner = match self.mode {
            ExecMode::Normal => {
                TokenInner::Async(self.io_with_retry(OpKind::PrefetchIssue, var, |ctx| {
                    ctx.prefetch_issue(var, offset, len)
                })?)
            }
            ExecMode::Instrument => {
                self.io_with_retry(OpKind::PrefetchIssue, var, |ctx| {
                    ctx.disk_read_charge(var, offset, len)
                })?;
                let rank = self.ctx.rank();
                TokenInner::Completed(self.ctx.disk.view(var, offset, len, rank)?.to_vec())
            }
        };
        self.op_event(
            OpInfo {
                kind: OpKind::PrefetchIssue,
                var: Some(var),
                peer: None,
                bytes: (len * 8) as u64,
                elems: len,
                scope: self.scope,
                blocked: SimDur::ZERO,
            },
            start,
        );
        Ok(PrefetchToken { var, inner })
    }

    /// Wait for a prefetch. In instrumented mode this is a no-op
    /// (Figure 5): the data was already delivered by the transformed
    /// issue.
    pub fn wait(&mut self, token: PrefetchToken) -> Vec<f64> {
        let start = self.ctx.now();
        let var = token.var;
        let (data, blocked) = match token.inner {
            TokenInner::Async(p) => self.ctx.prefetch_wait(p),
            TokenInner::Completed(data) => (data, SimDur::ZERO),
        };
        self.op_event(
            OpInfo {
                kind: OpKind::PrefetchWait,
                var: Some(var),
                peer: None,
                bytes: (data.len() * 8) as u64,
                elems: data.len(),
                scope: self.scope,
                blocked,
            },
            start,
        );
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::VecRecorder;
    use mheta_sim::{run_cluster, ClusterSpec, Event, SimTime};

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    #[test]
    fn scope_markers_flow_to_recorder() {
        let spec = quiet(1);
        let run = run_cluster(&spec, false, |ctx| {
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            comm.begin_section(2);
            comm.begin_stage(1);
            assert_eq!(
                comm.scope(),
                Scope {
                    section: 2,
                    tile: 0,
                    stage: 1
                }
            );
            comm.end_stage(1);
            comm.end_section(2);
            Ok(rec.events.len())
        })
        .unwrap();
        assert_eq!(run.results[0], 4);
    }

    #[test]
    fn typed_send_recv_roundtrip_records_ops() {
        let spec = quiet(2);
        let run = run_cluster(&spec, false, |ctx| {
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            if comm.rank() == 0 {
                comm.send_f64s(1, 9, &[1.0, 2.0, 3.0])?;
                Ok((vec![], rec.events.len()))
            } else {
                let v = comm.recv_f64s(0, 9)?;
                Ok((v, rec.events.len()))
            }
        })
        .unwrap();
        assert_eq!(run.results[1].0, vec![1.0, 2.0, 3.0]);
        assert_eq!(run.results[0].1, 1);
        assert_eq!(run.results[1].1, 1);
    }

    #[test]
    fn instrument_mode_prefetch_is_blocking_and_wait_free() {
        let spec = quiet(1);
        let run = run_cluster(&spec, false, |ctx| {
            ctx.disk.create(7, 64);
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Instrument);
            let before = comm.ctx_ref().now();
            let tok = comm.prefetch(7, 0, 64)?;
            let after_issue = comm.ctx_ref().now();
            let data = comm.wait(tok);
            let after_wait = comm.ctx_ref().now();
            assert_eq!(data.len(), 64);
            // Issue charged like a blocking read; wait advanced nothing.
            assert!(after_issue > before);
            assert_eq!(after_wait, after_issue);
            Ok(())
        })
        .unwrap();
        drop(run);
    }

    #[test]
    fn normal_mode_wait_blocks_for_latency() {
        let spec = quiet(1);
        run_cluster(&spec, false, |ctx| {
            ctx.disk.create(7, 1024);
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let tok = comm.prefetch(7, 0, 1024)?;
            let data = comm.wait(tok);
            assert_eq!(data.len(), 1024);
            // The wait op must show blocked time (no overlap compute).
            let blocked = rec.events.iter().find_map(|e| match e {
                HookEvent::Op { info, .. } if info.kind == OpKind::PrefetchWait => {
                    Some(info.blocked)
                }
                _ => None,
            });
            assert!(blocked.unwrap() > SimDur::ZERO);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn force_ooc_only_in_instrument_mode() {
        let spec = quiet(1);
        run_cluster(&spec, false, |ctx| {
            let mut rec = VecRecorder::default();
            let comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            assert!(!comm.force_ooc());
            let _ = comm;
            let comm = Comm::new(ctx, &mut rec, ExecMode::Instrument);
            assert!(comm.force_ooc());
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn backoff_grows_exponentially() {
        assert_eq!(backoff_for(1), SimDur::from_micros_f64(50.0));
        assert_eq!(backoff_for(2), backoff_for(1) * 2u64);
        assert_eq!(backoff_for(3), backoff_for(1) * 4u64);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // Huge attempt counts clamp to the ceiling rather than wrapping
        // or saturating the u64 nanosecond clock.
        for attempt in [12, 63, 64, 1_000, u32::MAX] {
            assert_eq!(backoff_for(attempt), SimDur::from_millis_f64(100.0));
        }
    }

    /// The attempts of the `Retry` hooks after the last completed
    /// operation: the retries of an operation that failed.
    fn trailing_retries(events: &[HookEvent]) -> Vec<u32> {
        let mut tail: Vec<u32> = events
            .iter()
            .rev()
            .map_while(|e| match e {
                HookEvent::Retry { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        tail.reverse();
        tail
    }

    #[test]
    fn transient_faults_are_retried_and_reported() {
        let mut spec = quiet(1);
        spec.faults.disk_read_fault_rate = 0.2;
        spec.seed = 11;
        run_cluster(&spec, false, |ctx| {
            ctx.disk.create(3, 32);
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let before = comm.ctx_ref().now();
            let mut buf = [0.0; 32];
            // Enough reads that a 20% fault rate trips at least once.
            for _ in 0..24 {
                comm.file_read(3, 0, &mut buf)?;
            }
            let after = comm.ctx_ref().now();
            let retries: Vec<_> = rec
                .events
                .iter()
                .filter_map(|e| match e {
                    HookEvent::Retry {
                        kind, var, backoff, ..
                    } => Some((*kind, *var, *backoff)),
                    _ => None,
                })
                .collect();
            assert!(!retries.is_empty(), "no retries at 20% fault rate");
            assert!(retries
                .iter()
                .all(|(k, v, b)| *k == OpKind::FileRead && *v == Some(3) && *b > SimDur::ZERO));
            // Backoff and failed attempts were charged to the clock.
            assert!(after > before);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn retries_converge_to_fault_free_data() {
        let mut faulty = quiet(1);
        faulty.faults.disk_read_fault_rate = 0.4;
        faulty.faults.disk_write_fault_rate = 0.4;
        faulty.seed = 5;
        let data: Vec<f64> = (0..64).map(f64::from).collect();
        let run = run_cluster(&faulty, false, |ctx| {
            ctx.disk.create(1, 64);
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let wr: Vec<f64> = (0..64).map(f64::from).collect();
            comm.file_write(1, 0, &wr)?;
            let mut buf = vec![0.0; 64];
            comm.file_read(1, 0, &mut buf)?;
            let retried = rec
                .events
                .iter()
                .any(|e| matches!(e, HookEvent::Retry { .. }));
            Ok((buf, retried))
        })
        .unwrap();
        // Numerics are unaffected by absorbed faults.
        assert_eq!(run.results[0], (data, true));
    }

    #[test]
    fn exhausted_retries_surface_transient_io() {
        let mut spec = quiet(1);
        spec.faults.disk_read_fault_rate = 0.97;
        spec.seed = 3;
        let run = run_cluster(&spec, false, |ctx| {
            ctx.disk.create(3, 8);
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let mut buf = [0.0; 8];
            // At a 97% fault rate some read in this run fails all its
            // attempts; keep the first error.
            let err = (0..8).find_map(|_| comm.file_read(3, 0, &mut buf).err());
            Ok((err, rec.events))
        })
        .unwrap();
        let (err, events) = &run.results[0];
        let exhausted = SimError::TransientIo {
            rank: 0,
            var: 3,
            attempt: 3,
        };
        assert_eq!(err.as_ref(), Some(&exhausted));
        // The failing read was retried after attempts 1 and 2, then gave up.
        assert_eq!(trailing_retries(events), [1, 2]);
    }

    #[test]
    fn file_ops_record_var_ids() {
        let spec = quiet(1);
        run_cluster(&spec, false, |ctx| {
            ctx.disk.create(3, 16);
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            comm.begin_section(1);
            comm.begin_stage(0);
            comm.file_write(3, 0, &[2.0; 16])?;
            let mut buf = [0.0; 16];
            comm.file_read(3, 0, &mut buf)?;
            comm.end_stage(0);
            comm.end_section(1);
            let io_ops: Vec<_> = rec
                .events
                .iter()
                .filter_map(|e| match e {
                    HookEvent::Op { info, .. } => Some(info),
                    _ => None,
                })
                .collect();
            assert_eq!(io_ops.len(), 2);
            assert!(io_ops.iter().all(|i| i.var == Some(3)));
            assert!(io_ops.iter().all(|i| i.scope
                == Scope {
                    section: 1,
                    tile: 0,
                    stage: 0
                }));
            Ok(())
        })
        .unwrap();
    }

    /// The variable the lending twins below read and write.
    const LENT: VarId = 4;

    /// `LENT`'s extent, and the chunk the twins move at a time.
    const EXTENT: usize = 96;
    const CHUNK: usize = 16;

    /// A noisy one-rank spec whose disk faults the three attempts
    /// absorb: the twins below retry on it and never run out of
    /// attempts (`lending_twins_retry_on_the_faulty_spec`).
    fn faulty() -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(1);
        s.faults.disk_read_fault_rate = 0.15;
        s.faults.disk_write_fault_rate = 0.15;
        s.seed = 7;
        s
    }

    /// What a program leaves behind that lending must not change: its
    /// value, the rank's clock and trace, the hook events and the disk.
    #[derive(Debug, PartialEq)]
    struct Outcome<T> {
        value: T,
        now: SimTime,
        trace: Vec<Event>,
        hooks: Vec<HookEvent>,
        /// `LENT`'s final contents; `None` once it has been taken.
        disk: Option<Vec<f64>>,
    }

    /// Run `body` on one traced rank of `spec` with `LENT` on disk.
    fn outcome<T: Send>(
        spec: &ClusterSpec,
        body: impl Fn(&mut Comm<'_, VecRecorder>) -> SimResult<T> + Sync,
    ) -> Outcome<T> {
        let mut run = run_cluster(spec, true, |ctx| {
            ctx.disk
                .store(LENT, (0..EXTENT).map(|i| i as f64 * 0.5).collect());
            let mut rec = VecRecorder::default();
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let value = body(&mut comm)?;
            let now = comm.ctx_ref().now();
            let disk = ctx.disk.view(LENT, 0, EXTENT, 0).ok().map(<[f64]>::to_vec);
            Ok((value, now, rec.events, disk))
        })
        .unwrap();
        let (value, now, hooks, disk) = run.results.pop().unwrap();
        Outcome {
            value,
            now,
            trace: run.traces.pop().unwrap().events,
            hooks,
            disk,
        }
    }

    /// Three passes over `LENT` in chunks, each chunk's sum lent or
    /// copied out and its compute charged after the read.
    fn read_passes(comm: &mut Comm<'_, VecRecorder>, lend: bool) -> SimResult<Vec<f64>> {
        let mut sums = Vec::new();
        let mut buf = [0.0; CHUNK];
        for _ in 0..3 {
            for at in (0..EXTENT).step_by(CHUNK) {
                sums.push(if lend {
                    comm.file_read_with(LENT, at, CHUNK, |d| d.iter().sum())?
                } else {
                    comm.file_read(LENT, at, &mut buf)?;
                    buf.iter().sum()
                });
                comm.compute(CHUNK as f64, (CHUNK * 8) as u64);
            }
        }
        Ok(sums)
    }

    /// Three read → compute → write passes over `LENT` in chunks,
    /// updated in place or through a buffer.
    fn update_passes(comm: &mut Comm<'_, VecRecorder>, lend: bool) -> SimResult<()> {
        let step = |d: &mut [f64]| d.iter_mut().for_each(|x| *x = *x * 0.75 + 1.0);
        let mut buf = [0.0; CHUNK];
        for _ in 0..3 {
            for at in (0..EXTENT).step_by(CHUNK) {
                if lend {
                    comm.file_update_with(LENT, at, CHUNK, step)?;
                } else {
                    comm.file_read(LENT, at, &mut buf)?;
                    step(&mut buf);
                }
                comm.compute(CHUNK as f64, (CHUNK * 8) as u64);
                if lend {
                    comm.file_write_back(LENT, at, CHUNK)?;
                } else {
                    comm.file_write(LENT, at, &buf)?;
                }
            }
        }
        Ok(())
    }

    #[test]
    fn lending_twins_retry_on_the_faulty_spec() {
        let retried = |hooks: &[HookEvent], kind| {
            hooks
                .iter()
                .any(|e| matches!(e, HookEvent::Retry { kind: k, .. } if *k == kind))
        };
        let reads = outcome(&faulty(), |comm| read_passes(comm, false));
        assert!(retried(&reads.hooks, OpKind::FileRead));
        let updates = outcome(&faulty(), |comm| update_passes(comm, false));
        assert!(retried(&updates.hooks, OpKind::FileRead));
        assert!(retried(&updates.hooks, OpKind::FileWrite));
    }

    #[test]
    fn a_lent_read_is_the_copying_read() {
        let copied = outcome(&faulty(), |comm| read_passes(comm, false));
        let lent = outcome(&faulty(), |comm| read_passes(comm, true));
        assert_eq!(lent, copied);
    }

    #[test]
    fn an_update_in_place_is_the_copying_read_and_write() {
        let copied = outcome(&faulty(), |comm| update_passes(comm, false));
        let lent = outcome(&faulty(), |comm| update_passes(comm, true));
        assert_ne!(copied.disk.as_deref(), Some(&[0.0; EXTENT][..]));
        assert_eq!(lent, copied);
    }

    #[test]
    fn a_take_is_the_copying_whole_read_and_leaves_nothing() {
        // A pass of chunk reads first, so the whole read is warm.
        let copied = outcome(&faulty(), |comm| {
            read_passes(comm, false)?;
            let mut all = vec![0.0; EXTENT];
            comm.file_read(LENT, 0, &mut all)?;
            Ok(all)
        });
        let taken = outcome(&faulty(), |comm| {
            read_passes(comm, true)?;
            let all = comm.file_take(LENT)?;
            let gone = comm.file_read(LENT, 0, &mut [0.0]).unwrap_err();
            assert_eq!(gone, SimError::UnknownVariable { var: LENT, rank: 0 });
            Ok(all)
        });
        assert_eq!(taken.disk, None);
        assert_eq!(
            Outcome {
                disk: copied.disk.clone(),
                ..taken
            },
            copied
        );
    }

    #[test]
    fn an_out_of_range_lend_fails_as_the_copy_does_and_charges_nothing() {
        let errors = outcome(&faulty(), |comm| {
            let mut lent = false;
            let (at, mut buf) = (EXTENT - CHUNK / 2, [0.0; CHUNK]);
            let pairs = [
                (
                    comm.file_read(LENT, at, &mut buf),
                    comm.file_read_with(LENT, at, CHUNK, |_| lent = true),
                ),
                (
                    comm.file_read(LENT, at, &mut buf),
                    comm.file_update_with(LENT, at, CHUNK, |_| lent = true),
                ),
                (
                    comm.file_write(LENT, at, &buf),
                    comm.file_write_back(LENT, at, CHUNK),
                ),
                (
                    comm.file_read(LENT + 1, 0, &mut buf),
                    comm.file_take(LENT + 1).map(drop),
                ),
            ];
            assert!(!lent, "a failed lend lends nothing");
            Ok(pairs.map(|(copy, lend)| (copy.unwrap_err(), lend.unwrap_err())))
        });
        for (copy, lend) in &errors.value {
            assert_eq!(lend, copy);
        }
        assert!(matches!(errors.value[0].0, SimError::OutOfBounds { .. }));
        assert!(matches!(
            errors.value[3].0,
            SimError::UnknownVariable { .. }
        ));
        assert_eq!(errors.now, SimTime::ZERO);
        assert!(errors.trace.is_empty() && errors.hooks.is_empty());
        assert_eq!(
            errors.disk,
            Some((0..EXTENT).map(|i| i as f64 * 0.5).collect())
        );
    }
}
