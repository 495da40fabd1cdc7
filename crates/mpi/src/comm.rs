//! The per-rank communicator: typed messaging, explicit file I/O, and
//! structural scope markers, all routed through MPI-Jack style hooks.

use mheta_sim::{Deposit, Hop, HopKind, Prefetch, RankCtx, SimDur, SimError, SimResult, VarId};

use crate::hooks::{HookEvent, OpInfo, OpKind, Recorder, Scope, ScopeKind};
use crate::msg;

/// Retry-with-exponential-backoff policy for transient disk faults.
///
/// Every synchronous read, write, and prefetch issue that fails with
/// [`SimError::TransientIo`] is retried up to `max_attempts` times in
/// total; before attempt `k+1` the rank's virtual clock is charged
/// `min(base_backoff * multiplier^(k-1), max_backoff)`. All other
/// errors surface immediately — only transient faults are worth
/// retrying.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff charged after the first failed attempt.
    pub base_backoff: SimDur,
    /// Growth factor applied to the backoff per additional failure.
    pub multiplier: f64,
    /// Ceiling on any single backoff charge: the exponential growth
    /// saturates here instead of overflowing the u64 nanosecond clock
    /// for large attempt counts.
    pub max_backoff: SimDur,
}

/// Largest exponent ever fed to the backoff multiplier. `2^32` growth
/// already exceeds any plausible [`RetryPolicy::max_backoff`], and a
/// capped exponent keeps `powi` far away from producing values whose
/// u64 conversion would saturate misleadingly.
const MAX_BACKOFF_EXP: u32 = 32;

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDur::from_micros_f64(50.0),
            multiplier: 2.0,
            max_backoff: SimDur::from_millis_f64(100.0),
        }
    }
}

impl RetryPolicy {
    /// Fail fast: a single attempt, no retries.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDur::ZERO,
            multiplier: 1.0,
            max_backoff: SimDur::ZERO,
        }
    }

    /// Backoff to charge after failed attempt number `attempt` (1-based).
    /// The exponent is capped before the multiply and the result is
    /// clamped to `max_backoff`, so arbitrarily large attempt counts
    /// (or multipliers) cannot overflow the virtual clock.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> SimDur {
        let exp = attempt.saturating_sub(1).min(MAX_BACKOFF_EXP);
        let mult = if self.multiplier.is_finite() && self.multiplier >= 1.0 {
            self.multiplier
        } else {
            1.0
        };
        let ns = self.base_backoff.as_nanos_f64() * mult.powi(exp as i32);
        SimDur::from_nanos_f64(ns).min(self.max_backoff)
    }
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
    /// I/O costs exist for all of them.
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
    retry: RetryPolicy,
}

impl<'a, R: Recorder> Comm<'a, R> {
    /// Wrap a rank context with a recorder and execution mode. I/O
    /// retries default to [`RetryPolicy::default`], so applications
    /// absorb occasional transient disk faults without code changes;
    /// on a fault-free cluster the policy never triggers.
    pub fn new(ctx: &'a mut RankCtx, rec: &'a mut R, mode: ExecMode) -> Self {
        Comm {
            ctx,
            rec,
            scope: Scope::default(),
            mode,
            retry: RetryPolicy::default(),
        }
    }

    /// Builder-style override of the retry policy.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replace the retry policy in place.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active retry policy.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Run `op`, absorbing transient I/O faults per the retry policy.
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
                Err(SimError::TransientIo { .. }) if attempt < self.retry.max_attempts => {
                    let backoff = self.retry.backoff_for(attempt);
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
    /// of core (instrumented iteration, §4.1.1).
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

    /// Synchronously read `out.len()` elements of `var` at `offset`
    /// from the local disk.
    pub fn file_read(&mut self, var: VarId, offset: usize, out: &mut [f64]) -> SimResult<()> {
        self.ctx.crash_check_time()?;
        let start = self.ctx.now();
        self.io_with_retry(OpKind::FileRead, var, |ctx| ctx.disk_read(var, offset, out))?;
        self.op_event(
            OpInfo {
                kind: OpKind::FileRead,
                var: Some(var),
                peer: None,
                bytes: (out.len() * 8) as u64,
                elems: out.len(),
                scope: self.scope,
                blocked: SimDur::ZERO,
            },
            start,
        );
        Ok(())
    }

    /// Synchronously write `data` to `var` at `offset` on the local disk.
    pub fn file_write(&mut self, var: VarId, offset: usize, data: &[f64]) -> SimResult<()> {
        self.ctx.crash_check_time()?;
        let start = self.ctx.now();
        self.io_with_retry(OpKind::FileWrite, var, |ctx| {
            ctx.disk_write(var, offset, data)
        })?;
        self.op_event(
            OpInfo {
                kind: OpKind::FileWrite,
                var: Some(var),
                peer: None,
                bytes: (data.len() * 8) as u64,
                elems: data.len(),
                scope: self.scope,
                blocked: SimDur::ZERO,
            },
            start,
        );
        Ok(())
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
                let mut buf = vec![0.0; len];
                self.io_with_retry(OpKind::PrefetchIssue, var, |ctx| {
                    ctx.disk_read(var, offset, &mut buf)
                })?;
                TokenInner::Completed(buf)
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
    use mheta_sim::{run_cluster, ClusterSpec};

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
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(2), p.backoff_for(1) * 2u64);
        assert_eq!(p.backoff_for(3), p.backoff_for(1) * 4u64);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy::default();
        // Huge attempt counts clamp to the ceiling rather than wrapping
        // or saturating the u64 nanosecond clock.
        for attempt in [12, 63, 64, 1_000, u32::MAX] {
            assert_eq!(p.backoff_for(attempt), p.max_backoff);
        }
        // A pathological multiplier cannot smuggle in infinity either.
        let wild = RetryPolicy {
            multiplier: f64::INFINITY,
            ..RetryPolicy::default()
        };
        assert_eq!(wild.backoff_for(5), wild.base_backoff);
        let shrinking = RetryPolicy {
            multiplier: 0.5,
            ..RetryPolicy::default()
        };
        assert_eq!(shrinking.backoff_for(5), shrinking.base_backoff);
    }

    #[test]
    fn transient_faults_are_retried_and_reported() {
        let mut spec = quiet(1);
        spec.faults.disk_read_fault_rate = 0.5;
        spec.seed = 11;
        run_cluster(&spec, false, |ctx| {
            ctx.disk.create(3, 32);
            let mut rec = VecRecorder::default();
            let mut comm =
                Comm::new(ctx, &mut rec, ExecMode::Normal).with_retry_policy(RetryPolicy {
                    max_attempts: 16,
                    ..RetryPolicy::default()
                });
            let before = comm.ctx_ref().now();
            let mut buf = [0.0; 32];
            // Enough reads that a 50% fault rate must trip at least once.
            for _ in 0..24 {
                comm.file_read(3, 0, &mut buf)?;
            }
            let after = comm.ctx_ref().now();
            // Move `comm` out of scope so `rec` can be inspected.
            let _ = comm;
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
            assert!(!retries.is_empty(), "no retries at 50% fault rate");
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
            let mut comm =
                Comm::new(ctx, &mut rec, ExecMode::Normal).with_retry_policy(RetryPolicy {
                    max_attempts: 32,
                    ..RetryPolicy::default()
                });
            let wr: Vec<f64> = (0..64).map(f64::from).collect();
            comm.file_write(1, 0, &wr)?;
            let mut buf = vec![0.0; 64];
            comm.file_read(1, 0, &mut buf)?;
            Ok(buf)
        })
        .unwrap();
        // Numerics are unaffected by absorbed faults.
        assert_eq!(run.results[0], data);
    }

    #[test]
    fn exhausted_retries_surface_transient_io() {
        let mut spec = quiet(1);
        spec.faults.disk_read_fault_rate = 0.97;
        spec.seed = 3;
        let run = run_cluster(&spec, false, |ctx| {
            ctx.disk.create(3, 8);
            let mut rec = VecRecorder::default();
            let mut comm =
                Comm::new(ctx, &mut rec, ExecMode::Normal).with_retry_policy(RetryPolicy::none());
            let mut buf = [0.0; 8];
            // With no retries and a 97% fault rate, some read in this
            // run must fail; surface the first error.
            for _ in 0..8 {
                comm.file_read(3, 0, &mut buf)?;
            }
            Ok(())
        });
        match run {
            Err(SimError::TransientIo {
                rank: 0, var: 3, ..
            }) => {}
            other => panic!("expected TransientIo, got {other:?}"),
        }
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
}
