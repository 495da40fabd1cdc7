//! Effecting a new distribution "on the fly" (the paper's §6 runtime):
//! [`move_rows`] is the one code that walks a
//! [`mheta_dist::transfer_plan`] — the §6 switch, crash recovery and
//! rebalancing ([`crate::adaptive`]) all run it. [`redistribute_var`],
//! its disk adapter, has an analytical twin, [`mheta_dist::move_clocks`],
//! which walks `move_rows`' order and charges what it charges, to the
//! nanosecond; [`mheta_dist::predict_cost_ns`] is that walk over a model.

use std::ops::Range;

use mheta_dist::{rows_moved, transfer_plan};
use mheta_mpi::{Comm, Recorder};
use mheta_sim::{SimDur, SimResult, VarId};

use crate::adaptive::{check_layout, VAR_FETCH};

const TAG_REDIST: u32 = 60;

/// Execute the plan that turns layout `old` into `new` (per-rank row
/// counts, zeros allowed) under message tag `tag`; returns the rows that
/// changed owner. `pack` renders a range of this rank's old rows,
/// `place` writes data into a range of its new rows, and `stored` reads
/// a *dead* owner's old rows from checkpoint storage (`None` for a live
/// owner), charged as a local disk read through [`VAR_FETCH`].
///
/// Each rank packs every block it owns in plan order, sending all but
/// the one that stays, and places that one; then it fetches or receives
/// each incoming block in plan order and places it. No place precedes a
/// pack, so `place` may overwrite what `pack` reads. Collective.
///
/// # Errors
/// `SimError::InvalidConfig` naming a layout that does not fit the
/// communicator or `old`'s row total; otherwise what a closure or the
/// transport returns.
pub fn move_rows<'c, R: Recorder>(
    comm: &mut Comm<'c, R>,
    old: &[usize],
    new: &[usize],
    tag: u32,
    mut pack: impl FnMut(&mut Comm<'c, R>, Range<usize>) -> SimResult<Vec<f64>>,
    mut place: impl FnMut(&mut Comm<'c, R>, Range<usize>, &[f64]) -> SimResult<()>,
    stored: &dyn Fn(usize, Range<usize>) -> Option<Vec<f64>>,
) -> SimResult<usize> {
    let total = old.iter().sum();
    check_layout(comm.size(), old, total)?;
    check_layout(comm.size(), new, total)?;
    let rank = comm.rank();
    let plan = transfer_plan(old, new);
    // A transfer's rows, local to `owner`'s block under `layout`.
    let local = |layout: &[usize], owner: usize, start: usize, rows: usize| {
        let lo = start - layout[..owner].iter().sum::<usize>();
        lo..lo + rows
    };
    let mut kept = None;
    for t in plan.iter().filter(|t| t.from == rank) {
        let data = pack(comm, local(old, rank, t.global_start, t.rows))?;
        if t.to == rank {
            kept = Some((local(new, rank, t.global_start, t.rows), data));
        } else {
            comm.send_f64s(t.to, tag, &data)?;
        }
    }
    if let Some((rows, data)) = kept {
        place(comm, rows, &data)?;
    }
    for t in plan.iter().filter(|t| t.to == rank && t.from != rank) {
        let data = if let Some(want) = stored(t.from, local(old, t.from, t.global_start, t.rows)) {
            let mut buf = vec![0.0; want.len()];
            comm.ctx().disk.store(VAR_FETCH, want);
            comm.file_read(VAR_FETCH, 0, &mut buf)?;
            comm.ctx().disk.remove(VAR_FETCH);
            buf
        } else {
            comm.recv_f64s(t.from, tag)?
        };
        place(comm, local(new, rank, t.global_start, t.rows), &data)?;
    }
    Ok(rows_moved(&plan))
}

/// Move the row-major disk-resident `var`, `elems_per_row` elements per
/// row, from layout `old` to `new`: [`move_rows`] with `file_read` at the
/// old local offset as `pack` and `file_write` at the new one as
/// `place`, the variable resized once, before its first write. Returns
/// the virtual time this rank spent. Collective.
///
/// # Errors
/// As [`move_rows`].
pub fn redistribute_var<R: Recorder>(
    comm: &mut Comm<'_, R>,
    var: VarId,
    elems_per_row: usize,
    old: &[usize],
    new: &[usize],
) -> SimResult<SimDur> {
    let t0 = comm.ctx_ref().now();
    let (rank, epr) = (comm.rank(), elems_per_row);
    let mut resized = false;
    move_rows(
        comm,
        old,
        new,
        TAG_REDIST,
        |comm, rows| {
            let mut buf = vec![0.0; rows.len() * epr];
            comm.file_read(var, rows.start * epr, &mut buf)?;
            Ok(buf)
        },
        |comm, rows, data| {
            if !std::mem::replace(&mut resized, true) {
                comm.ctx().disk.create(var, new[rank] * epr);
            }
            comm.file_write(var, rows.start * epr, data)
        },
        &|_, _| None,
    )?;
    if !resized {
        comm.ctx().disk.create(var, 0); // a rank left with no rows never writes
    }
    Ok(comm.ctx_ref().now().saturating_since(t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::hash01;
    use mheta_core::{ArchParams, CommParams, DiskParams};
    use mheta_dist::{move_clocks, GenBlock};
    use mheta_mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    use mheta_sim::{ClusterSpec, NetSpec, SimError};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    const VAR: VarId = 9;
    const EPR: usize = 8;
    const ROWS: usize = 48;

    /// Rank `rank`'s block under `layout`, `epr` elements per row.
    fn block(layout: &[usize], rank: usize, epr: usize) -> Vec<f64> {
        let first: usize = layout[..rank].iter().sum();
        (first * epr..(first + layout[rank]) * epr)
            .map(|i| hash01(0xD157, (i / epr) as u64, (i % epr) as u64))
            .collect()
    }

    /// A quiet cluster of `io.len()` ranks, each rank's disk scaled by
    /// its `io` factor, joined by `net`.
    fn cluster(io: &[f64], net: NetSpec) -> ClusterSpec {
        let mut spec = ClusterSpec::homogeneous(io.len());
        spec.noise.amplitude = 0.0;
        spec.net = net;
        for (node, &factor) in spec.nodes.iter_mut().zip(io) {
            *node = node.clone().with_io_factor(factor);
        }
        spec
    }

    /// The parameters a model of `spec` holds when measured exactly.
    fn arch(spec: &ClusterSpec) -> ArchParams {
        let net = &spec.net;
        ArchParams {
            name: spec.name.clone(),
            comm: CommParams {
                o_s: net.send_overhead_ns,
                o_r: net.recv_overhead_ns,
                alpha: net.latency_ns,
                beta: net.ns_per_byte,
            },
            disks: spec
                .nodes
                .iter()
                .map(|n| DiskParams {
                    o_read: n.io_read_seek_ns,
                    o_write: n.io_write_seek_ns,
                    read_ns_per_byte: n.io_read_ns_per_byte,
                    write_ns_per_byte: n.io_write_ns_per_byte,
                })
                .collect(),
            memory_bytes: spec.nodes.iter().map(|n| n.memory_bytes).collect(),
        }
    }

    fn run<T: Send>(
        spec: &ClusterSpec,
        body: impl Fn(&mut Comm<'_, NullRecorder>) -> SimResult<T> + Sync,
    ) -> SimResult<Vec<T>> {
        let opts = RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        };
        Ok(run_app(spec, opts, |_| NullRecorder, body)?.results)
    }

    /// Move `a → b → a` on `spec`, once with in-memory closures written
    /// as the adaptive drivers write them and once through the disk
    /// adapter, and check that every rank holds exactly its new rows
    /// after each move, that the returned counts are the plans'
    /// `rows_moved`, and that the move twin, started from the clocks the
    /// ranks reach the disk `a → b` move at (they differ), gives every
    /// rank's clock after it to the bit. Returns each rank's time in it.
    fn moves(
        spec: &ClusterSpec,
        a: &[usize],
        b: &[usize],
        epr: usize,
    ) -> Result<Vec<SimDur>, TestCaseError> {
        let results = run(spec, |comm| {
            let rank = comm.rank();
            let elems = |rows: Range<usize>| rows.start * epr..rows.end * epr;
            let (mut held, mut counts, mut took) = (Vec::new(), Vec::new(), Vec::new());
            let mut u = block(a, rank, epr);
            for (tag, (from, to)) in [(a, b), (b, a)].into_iter().enumerate() {
                let mut next = vec![0.0; to[rank] * epr];
                counts.push(move_rows(
                    comm,
                    from,
                    to,
                    tag as u32,
                    |_, rows| Ok(u[elems(rows)].to_vec()),
                    |_, rows, data| {
                        next[elems(rows)].copy_from_slice(data);
                        Ok(())
                    },
                    &|_, _| None,
                )?);
                u = next;
                held.push(u.clone());
            }
            comm.ctx().disk.store(VAR, block(a, rank, epr));
            let start = comm.ctx_ref().now().as_nanos() as f64;
            for (from, to) in [(a, b), (b, a)] {
                took.push(redistribute_var(comm, VAR, epr, from, to)?);
                let data = comm.ctx().disk.remove(VAR).expect("the variable survives");
                held.push(data.clone());
                comm.ctx().disk.store(VAR, data);
            }
            Ok((held, counts, took, start))
        })
        .map_err(|e| TestCaseError::Fail(format!("{e:?}")))?;

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want_counts = [
            rows_moved(&transfer_plan(a, b)),
            rows_moved(&transfer_plan(b, a)),
        ];
        let mut twin: Vec<f64> = results.iter().map(|r| r.3).collect();
        move_clocks(&arch(spec), a, b, 8 * epr as u64, &mut twin);
        let mut durs = Vec::new();
        for (rank, (held, counts, took, start)) in results.into_iter().enumerate() {
            // Memory then disk, each `a → b` then back; a rank whose share
            // is 0 must hold an empty block.
            let want = [bits(&block(b, rank, epr)), bits(&block(a, rank, epr))];
            for (i, got) in held.iter().enumerate() {
                prop_assert_eq!(&bits(got), &want[i % 2], "rank {} move {}", rank, i);
            }
            prop_assert_eq!(&counts[..], &want_counts[..], "rank {}", rank);
            let executed = start + took[0].as_nanos_f64();
            prop_assert_eq!(
                executed.to_bits(),
                twin[rank].to_bits(),
                "rank {}: executed {} ns, twin {} ns",
                rank,
                executed,
                twin[rank]
            );
            durs.push(took[0]);
        }
        Ok(durs)
    }

    /// Two layouts of one total over 1–8 ranks, 0–24 rows each (about a
    /// quarter of the shares 0), and 1–4 elements per row.
    fn layout_pairs() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, usize)> {
        let shares =
            || proptest::collection::vec((0usize..=32).prop_map(|r| r.saturating_sub(8)), 8);
        (1usize..=8, shares(), shares(), 0usize..8, 1usize..=4).prop_map(
            |(n, mut a, mut b, i, epr)| {
                a.truncate(n);
                b.truncate(n);
                // Walk `b` to `a`'s total, one row at a time from rank `i`.
                let total: usize = a.iter().sum();
                let mut i = i % n;
                while b.iter().sum::<usize>() != total {
                    if b.iter().sum::<usize>() > total {
                        b[i] = b[i].saturating_sub(1);
                    } else if b[i] < 24 {
                        b[i] += 1;
                    }
                    i = (i + 1) % n;
                }
                (a, b, epr)
            },
        )
    }

    /// Eight per-node I/O factors in 0.3–4 and a network: overheads up
    /// to 50 µs, latency up to 200 µs, 0–40 ns per byte.
    fn clusters() -> impl Strategy<Value = (Vec<f64>, NetSpec)> {
        let net = (
            0.0f64..50_000.0,
            0.0f64..50_000.0,
            0.0f64..200_000.0,
            0.0f64..40.0,
        );
        let io = proptest::collection::vec(0.3f64..4.0, 8);
        (io, net).prop_map(|(io, (o_s, o_r, latency, beta))| {
            let net = NetSpec {
                send_overhead_ns: o_s,
                recv_overhead_ns: o_r,
                latency_ns: latency,
                ns_per_byte: beta,
            };
            (io, net)
        })
    }

    /// A fixed heterogeneous cluster for the hand-written layout pairs.
    fn four() -> ClusterSpec {
        cluster(&[1.0, 2.5, 0.5, 3.0], NetSpec::default())
    }

    /// The proptest over the one executor and its twin: 64 generated
    /// layout pairs, each on a generated quiet heterogeneous cluster.
    #[test]
    fn move_rows_lands_every_row_in_memory_and_on_disk() {
        let mut rng = TestRng::from_name(concat!(module_path!(), "::move_rows"));
        let (pairs, clusters) = (layout_pairs(), clusters());
        for _ in 0..64 {
            let (a, b, epr) = pairs.gen_value(&mut rng);
            let (io, net) = clusters.gen_value(&mut rng);
            let spec = cluster(&io[..a.len()], net);
            if let Err(e) = moves(&spec, &a, &b, epr) {
                panic!(
                    "{a:?} -> {b:?}, {epr} per row, I/O {io:?}, {:?}: {e:?}",
                    spec.net
                );
            }
        }
    }

    #[test]
    fn block_to_skewed_preserves_data() {
        moves(
            &four(),
            GenBlock::block(ROWS, 4).rows(),
            &[30, 10, 4, 4],
            EPR,
        )
        .unwrap();
    }

    #[test]
    fn skewed_to_block_preserves_data() {
        moves(
            &four(),
            &[1, 1, 1, 45],
            GenBlock::block(ROWS, 4).rows(),
            EPR,
        )
        .unwrap();
    }

    #[test]
    fn reversal_round_trips() {
        moves(&four(), &[20, 12, 10, 6], &[6, 10, 12, 20], EPR).unwrap();
    }

    #[test]
    fn identity_redistribution_is_cheap_but_not_free() {
        // Pure local relocation: no messages, one read and one write a
        // rank, each exactly what the twin charges.
        let spec = cluster(&[1.0; 4], NetSpec::default());
        let blk = GenBlock::block(ROWS, 4);
        let node = &spec.nodes[0];
        let bytes = (ROWS / 4 * EPR * 8) as f64;
        let read = (node.io_read_seek_ns + bytes * node.io_read_ns_per_byte).round();
        let write = (node.io_write_seek_ns + bytes * node.io_write_ns_per_byte).round();
        for d in moves(&spec, blk.rows(), blk.rows(), EPR).unwrap() {
            assert_eq!(d.as_nanos_f64(), read + write);
        }
    }

    /// What `redistribute_var(old → new)` on four ranks is refused with.
    fn refusal(old: &[usize], new: &[usize]) -> String {
        let err = run(&cluster(&[1.0; 4], NetSpec::default()), |comm| {
            let rank = comm.rank();
            comm.ctx().disk.create(VAR, old[rank] * EPR);
            redistribute_var(comm, VAR, EPR, old, new)
        })
        .unwrap_err();
        match err {
            SimError::InvalidConfig(msg) => msg,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn a_layout_for_another_cluster_size_is_refused() {
        let msg = refusal(
            GenBlock::block(ROWS, 4).rows(),
            GenBlock::block(ROWS, 3).rows(),
        );
        assert!(msg.contains("[16, 16, 16]"), "{msg}");
    }

    #[test]
    fn layouts_of_different_totals_are_refused() {
        let msg = refusal(&[12; 4], &[12, 12, 12, 13]);
        assert!(
            msg.contains("[12, 12, 12, 13]") && msg.contains("48 rows"),
            "{msg}"
        );
    }
}
