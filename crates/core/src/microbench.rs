//! Microbenchmarks: measure communication and disk parameters by
//! running tiny probe programs on the simulated cluster, exactly as the
//! paper measures "send and receive overheads and send latency per
//! byte" before the instrumented iteration (§4.1).
//!
//! The measured values carry the simulator's noise, which is the point:
//! MHETA's inputs are imperfect in the same way real measurements are.
//!
//! The probes measure clocks only, so they move no bytes: a disk probe
//! charges its read and write on a fresh variable's range
//! (`disk_read_charge`, `disk_write_charge`) as a copying access of
//! that range is charged, and the fitted parameters are the same.
//!
//! No rank of a probe ever waits — rank 0 only sends, rank 1 receives
//! only what rank 0 has posted, the disk probes never communicate — so
//! the probes run in rank order on the caller's thread
//! ([`run_in_rank_order`]): a model build spawns no thread for them.

use mheta_sim::{run_in_rank_order, ClusterSpec, SimResult};

use crate::params::{ArchParams, CommParams, DiskParams};

/// Repetitions per probe; averages out the cost noise.
const REPS: usize = 24;
/// Small and large probe sizes (elements) for the two-point fits.
const SMALL_ELEMS: usize = 16;
const LARGE_ELEMS: usize = 2048;

/// Measure communication parameters with a ping microbenchmark between
/// ranks 0 and 1.
///
/// The sender's clock advance across a `send` call is exactly `o_s`;
/// the receiver's advance across a `recv` of an already-arrived message
/// is `o_r`; and the end-to-end delivery of a message into an idle
/// receiver is `o_s + α + bytes·β + o_r`. Two message sizes separate
/// `α` from `β`.
pub fn measure_comm(spec: &ClusterSpec) -> SimResult<CommParams> {
    if spec.len() < 2 {
        // Degenerate single-node cluster: communication never happens.
        return Ok(CommParams {
            o_s: 0.0,
            o_r: 0.0,
            alpha: 0.0,
            beta: 0.0,
        });
    }
    let run = run_in_rank_order(spec, false, |ctx| {
        let mut o_s_sum = 0.0;
        let mut o_r_sum = 0.0;
        let mut post_sum = [0.0f64; 2]; // rank 0: clock after each send
        let mut after_sum = [0.0f64; 2]; // rank 1: clock after each recv
        if ctx.rank() == 0 {
            // Phase A (tags 0, 1): one-way delivery. Rank 0 paces with
            // computation so its clock stays ahead of rank 1's, which
            // does nothing but receive; rank 1's post-recv clock is then
            // exactly `post + transfer + o_r`.
            for (si, elems) in [SMALL_ELEMS, LARGE_ELEMS].iter().enumerate() {
                for _ in 0..REPS {
                    ctx.compute(200.0, u64::MAX);
                    let before = ctx.now();
                    ctx.send(1, si as u32, vec![0u8; *elems * 8])?;
                    o_s_sum += ctx.now().saturating_since(before).as_nanos_f64();
                    post_sum[si] += ctx.now().as_nanos() as f64;
                }
            }
            // Phase B (tag 2): pre-post messages for the o_r probe.
            for _ in 0..REPS {
                ctx.send(1, 2, vec![0u8; SMALL_ELEMS * 8])?;
            }
        } else if ctx.rank() == 1 {
            for si in 0..2u32 {
                for _ in 0..REPS {
                    ctx.recv(0, si)?;
                    after_sum[si as usize] += ctx.now().as_nanos() as f64;
                }
            }
            // Phase B: busy long enough that each message has certainly
            // arrived; the recv advance is then exactly o_r.
            for _ in 0..REPS {
                ctx.compute(1e4, u64::MAX);
                let before = ctx.now();
                ctx.recv(0, 2)?;
                o_r_sum += ctx.now().saturating_since(before).as_nanos_f64();
            }
        }
        Ok((o_s_sum, o_r_sum, post_sum, after_sum))
    })?;

    let o_s = run.results[0].0 / (2 * REPS) as f64;
    let o_r = run.results[1].1 / REPS as f64;
    // Mean delivery interval per size: after − post = transfer + o_r.
    let x_small = (run.results[1].3[0] - run.results[0].2[0]) / REPS as f64 - o_r;
    let x_large = (run.results[1].3[1] - run.results[0].2[1]) / REPS as f64 - o_r;
    let beta = ((x_large - x_small) / ((LARGE_ELEMS - SMALL_ELEMS) as f64 * 8.0)).max(0.0);
    let alpha = (x_small - SMALL_ELEMS as f64 * 8.0 * beta).max(0.0);
    Ok(CommParams {
        o_s,
        o_r,
        alpha,
        beta,
    })
}

/// Measure each node's disk parameters with two-size read/write probes.
pub fn measure_disk(spec: &ClusterSpec) -> SimResult<Vec<DiskParams>> {
    let run = run_in_rank_order(spec, false, |ctx| {
        let mut read = [0.0f64; 2];
        let mut write = [0.0f64; 2];
        let mut probe_var = u32::MAX;
        for (si, elems) in [SMALL_ELEMS, LARGE_ELEMS].iter().enumerate() {
            for _ in 0..REPS {
                // A fresh variable per probe keeps every read cold —
                // the microbenchmark characterizes the raw disk, not
                // the OS cache.
                ctx.disk.create(probe_var, *elems);
                read[si] += ctx.disk_read_charge(probe_var, 0, *elems)?.as_nanos_f64();
                write[si] += ctx.disk_write_charge(probe_var, 0, *elems)?.as_nanos_f64();
                ctx.disk.remove(probe_var);
                probe_var -= 1;
            }
        }
        Ok((read, write))
    })?;

    Ok(run
        .results
        .iter()
        .map(|(read, write)| {
            let fit = |small: f64, large: f64| {
                let small = small / REPS as f64;
                let large = large / REPS as f64;
                let per_byte = (large - small) / ((LARGE_ELEMS - SMALL_ELEMS) as f64 * 8.0);
                let seek = (small - SMALL_ELEMS as f64 * 8.0 * per_byte).max(0.0);
                (seek, per_byte.max(0.0))
            };
            let (o_read, read_ns_per_byte) = fit(read[0], read[1]);
            let (o_write, write_ns_per_byte) = fit(write[0], write[1]);
            DiskParams {
                o_read,
                o_write,
                read_ns_per_byte,
                write_ns_per_byte,
            }
        })
        .collect())
}

/// Run all microbenchmarks and assemble the model's architecture
/// parameters.
pub fn measure_arch(spec: &ClusterSpec) -> SimResult<ArchParams> {
    Ok(ArchParams {
        name: spec.name.clone(),
        comm: measure_comm(spec)?,
        disks: measure_disk(spec)?,
        memory_bytes: spec.nodes.iter().map(|n| n.memory_bytes).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_sim::ClusterSpec;

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    #[test]
    fn comm_params_recover_ground_truth_without_noise() {
        let spec = quiet(2);
        let m = measure_comm(&spec).unwrap();
        assert!(
            (m.o_s - spec.net.send_overhead_ns).abs() < 1.0,
            "o_s {}",
            m.o_s
        );
        assert!(
            (m.o_r - spec.net.recv_overhead_ns).abs() < 1.0,
            "o_r {}",
            m.o_r
        );
        assert!(
            (m.beta - spec.net.ns_per_byte).abs() < 0.01,
            "beta {}",
            m.beta
        );
        assert!(
            (m.alpha - spec.net.latency_ns).abs() < spec.net.latency_ns * 0.02,
            "alpha {} vs {}",
            m.alpha,
            spec.net.latency_ns
        );
    }

    #[test]
    fn disk_params_recover_ground_truth_without_noise() {
        let mut spec = quiet(2);
        spec.nodes[1] = spec.nodes[1].clone().with_io_factor(2.0);
        let d = measure_disk(&spec).unwrap();
        for (i, node) in spec.nodes.iter().enumerate() {
            assert!(
                (d[i].o_read - node.io_read_seek_ns).abs() < node.io_read_seek_ns * 0.01,
                "node {i} o_read {} vs {}",
                d[i].o_read,
                node.io_read_seek_ns
            );
            assert!(
                (d[i].read_ns_per_byte - node.io_read_ns_per_byte).abs() < 0.5,
                "node {i} read/byte"
            );
            assert!(
                (d[i].write_ns_per_byte - node.io_write_ns_per_byte).abs() < 0.5,
                "node {i} write/byte"
            );
        }
    }

    #[test]
    fn noisy_measurements_stay_close() {
        let mut spec = ClusterSpec::homogeneous(2);
        spec.noise.amplitude = 0.05;
        let m = measure_comm(&spec).unwrap();
        assert!((m.o_s - spec.net.send_overhead_ns).abs() / spec.net.send_overhead_ns < 0.05);
        let d = measure_disk(&spec).unwrap();
        assert!(
            (d[0].read_ns_per_byte - spec.nodes[0].io_read_ns_per_byte).abs()
                / spec.nodes[0].io_read_ns_per_byte
                < 0.1
        );
    }

    #[test]
    fn single_node_comm_params_are_zero() {
        let m = measure_comm(&quiet(1)).unwrap();
        assert_eq!(m.o_s, 0.0);
        assert_eq!(m.alpha, 0.0);
    }

    /// The probes drive `RankCtx` directly; a crash schedule is the
    /// MPI layer's to consult, so rank 0 "dead at time zero" measures
    /// as a healthy rank 0 (`tests/golden/arch_bits.json` holds the
    /// bits, recorded when the probes still ran on threads).
    #[test]
    fn a_scheduled_crash_is_not_the_probes_to_fire() {
        let healthy = ClusterSpec::homogeneous(3);
        let mut doomed = healthy.clone();
        doomed.faults.crashes = vec![mheta_sim::CrashSpec::at_time(0, 0)];
        doomed.faults.checkpoint_interval = 1;
        assert_eq!(measure_comm(&doomed), measure_comm(&healthy));
        assert_eq!(measure_disk(&doomed), measure_disk(&healthy));
    }

    #[test]
    fn measure_arch_assembles_everything() {
        let spec = quiet(3);
        let a = measure_arch(&spec).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.disks.len(), 3);
        assert_eq!(a.memory_bytes[0], spec.nodes[0].memory_bytes);
    }
}
