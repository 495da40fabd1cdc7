//! Bitwise referee for the microbenchmarks.
//!
//! `tests/golden/arch_bits.json` was generated at the commit *before*
//! `measure_comm` and `measure_disk` stopped running their probes through
//! `run_cluster`, one thread per rank, spawned per run (`cargo test --test
//! arch_bits -- --ignored bless`); `run_cluster` now runs each rank on one
//! parked worker, reused across runs.
//! For the four Table-1 presets, the 17 + 12 emulated architectures, one-
//! and two-node homogeneous clusters and three hostile specs (loud noise
//! under a non-default seed; message resends with transient disk faults;
//! a crash-stop scheduled on rank 0 at time zero, which the probes never
//! consult) it records what `measure_comm` and `measure_disk` return —
//! every `f64` by `to_bits`, every error by its `Display` string — and
//! the test also holds `measure_arch` to exactly those two.
//!
//! The benchmark's `search/*` and `simulate/*` goldens see `ArchParams`
//! only through a finished model's scores; this file pins the inputs
//! themselves, on every architecture the figures use.

use std::collections::BTreeMap;

use mheta::core::{measure_arch, measure_comm, measure_disk, ArchParams, CommParams, DiskParams};
use mheta::obs::json::{from_str, Value};
use mheta::prelude::*;
use mheta::sim::SimResult;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/arch_bits.json");
const SCHEMA: &str = "mheta-arch-bits/v1";

/// Every cluster of the referee, labelled `family/name`.
fn specs() -> Vec<(String, ClusterSpec)> {
    let mut out = Vec::new();
    for spec in [presets::dc(), presets::io(), presets::hy1(), presets::hy2()] {
        out.push((format!("preset/{}", spec.name), spec));
    }
    for spec in presets::seventeen_architectures() {
        out.push((format!("seventeen/{}", spec.name), spec));
    }
    for spec in presets::twelve_prefetch_architectures() {
        out.push((format!("prefetch/{}", spec.name), spec));
    }
    for n in [1, 2] {
        out.push((format!("homogeneous/{n}"), ClusterSpec::homogeneous(n)));
    }

    let mut noisy = presets::hy1();
    noisy.noise.amplitude = 0.05;
    noisy.seed = 0x5eed_0bad_cafe;
    out.push(("hostile/noisy".into(), noisy));

    // Resends stretch arrivals under the ping; a transient disk fault
    // ends a rank's probe with an error naming rank, variable, attempt.
    let mut faulty = presets::hy2();
    faulty.faults.msg_resend_rate = 0.3;
    faulty.faults.disk_read_fault_rate = 0.02;
    faulty.faults.disk_write_fault_rate = 0.02;
    out.push(("hostile/faulty".into(), faulty));

    // The probes drive `RankCtx` directly and the crash schedule is the
    // MPI layer's to consult (`crash_check_*`), so this one measures as
    // DC does; the line pins that a crash plan's presence moves nothing.
    let mut crash = presets::dc();
    crash.faults.crashes = vec![CrashSpec::at_time(0, 0)];
    crash.faults.checkpoint_interval = 1;
    out.push(("hostile/crash-rank0".into(), crash));
    out
}

fn comm_line(comm: &SimResult<CommParams>) -> String {
    match comm {
        Ok(c) => format!(
            "o_s={:016x} o_r={:016x} alpha={:016x} beta={:016x}",
            c.o_s.to_bits(),
            c.o_r.to_bits(),
            c.alpha.to_bits(),
            c.beta.to_bits()
        ),
        Err(e) => format!("error: {e}"),
    }
}

fn disk_line(disks: &SimResult<Vec<DiskParams>>) -> String {
    match disks {
        Ok(disks) => disks
            .iter()
            .map(|d| {
                format!(
                    "{:016x}/{:016x}/{:016x}/{:016x}",
                    d.o_read.to_bits(),
                    d.o_write.to_bits(),
                    d.read_ns_per_byte.to_bits(),
                    d.write_ns_per_byte.to_bits()
                )
            })
            .collect::<Vec<_>>()
            .join(" "),
        Err(e) => format!("error: {e}"),
    }
}

/// One line per cluster: `comm: … | disks: …`.
fn readings() -> BTreeMap<String, String> {
    specs()
        .into_iter()
        .map(|(label, spec)| {
            let comm = measure_comm(&spec);
            let disks = measure_disk(&spec);
            let line = format!("comm: {} | disks: {}", comm_line(&comm), disk_line(&disks));
            // `measure_arch` is those two and the spec's memory sizes,
            // failing with whichever fails first.
            let assembled = comm.and_then(|comm| {
                Ok(ArchParams {
                    name: spec.name.clone(),
                    comm,
                    disks: disks?,
                    memory_bytes: spec.nodes.iter().map(|n| n.memory_bytes).collect(),
                })
            });
            assert_eq!(measure_arch(&spec), assembled, "{label}");
            (label, line)
        })
        .collect()
}

fn golden() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(GOLDEN).expect("tests/golden/arch_bits.json is committed");
    let doc = from_str(&text).expect("the golden file is JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
    let Some(Value::Object(cases)) = doc.get("cases") else {
        panic!("golden file has no cases object");
    };
    cases
        .iter()
        .map(|(label, line)| {
            let line = line.as_str().expect("lines are strings").to_string();
            (label.clone(), line)
        })
        .collect()
}

/// Regenerate the golden file from what this build computes. Only
/// meaningful at a commit whose microbenchmarks are the reference.
#[test]
#[ignore = "rewrites tests/golden/arch_bits.json"]
fn bless() {
    let cases = readings()
        .into_iter()
        .map(|(label, line)| (label, Value::Str(line)))
        .collect();
    let doc = Value::object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("cases", Value::Object(cases)),
    ]);
    std::fs::write(GOLDEN, doc.to_json_pretty() + "\n").expect("write the golden file");
}

#[test]
fn microbenchmarks_reproduce_the_recorded_bits() {
    let golden = golden();
    let readings = readings();
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        readings.keys().collect::<Vec<_>>(),
        "the golden file holds exactly the generated cases"
    );
    for (label, line) in &readings {
        assert_eq!(line, &golden[label], "{label}");
    }
}

/// The hostile specs really take the paths they are there to pin.
#[test]
fn hostile_cases_take_their_paths() {
    let golden = golden();
    let faulty = &golden["hostile/faulty"];
    let (faulty_comm, faulty_disks) = faulty.split_once(" | ").expect("two halves");
    let (clean_comm, _) = golden["preset/HY2"].split_once(" | ").expect("two halves");
    assert!(!faulty_comm.contains("error"), "{faulty}");
    assert_ne!(faulty_comm, clean_comm, "resends move arrivals");
    assert!(
        faulty_disks.starts_with("disks: error: transient I/O fault"),
        "{faulty}"
    );
    assert!(!golden["hostile/noisy"].contains("error"));
    assert_ne!(golden["hostile/noisy"], golden["preset/HY1"]);
    assert_eq!(golden["hostile/crash-rank0"], golden["preset/DC"]);
}
