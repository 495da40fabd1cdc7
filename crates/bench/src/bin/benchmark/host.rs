//! Host-side readings that say whether a run can be trusted: CPU time
//! and context switches of this process, steal time and load of the
//! machine, and the process's peak resident set.

use std::fs;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// `ru_maxrss` … `ru_nsignals`, then `ru_nvcsw` and `ru_nivcsw`.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU seconds and context switches of this process so far, over all
/// its threads, including those already joined.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub ctx_switches: u64,
}

pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout
    // 64-bit Linux defines (144 bytes), and RUSAGE_SELF is a valid
    // `who`; the call writes the struct and keeps no pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Usage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        ctx_switches: (ru.longs[12] + ru.longs[13]) as u64,
    }
}

/// Machine-wide `(steal, total)` jiffies from the first line of
/// `/proc/stat`; zeros where the file is missing.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user and nice).
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// The one-minute load average; 0 where `/proc/loadavg` is missing.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where
/// `/proc/self/status` is missing.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host readings over one workload, from [`Watch::start`] to
/// [`Watch::finish`].
#[derive(Debug, Clone, Copy)]
pub struct HostReport {
    pub cpu_s: f64,
    pub ctx_switches: u64,
    pub steal_pct: f64,
    /// Load average before the workload started.
    pub loadavg_1m: f64,
}

impl HostReport {
    /// A neighbour, not the program, may explain this run's timings.
    pub fn noisy(&self) -> bool {
        self.steal_pct > 5.0 || self.loadavg_1m > nproc() as f64
    }
}

pub struct Watch {
    usage: Usage,
    jiffies: (u64, u64),
    loadavg_1m: f64,
}

impl Watch {
    pub fn start() -> Self {
        Watch {
            usage: usage(),
            jiffies: cpu_jiffies(),
            loadavg_1m: loadavg_1m(),
        }
    }

    pub fn finish(&self) -> HostReport {
        let now = usage();
        let (steal, total) = cpu_jiffies();
        let d_total = total.saturating_sub(self.jiffies.1);
        HostReport {
            cpu_s: now.cpu_s - self.usage.cpu_s,
            ctx_switches: now.ctx_switches - self.usage.ctx_switches,
            steal_pct: if d_total == 0 {
                0.0
            } else {
                100.0 * steal.saturating_sub(self.jiffies.0) as f64 / d_total as f64
            },
            loadavg_1m: self.loadavg_1m,
        }
    }
}
