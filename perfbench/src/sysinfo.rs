//! Process and host readings from `/proc`: peak resident memory, process
//! CPU time, and the host's CPU-steal share. Missing files (a non-Linux
//! host) read as zero; none of these gate a run.

use std::fs;

/// Peak resident set size (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Reset `VmHWM` to the current resident set size, so the next
/// [`peak_rss_mb`] covers only what runs from now on. Returns false where
/// the kernel does not allow it (then the peak covers the whole process).
fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Mark the end of set-up: note the whole-process peak so far, then reset
/// it so `peak_rss_mb` reports the timed part (which still counts every
/// page set-up left resident).
pub fn start_timed_part(out: &mut crate::report::Outcome) {
    out.note("peak_rss_mb.through_setup", peak_rss_mb());
    out.note("peak_rss_mb.reset", reset_peak_rss());
}

/// User + system CPU seconds consumed by this process so far.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being the 12th and
    // 13th of them. Linux reports both in USER_HZ = 100 ticks per second.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Host-wide CPU jiffies from the aggregate `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the current counters.
    pub fn now() -> CpuTimes {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        let vals: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so it is left out.
        CpuTimes {
            total: vals.iter().take(8).sum(),
            steal: vals.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`, in
    /// percent.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
