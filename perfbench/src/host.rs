//! What every result records about the host and the build it ran.

use std::path::Path;

/// Logical CPUs the process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` file,
/// in MiB. `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The host's CPU time so far, from the `cpu` line of `/proc/stat`: the
/// time the virtual CPUs waited for the hypervisor (steal) and the total,
/// in clock ticks. `None` where procfs is unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user and nice.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Steal time between two [`cpu_ticks`] readings, in percent of all CPU
/// time: how much the host's other tenants held the CPUs back.
pub fn steal_pct(from: (u64, u64), to: (u64, u64)) -> Option<f64> {
    let total = to.1.checked_sub(from.1).filter(|&t| t > 0)?;
    Some(to.0.checked_sub(from.0)? as f64 * 100.0 / total as f64)
}

/// The commit the benchmark was built from: read from `.git` when the
/// working directory is a git checkout, else `"unknown"` (benchmark
/// checkouts are plain file trees).
pub fn commit() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_high_water_mark() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn reads_steal_time() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 3 0\n";
        assert_eq!(parse_cpu_ticks(stat), Some((35, 1000)));
        assert_eq!(parse_cpu_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(steal_pct((35, 1000), (45, 1200)), Some(5.0));
        assert_eq!(steal_pct((35, 1000), (35, 1000)), None);
    }
}
