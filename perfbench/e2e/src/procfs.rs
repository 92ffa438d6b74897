//! Memory and CPU readings of the server process from `/proc`.

use std::fs;
use std::io;

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Time on CPU in ns: the first field of a `/proc/.../schedstat` text.
pub fn schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Whether the `SigCgt` mask of a `/proc/<pid>/status` text says the
/// process has installed a handler for signal number `sig`.
pub fn catches_signal(status: &str, sig: u32) -> Option<bool> {
    let line = status.lines().find(|l| l.starts_with("SigCgt:"))?;
    let mask = u64::from_str_radix(line.split_whitespace().nth(1)?, 16).ok()?;
    Some(mask >> (sig - 1) & 1 == 1)
}

/// `(steal, total)` clock ticks over all CPUs from the `cpu` line of a
/// `/proc/stat` text: time the hypervisor ran something else while a
/// vCPU of this machine wanted to run, and all time.
pub fn steal_total_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// [`steal_total_ticks`] of this machine now.
pub fn host_ticks() -> io::Result<(u64, u64)> {
    steal_total_ticks(&fs::read_to_string("/proc/stat")?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no cpu line in /proc/stat"))
}

/// Peak resident set of `pid`, MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// CPU time in ns used so far by the threads of `pid` whose name starts
/// with `prefix`, from the scheduler's ns counter. Errors when no thread
/// matches or a matching thread's `schedstat` cannot be read.
pub fn threads_cpu_ns(pid: u32, prefix: &str) -> io::Result<u64> {
    let mut total = 0u64;
    let mut matched = false;
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let dir = entry?.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited mid-scan
        };
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        let text = fs::read_to_string(dir.join("schedstat"))?;
        let ns = schedstat_ns(&text)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unreadable schedstat"))?;
        total += ns;
        matched = true;
    }
    if !matched {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no thread of pid {pid} named {prefix}*"),
        ));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_peak_rss() {
        let status =
            "Name:\tmlpeer-serve\nVmPeak:\t  400000 kB\nVmHWM:\t  319080 kB\nVmRSS:\t  300000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(319_080));
        assert_eq!(vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn parses_caught_signals() {
        // SIGTERM (15) is bit 14; SIGINT (2) is bit 1.
        let status = "Name:\tx\nSigIgn:\t0000000000001000\nSigCgt:\t0000000000004002\n";
        assert_eq!(catches_signal(status, 15), Some(true));
        assert_eq!(catches_signal(status, 2), Some(true));
        assert_eq!(catches_signal(status, 13), Some(false));
        assert_eq!(catches_signal("Name:\tx\n", 15), None);
    }

    #[test]
    fn parses_host_steal() {
        let stat = "cpu  1059578 0 50183 1441627 1452 0 17789 16520 0 0\n\
                    cpu0 330742 0 26809 916835 630 0 10635 10906 0 0\n";
        let total = 1059578 + 50183 + 1441627 + 1452 + 17789 + 16520;
        assert_eq!(steal_total_ticks(stat), Some((16520, total)));
        assert_eq!(steal_total_ticks("cpu  1 2 3 4\n"), None);
        assert_eq!(steal_total_ticks("intr 5\n"), None);
        assert!(host_ticks().is_ok());
    }

    #[test]
    fn parses_schedstat_ns() {
        assert_eq!(schedstat_ns("41968 125252 2\n"), Some(41_968));
        assert_eq!(schedstat_ns(""), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        let main_name = fs::read_to_string(format!("/proc/{pid}/comm")).unwrap();
        let name = main_name.trim_end();
        // Test threads are named after the test; the main thread keeps
        // the binary's name, so scan for that.
        assert!(threads_cpu_ns(pid, &name[..name.len().min(4)]).is_ok());
        assert!(threads_cpu_ns(pid, "no-such-thread-name").is_err());
    }
}
