//! What the ledger records about the process and the machine.

use std::process::Command;

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Machine-wide CPU time counters (`/proc/stat`, in ticks): user, nice,
/// system, idle, iowait, irq, softirq, steal.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks([u64; 8]);

impl CpuTicks {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let mut ticks = [0u64; 8];
        if let Some(line) = stat.lines().next() {
            for (t, v) in ticks.iter_mut().zip(line.split_whitespace().skip(1)) {
                *t = v.parse().unwrap_or(0);
            }
        }
        Self(ticks)
    }

    /// How the machine's CPUs spent the time since `start`: the shares
    /// that were busy, idle and stolen by the hypervisor.  A run with a
    /// large steal share measured a contended host, not the program.
    pub fn since(&self, start: &CpuTicks) -> String {
        let d: Vec<u64> = self
            .0
            .iter()
            .zip(start.0)
            .map(|(a, b)| a.saturating_sub(b))
            .collect();
        let total = d.iter().sum::<u64>().max(1) as f64;
        let share = |v: u64| 100.0 * v as f64 / total;
        format!(
            "busy {:.1}%, idle {:.1}%, steal {:.1}% (machine-wide over the run)",
            share(d[0] + d[1] + d[2] + d[5] + d[6]),
            share(d[3] + d[4]),
            share(d[7])
        )
    }
}

fn cache_size(level: &str) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        if read("level").trim() == level && read("type").trim() != "Instruction" {
            return read("size").trim().to_string();
        }
    }
    "unknown".to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `key: value` lines describing the run's machine and toolchain.
pub fn metadata() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", model),
        ("l2", cache_size("2")),
        ("l3", cache_size("3")),
        ("rustc", command_line("rustc", &["--version"])),
        // Only `./.git` is read (no search of parent directories); an
        // exported tree without one reports `unknown`.
        (
            "commit",
            command_line("git", &["--git-dir=.git", "rev-parse", "--short", "HEAD"]),
        ),
    ]
}
