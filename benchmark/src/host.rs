//! The host a number was measured on, and the process-level readings
//! (CPU time, peak resident set) taken from `/proc/self`.

use std::path::Path;
use std::process::Command;

use crate::metrics::quote;

/// Worker threads every explorer, fuzzer and campaign of the untraced
/// pass uses.
pub const WORKERS: usize = 2;

/// Measures process CPU time (user + system, all threads, exited ones
/// included) from `/proc/self/stat`, at clock-tick resolution.
pub struct CpuClock(u64);

impl CpuClock {
    /// Starts measuring.
    pub fn start() -> CpuClock {
        CpuClock(cpu_ticks())
    }

    /// CPU seconds since [`start`](CpuClock::start).
    pub fn elapsed_s(&self) -> f64 {
        // USER_HZ is 100 on every Linux architecture.
        cpu_ticks().saturating_sub(self.0) as f64 / 100.0
    }
}

fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    tick(11) + tick(12)
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and how a run was measured.
#[derive(Clone, Debug)]
pub struct Host {
    /// `available_parallelism` of this process.
    pub cores: usize,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `git rev-parse HEAD` of the checkout, or `none` outside a git
    /// checkout.
    pub commit: String,
    /// Uncommitted changes to tracked files (`None` outside git).
    pub dirty: Option<bool>,
}

impl Host {
    /// Probes the current host. `root` is the checkout the benchmark was
    /// built from; git is asked only when `root/.git` exists, so no
    /// directory above the checkout is searched.
    pub fn probe(root: &Path) -> Host {
        let output = |cmd: &mut Command| {
            cmd.output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        let git = |args: &[&str]| {
            if root.join(".git").exists() {
                output(Command::new("git").arg("-C").arg(root).args(args))
            } else {
                None
            }
        };
        let commit = git(&["rev-parse", "HEAD"]);
        let dirty = commit
            .as_ref()
            .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
            .map(|s| !s.is_empty());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: output(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: commit.unwrap_or_else(|| "none".into()),
            dirty,
        }
    }

    /// The host block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"rustc\": {}, \"profile\": {}, \"commit\": {}, \"dirty\": {}, \
             \"workers\": {WORKERS}}}",
            self.cores,
            quote(&self.rustc),
            quote(self.profile),
            quote(&self.commit),
            self.dirty.map_or("null".to_string(), |d| d.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_live() {
        let cpu = CpuClock::start();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu.elapsed_s() > 0.0, "CPU time did not advance");
        assert!(peak_rss_mb() > 0.0);
    }
}
