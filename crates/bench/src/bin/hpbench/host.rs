//! The host fingerprint every output record starts with, and the process
//! statistics the benchmark reads from `/proc`.
//!
//! Numbers from different hosts are never comparable, so every record
//! names the CPU model, the logical CPU count, the compiler and the
//! source revision it was measured with.

use std::process::{Command, Stdio};

use hpage_obs::json::esc;

/// What identifies the host and build a record was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu: String,
    pub cpus: usize,
    pub rustc: String,
    pub git: String,
    pub seed: u64,
}

impl Fingerprint {
    /// Probes the running host. Fields that cannot be read (no
    /// `/proc/cpuinfo`, no `git`, not a checkout) read `unknown`.
    pub fn probe(seed: u64) -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Fingerprint {
            cpu,
            cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(unknown),
            git: first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            seed,
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: cpu=\"{}\" cpus={} rustc=\"{}\" git={} seed={}",
            self.cpu, self.cpus, self.rustc, self.git, self.seed
        )
    }

    /// The fingerprint as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"cpu\":\"{}\",\"cpus\":{},\"rustc\":\"{}\",\"git\":\"{}\",\"seed\":{}}}",
            esc(&self.cpu),
            self.cpus,
            esc(&self.rustc),
            esc(&self.git),
            self.seed
        )
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// Runs `program args`, waits for it, and returns the first line of its
/// standard output when it succeeds.
fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system) this process has used so far, over all
/// its threads, live or exited.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, counted in
    // clock ticks of 1/100 s (USER_HZ, fixed by the Linux ABI).
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_renders_every_field() {
        let fp = Fingerprint {
            cpu: "Test \"CPU\"".into(),
            cpus: 2,
            rustc: "rustc 1.0".into(),
            git: "abc".into(),
            seed: 7,
        };
        let json = fp.json();
        hpage_obs::json::assert_json_shape(&json);
        assert!(json.starts_with("{\"cpu\":\"Test \\\"CPU\\\"\",\"cpus\":2"));
        assert!(fp.line().ends_with("git=abc seed=7"));
    }

    #[test]
    fn proc_statistics_are_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
    }
}
