//! Facts about the process and the machine: peak resident memory from
//! `/proc/self/status`, and the stamp every result file carries.

/// Peak resident set size (`VmHWM`) of this process in MiB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where a result was measured: compared results must share it.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Whether the CPU advertises AVX2 (the blocked kernel's fast path).
    pub avx2: bool,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl HostStamp {
    /// Probe the current host.
    pub fn probe() -> HostStamp {
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx2: std::fs::read_to_string("/proc/cpuinfo")
                .is_ok_and(|info| info.split_whitespace().any(|flag| flag == "avx2")),
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"avx2\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
            self.nproc,
            self.avx2,
            engine::json::escape(&self.rustc),
            engine::json::escape(&self.git_rev)
        )
    }
}

/// First line of a command's standard output (the command is waited for), or
/// `unknown` when it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
