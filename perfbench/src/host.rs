//! The host record printed with every result. Results whose records
//! differ (other CPU, SIMD set, backend, compiler or code) are not
//! comparable.

/// SIMD flags the tensor backends can use, in reporting order.
const SIMD_FLAGS: [&str; 7] = ["sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl"];

/// Everything that identifies the host and build a result came from.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// Usable hardware threads.
    pub nproc: usize,
    /// CPU model name (`/proc/cpuinfo`).
    pub cpu: String,
    /// The SIMD flags of [`SIMD_FLAGS`] the CPU reports.
    pub simd: Vec<&'static str>,
    /// The active `mtp_tensor` backend.
    pub backend: String,
}

impl HostRecord {
    /// Probes the running host.
    #[must_use]
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |name: &str| {
            cpuinfo
                .lines()
                .find(|l| l.split(':').next().is_some_and(|k| k.trim() == name))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        };
        let flags = field("flags").unwrap_or_default();
        let present: Vec<&str> = flags.split_whitespace().collect();
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: field("model name").unwrap_or_else(|| "unknown".to_owned()),
            simd: SIMD_FLAGS.iter().copied().filter(|f| present.contains(f)).collect(),
            backend: mtp_tensor::backend::active_kind().to_string(),
        }
    }

    /// One JSON object with the host, the build and the run's seed.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"simd\":[{}],\"backend\":{},\"rustc\":{},\
             \"commit\":{},\"source_fnv\":{},\"workload\":{},\"seed\":{seed}}}",
            self.nproc,
            json_str(&self.cpu),
            self.simd.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","),
            json_str(&self.backend),
            json_str(env!("PERFBENCH_RUSTC")),
            json_str(env!("PERFBENCH_COMMIT")),
            json_str(env!("PERFBENCH_SOURCE_FNV")),
            json_str(workload),
        )
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MB (10^6 bytes, from
/// `VmHWM`).
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is unreadable or has
/// no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}
