//! Metric names and units, the statistics behind them, machine info,
//! and the result line the driver reads.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Names and units must match `BENCHMARK.json` (the smoke test checks).
/// Phase 0 of every workload mutates and phase 1 queries; which client
/// call that is per workload is in `README.md`. The p99 latencies are
/// printed by every run but are not in this list: on the reference box
/// their run-to-run spread (15-85 % of the median) is wider than any
/// bound the driver allows, so they are diagnostics.
pub const END_TO_END: [(&str, &str); 7] = [
    ("mutate_ops_s", "1/s"),
    ("query_ops_s", "1/s"),
    ("round_ms", "ms"),
    ("mutate_p50_us", "us"),
    ("query_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("client.rpcs_per_op", "count"),
    ("client.meta_ops_per_frame", "count"),
    ("client.wb_calls_per_flush", "count"),
    ("client.size_updates_per_write", "count"),
    ("kv.writes_per_op", "count"),
    ("kv.flushes", "count"),
    ("kv.compactions", "count"),
    ("kv.stall_us", "us"),
    ("kv.group_commit_records_per_batch", "count"),
    ("st.write_amp", "B/B"),
    ("st.fd_cache_hit_ratio", "ratio"),
    ("st.coalesced_ops", "count"),
    ("daemon.read_reply_copy_bytes", "B"),
    ("daemon.meta_group_applies", "count"),
    ("client.self_us", "us"),
    ("rpc.transport_us", "us"),
    ("daemon.service_us", "us"),
    ("daemon.self_us", "us"),
    ("backend.replay_us", "us"),
    ("wire.frame_small_us", "us"),
    ("wire.frame_1m_us", "us"),
    ("kv.put_us", "us"),
    ("kv.get_us", "us"),
    ("kv.merge_us", "us"),
    ("kv.batch64_us", "us"),
    ("st.write_512k_us", "us"),
    ("st.read_512k_us", "us"),
    ("st.write_8k_us", "us"),
    ("st.read_8k_us", "us"),
    ("trace_overhead_pct", "%"),
];

/// Median of `values`; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` quantile (0..=1) of sorted nanosecond samples, in µs.
pub fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// File-system type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount point that prefixes it).
fn fs_type(path: &std::path::Path) -> String {
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), (*fstype).to_string());
        }
    }
    best.1
}

/// One line describing the machine a result was taken on.
pub fn machine_info(scratch: &std::path::Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let placement = match crate::deploy::Placement::get() {
        Some(p) => format!("ranks@cpu{},daemons@cpu{}", p.clients, p.daemons),
        None => "unpinned".into(),
    };
    format!(
        "machine: cores={cores} placement={placement} kernel={} scratch_fs={} scratch={}",
        kernel.trim(),
        fs_type(scratch),
        scratch.display()
    )
}

/// The last line of standard output: exactly the keys the driver reads.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value has no JSON form; it would also mean the
        // measurement is broken, which `correct` must say.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
