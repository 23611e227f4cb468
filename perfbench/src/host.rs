//! Host fingerprint and memory probes.

use std::path::Path;

/// Peak resident set of a live process (`VmHWM`), in KiB.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `VmHWM` (KiB) of a live process that is already running `mrw` (a
/// child caught between fork and exec still shows its parent's image).
pub fn mrw_hwm_kib(pid: &str) -> Option<u64> {
    let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).ok()?;
    (comm.trim() == "mrw").then(|| vm_hwm_kib(pid)).flatten()
}

/// Pids of the live children of `pid`, over all its threads.
pub fn children(pid: &str) -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|s| s.split_whitespace().map(String::from).collect::<Vec<_>>())
        .collect()
}

fn read_trim(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// `(nproc, cpu model, L2, L3)` of the host.
pub fn fingerprint() -> (usize, String, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut l2 = "unknown".to_string();
    let mut l3 = "unknown".to_string();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(size)) = (
            read_trim(format!("{dir}/level")),
            read_trim(format!("{dir}/size")),
        ) else {
            continue;
        };
        match level.as_str() {
            "2" => l2 = size,
            "3" => l3 = size,
            _ => {}
        }
    }
    (nproc, model, l2, l3)
}
