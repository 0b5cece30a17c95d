//! What the harness reads from the operating system: its own peak
//! resident set and the machine's available memory (the footprint
//! guard's input).

/// A `kB` field of a `/proc` status-style file, in bytes.
fn proc_kib_field(text: &str, field: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    proc_kib_field(&status, "VmHWM:").unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// `MemAvailable`, in bytes (`None` where `/proc/meminfo` has no such field).
pub fn mem_available_bytes() -> Option<u64> {
    proc_kib_field(&std::fs::read_to_string("/proc/meminfo").ok()?, "MemAvailable:")
}

/// Refuses a workload whose in-memory stores would need more than half
/// of the memory available now. Without this the oversized shape is
/// OOM-killed after a minute of page-faulting instead of failing fast.
pub fn check_footprint(need_bytes: u64, available_bytes: Option<u64>) -> Result<(), String> {
    match available_bytes {
        Some(available) if need_bytes > available / 2 => Err(format!(
            "footprint guard: the workload's in-memory stores need {:.0} MiB, more than half of \
             the {:.0} MiB available",
            need_bytes as f64 / (1024.0 * 1024.0),
            available as f64 / (1024.0 * 1024.0)
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let text = "Name:\tx\nVmHWM:\t   93996 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(proc_kib_field(text, "VmHWM:"), Some(93996 * 1024));
        assert_eq!(proc_kib_field(text, "VmSwap:"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn footprint_guard_refuses_more_than_half_of_available() {
        let gib = 1u64 << 30;
        assert!(check_footprint(4 * gib, Some(16 * gib)).is_ok());
        assert!(check_footprint(8 * gib, Some(16 * gib)).is_ok());
        let refusal = check_footprint(9 * gib, Some(16 * gib)).unwrap_err();
        assert!(refusal.contains("9216 MiB") && refusal.contains("16384 MiB"), "{refusal}");
        assert!(check_footprint(9 * gib, None).is_ok(), "no figure, no refusal");
    }
}
