//! Process counters read from `/proc/self`: CPU time and peak memory.

use std::fs;

/// Linux reports CPU time in clock ticks of 1/100 s.
const TICKS_PER_S: f64 = 100.0;

/// The calling thread's kernel thread id.
pub fn thread_id() -> Option<u32> {
    // "/proc/thread-self" links to "<pid>/task/<tid>".
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// utime + stime in ticks from a `stat` file (fields 14 and 15; the
/// command name in field 2 may hold spaces, so count from its `)`).
fn stat_ticks(path: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// CPU seconds used by the whole process (all threads, exited ones
/// included) minus the threads named in `exclude`.
pub fn cpu_seconds_excluding(exclude: &[u32]) -> f64 {
    let all = stat_ticks("/proc/self/stat").unwrap_or(0);
    let skipped: u64 = exclude
        .iter()
        .filter_map(|tid| stat_ticks(&format!("/proc/self/task/{tid}/stat")))
        .sum();
    all.saturating_sub(skipped) as f64 / TICKS_PER_S
}

/// Resets the peak-RSS mark to the current RSS.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
