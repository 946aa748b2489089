//! Host readings from `/proc/self`: peak resident set size and process
//! CPU time (all threads, live and exited).

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, in clock ticks (USER_HZ = 100).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// CPU ÷ (wall × nproc) between two readings: near 1 when the run had
/// every core to itself and kept it busy, low when the host starved it.
pub fn cpu_util(cpu_seconds: f64, wall_seconds: f64) -> f64 {
    cpu_seconds / (wall_seconds * nproc() as f64).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_available_and_sane() {
        let rss = peak_rss_mib().expect("VmHWM readable");
        assert!(rss > 0.0);
        let a = cpu_seconds().expect("cpu time readable");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().unwrap() >= a);
        assert!(nproc() >= 1);
        assert!((cpu_util(1.0, 1.0) - 1.0 / nproc() as f64).abs() < 1e-12);
    }
}
