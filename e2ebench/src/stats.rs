//! Order statistics over job samples, and what the process and host say
//! about themselves (`/proc`, the build's rustc, the checkout's git rev).

use std::fs;

/// Samples a tail percentile must leave beyond it before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples, `ceil(q·n)`
/// (with a guard against `0.9 * 100.0` landing a hair above 90).
fn rank(n: usize, q: f64) -> usize {
    (q * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `q` of all samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1])
}

/// A tail percentile, reported only when at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond its rank — so p90 needs 100 samples.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.len().saturating_sub(rank(sorted.len(), q)) < TAIL_MIN_BEYOND {
        return None;
    }
    percentile(sorted, q)
}

/// Median of unsorted values (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(0.0)
}

/// Kernel clock ticks per second, from the auxiliary vector (`AT_CLKTCK`).
fn clock_ticks_per_sec() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100.0, |(_, ticks)| ticks as f64)
}

/// User + system CPU seconds of the whole process (every thread).
pub fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / clock_ticks_per_sec()
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// What makes absolute numbers comparable: they are, only within one host.
pub struct HostRecord {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_rev: String,
}

impl HostRecord {
    pub fn probe() -> HostRecord {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("E2EBENCH_RUSTC_VERSION"),
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \
             \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
            self.nproc,
            json_escape(&self.cpu_model),
            json_escape(self.rustc),
            json_escape(&self.git_rev),
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no `git` process; `None` outside a git checkout).
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&ramp(10), 0.5), Some(5.0));
        assert_eq!(percentile(&ramp(11), 0.5), Some(6.0));
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(3), 0.0), Some(1.0));
        assert_eq!(percentile(&ramp(3), 1.0), Some(3.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        for n in 0..100 {
            assert_eq!(tail_percentile(&ramp(n), 0.9), None, "{n} samples");
        }
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail_percentile(&ramp(250), 0.9), Some(225.0));
        // The median needs only ten samples above it.
        assert_eq!(tail_percentile(&ramp(19), 0.5), None);
        assert_eq!(tail_percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn process_probes_read_sane_values() {
        // Burn CPU until the kernel has charged at least one tick.
        let t0 = std::time::Instant::now();
        while process_cpu_seconds() == 0.0 && t0.elapsed().as_secs() < 10 {
            std::hint::black_box((0..100_000u64).map(std::hint::black_box).sum::<u64>());
        }
        assert!(process_cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(HostRecord::probe().nproc >= 1);
    }
}
