//! Estimators and host probes shared by the timed and the traced runs.

/// Minimum, median and maximum of a set of host-time samples.
///
/// The minimum is the reported value: on this shared 2-core host the
/// per-rep wall of identical work wanders upward only (the host is slower,
/// it never runs the simulator faster than it can go), so the minimum of
/// eight reps repeats to 4–9 % between sets where the median of five
/// repeats to 13–26 % (README, "Noise study").
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

impl Spread {
    /// Summarises `samples`; panics on an empty set (a run always times
    /// at least one rep).
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        Spread {
            min: s[0],
            median,
            max: s[n - 1],
            n,
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Pins the calling thread, and every thread it spawns from here on, to
/// the CPU it is running on, and returns that CPU; `None` where the host
/// does not allow it (the run then goes ahead unpinned).
///
/// Every workload runs one simulator worker, so nothing is lost — and the
/// sharded worlds stop measuring the kernel's mood. Building one means a
/// few hundred command round trips between the main thread and the worker.
/// Left alone, the scheduler keeps the two on one CPU most of the time,
/// but for a minute or so after both CPUs were busy (a compile, say) it
/// spreads them, every round trip becomes a wake-up of a halted virtual
/// CPU, and `setup_s` of `flows_10k` reads 7.3–8.0 ms instead of 3.4 ms
/// (README, "Noise study").
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    }
    // SAFETY: takes no arguments and reads no memory of ours.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // The kernel's default `cpu_set_t`: 1024 bits.
    let mut mask = [0 as c_ulong; 1024 / c_ulong::BITS as usize];
    *mask.get_mut(cpu / c_ulong::BITS as usize)? |= 1 << (cpu % c_ulong::BITS as usize);
    // SAFETY: `mask` is live for the call and `cpusetsize` is its size in
    // bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// No pinning off Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// How a report header says where the run was pinned.
pub fn pinned(cpu: Option<usize>) -> String {
    cpu.map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_orders_and_centres() {
        let s = Spread::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 2.5, 10.0, 4));
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 4.0);
        assert_eq!(nearest_rank(&v, 99.0), 8.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(nearest_rank(&big, 99.0), 9_900.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
