//! The benchmark's one statistics module: order statistics over
//! latency samples, the slice arithmetic of the timed window, and the
//! `/proc` parsers the process-level metrics are read with.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// On an empty slice — every caller has already checked it has data.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of per-slice (or per-repetition) values; the mean of
/// the two middle values when the count is even.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(values,
/// n=4)` gives — the driver's measure of run-to-run spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        let position = i * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&sorted)
}

/// Samples a tail percentile must leave beyond it to be worth reporting.
pub const TAIL_SAMPLES: usize = 10;

/// The highest whole percentile, at most 99, that still has
/// [`TAIL_SAMPLES`] samples beyond it in a sample of `n`: 99 from 1000
/// samples up, lower for a short (smoke) slice, never below the median.
pub fn tail_percentile(n: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let beyond = TAIL_SAMPLES.min(n);
    let pct = (100.0 * (n - beyond) as f64 / n as f64).floor();
    pct.clamp(50.0, 99.0)
}

/// One completed unit of work: when it finished, measured from the start
/// of the timed window, and how long the caller waited for it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time since the window opened.
    pub end_ns: u64,
    /// Latency as the caller saw it.
    pub latency_ns: u64,
}

/// What one slice of the timed window held.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceStats {
    /// Units completed in the slice.
    pub units: usize,
    /// Units completed per second.
    pub ops_per_s: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// Tail latency at [`SliceStats::tail_pct`], µs.
    pub tail_us: f64,
    /// The percentile `tail_us` was taken at (see [`tail_percentile`]).
    pub tail_pct: f64,
}

/// Cuts the samples of all client threads into `slices` equal slices of
/// `slice_len` by completion time and summarises each. Samples that
/// completed after the last slice closed are dropped.
pub fn slice_stats(samples: &[Sample], slices: usize, slice_len: Duration) -> Vec<SliceStats> {
    let slice_ns = slice_len.as_nanos() as u64;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for sample in samples {
        let index = (sample.end_ns / slice_ns.max(1)) as usize;
        if index < slices {
            buckets[index].push(sample.latency_ns);
        }
    }
    buckets
        .into_iter()
        .map(|mut latencies| {
            latencies.sort_unstable();
            let tail_pct = tail_percentile(latencies.len());
            let (p50, tail) = if latencies.is_empty() {
                (0, 0)
            } else {
                (
                    percentile(&latencies, 50.0),
                    percentile(&latencies, tail_pct),
                )
            };
            SliceStats {
                units: latencies.len(),
                ops_per_s: latencies.len() as f64 / slice_len.as_secs_f64(),
                p50_us: p50 as f64 / 1e3,
                tail_us: tail as f64 / 1e3,
                tail_pct,
            }
        })
        .collect()
}

/// `(max − min) / median` of the per-slice throughput, in percent: how
/// much the run disagreed with itself.
pub fn slice_spread_pct(slices: &[SliceStats]) -> f64 {
    let rates: Vec<f64> = slices.iter().map(|s| s.ops_per_s).collect();
    let mid = median(&rates);
    if mid == 0.0 {
        return 0.0;
    }
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    100.0 * (max - min) / mid
}

// ---------------------------------------------------------------------------
// /proc parsers
// ---------------------------------------------------------------------------

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux architecture this repository builds for.
pub const USER_HZ: u64 = 100;

/// CPU time (`utime + stime`) of a process from the text of
/// `/proc/<pid>/stat`, in microseconds. The command name (field 2) may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* closing parenthesis.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / USER_HZ))
}

/// The value of a `Key:   <number> [kB]` line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// `syscr + syscw` from the text of `/proc/<pid>/io`: read- and
/// write-family system calls issued.
pub fn parse_io_syscalls(io: &str) -> Option<u64> {
    Some(parse_status_field(io, "syscr")? + parse_status_field(io, "syscw")?)
}

/// Share of all CPU time that was stolen by the hypervisor, from the
/// first (`cpu`) line of `/proc/stat`: `(steal, total)` in ticks.
pub fn parse_proc_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// The highest-numbered CPU in the `Cpus_allowed_list` line of
/// `/proc/<pid>/status` (`0-1`, `0,2-3`, `5`).
pub fn last_allowed_cpu(status: &str) -> Option<usize> {
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Process-level counters sampled from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// `utime + stime`, µs.
    pub cpu_us: u64,
    /// Peak resident set (`VmHWM`), KiB.
    pub hwm_kib: u64,
    /// Voluntary context switches summed over the live threads.
    pub vcsw: u64,
    /// `syscr + syscw`.
    pub rw_syscalls: u64,
}

/// Reads the counters of process `pid` (`"self"` for the caller).
///
/// # Errors
///
/// The process is gone or `/proc` is not readable.
pub fn sample_process(pid: &str) -> std::io::Result<ProcSample> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let base = format!("/proc/{pid}");
    let cpu_us = parse_stat_cpu_us(&std::fs::read_to_string(format!("{base}/stat"))?)
        .ok_or_else(|| bad("unparseable /proc/<pid>/stat"))?;
    let hwm_kib = parse_status_field(&std::fs::read_to_string(format!("{base}/status"))?, "VmHWM")
        .ok_or_else(|| bad("no VmHWM in /proc/<pid>/status"))?;
    let rw_syscalls = parse_io_syscalls(&std::fs::read_to_string(format!("{base}/io"))?)
        .ok_or_else(|| bad("unparseable /proc/<pid>/io"))?;
    let mut vcsw = 0;
    for task in std::fs::read_dir(format!("{base}/task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(status) = std::fs::read_to_string(task?.path().join("status")) {
            vcsw += parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
        }
    }
    Ok(ProcSample {
        cpu_us,
        hwm_kib,
        vcsw,
        rw_syscalls,
    })
}

/// Machine-wide `(steal, total)` ticks from `/proc/stat`.
pub fn sample_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| parse_proc_stat_steal(&text))
        .unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&data, 50.0), 50);
        assert_eq!(percentile(&data, 99.0), 99);
        assert_eq!(percentile(&data, 100.0), 100);
        assert_eq!(percentile(&data, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 1000 samples: p99 is the 990th, leaving exactly ten beyond it.
        let data: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&data, 99.0), 990);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(250), 96.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        for n in [250usize, 999, 1000, 5000] {
            let rank = (tail_percentile(n) / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES, "n={n}");
        }
    }

    #[test]
    fn slices_cut_by_completion_time_and_drop_late_samples() {
        let ms = 1_000_000;
        let samples = [
            Sample {
                end_ns: ms,
                latency_ns: 10_000,
            },
            Sample {
                end_ns: 9 * ms,
                latency_ns: 30_000,
            },
            Sample {
                end_ns: 5 * ms,
                latency_ns: 20_000,
            },
            Sample {
                end_ns: 15 * ms,
                latency_ns: 40_000,
            },
            Sample {
                end_ns: 25 * ms,
                latency_ns: 99_000,
            },
        ];
        let slices = slice_stats(&samples, 2, Duration::from_millis(10));
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].units, 3);
        assert_eq!(slices[0].p50_us, 20.0);
        assert_eq!(slices[0].ops_per_s, 300.0);
        assert_eq!(slices[1].units, 1);
        assert_eq!(slices[1].tail_us, 40.0);
        assert_eq!(slice_spread_pct(&slices), 100.0);
    }

    const STAT: &str = "4242 (virt bench) serve) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                        731 269 0 0 20 0 27 0 123456 1000000 2500 18446744073709551615 \
                        1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        // utime 731 + stime 269 = 1000 ticks = 10 s.
        assert_eq!(parse_stat_cpu_us(STAT), Some(10_000_000));
        assert_eq!(parse_stat_cpu_us("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_us("garbage"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tvirt_bench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\n\
                      voluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(1234)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn io_syscalls_sum_reads_and_writes() {
        let io = "rchar: 100\nwchar: 200\nsyscr: 40\nsyscw: 2\nread_bytes: 0\n";
        assert_eq!(parse_io_syscalls(io), Some(42));
        assert_eq!(parse_io_syscalls("rchar: 1\n"), None);
    }

    #[test]
    fn steal_share_of_the_cpu_line() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n";
        assert_eq!(parse_proc_stat_steal(stat), Some((35, 1000)));
        assert_eq!(parse_proc_stat_steal("intr 1 2 3\n"), None);
    }

    #[test]
    fn last_allowed_cpu_of_ranges_and_lists() {
        let status = |list: &str| {
            format!("Cpus_allowed:\t3\nCpus_allowed_list:\t{list}\nMems_allowed:\t1\n")
        };
        assert_eq!(last_allowed_cpu(&status("0-1")), Some(1));
        assert_eq!(last_allowed_cpu(&status("0,2-3")), Some(3));
        assert_eq!(last_allowed_cpu(&status("5")), Some(5));
        assert_eq!(last_allowed_cpu("Name:\tx\n"), None);
    }

    #[test]
    fn sampling_this_process_works() {
        let sample = sample_process("self").expect("own /proc entry");
        assert!(sample.hwm_kib > 0);
    }
}
