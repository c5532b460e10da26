//! Host-cost readers: a counting global allocator and `/proc` readers for
//! process CPU time and peak resident memory.
//!
//! All three report on the benchmark's own process, so one invocation per
//! workload (the driver's contract, and what `perf suite` does) makes the
//! numbers per workload. Where `/proc` is absent the readers return `None`
//! and the run fails with a message rather than printing a made-up number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` allocator that counts calls and requested bytes. The counters
/// are statistics only and publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter updates touch
// no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, valid per `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still asks the allocator for memory: count it as
        // one call and the bytes by which the block grew.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, per `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative host costs of this process at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostCost {
    /// Allocator calls (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
    /// User + system CPU time of all threads, in microseconds (`None`
    /// without `/proc`).
    pub cpu_us: Option<u64>,
}

impl HostCost {
    /// Read the counters now.
    pub fn now() -> HostCost {
        HostCost {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            cpu_us: cpu_time_us(),
        }
    }

    /// Costs accrued since `earlier`.
    pub fn since(&self, earlier: &HostCost) -> HostCost {
        HostCost {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            cpu_us: self.cpu_us.zip(earlier.cpu_us).map(|(a, b)| a.saturating_sub(b)),
        }
    }

    /// Field-wise sum (CPU time stays `None` if either side lacks it).
    pub fn plus(&self, other: &HostCost) -> HostCost {
        HostCost {
            allocs: self.allocs + other.allocs,
            alloc_bytes: self.alloc_bytes + other.alloc_bytes,
            cpu_us: self.cpu_us.zip(other.cpu_us).map(|(a, b)| a + b),
        }
    }
}

/// Linux reports `/proc/self/stat` times in clock ticks of `USER_HZ`, which
/// is 100 on every supported architecture.
const TICK_US: u64 = 10_000;

/// utime + stime of the whole process from `/proc/self/stat`.
pub fn cpu_time_us() -> Option<u64> {
    parse_stat_cpu_us(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Fields 14 and 15 of a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces, so fields are counted after its closing paren.
fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// Peak resident set size (`VmHWM`) of the process in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_spaces_in_the_command_name() {
        let stat = "42 (perf (x) y) S 1 42 42 0 -1 4194560 100 0 0 0 \
                    17 5 0 0 20 0 3 0 1000 1000000 200 184467 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0";
        assert_eq!(parse_stat_cpu_us(stat), Some(22 * TICK_US));
        assert_eq!(parse_stat_cpu_us("garbage"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kib() {
        assert_eq!(
            parse_vm_hwm_kib("Name:\tperf\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n"),
            Some(12345)
        );
        assert_eq!(parse_vm_hwm_kib("Name:\tperf\n"), None);
    }

    #[test]
    fn allocator_counts_measured_phase_deltas() {
        let before = HostCost::now();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(1024));
        let after = HostCost::now().since(&before);
        assert!(after.allocs >= 1);
        assert!(after.alloc_bytes >= 8 * 1024);
        drop(v);
    }
}
