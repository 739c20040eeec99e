//! Where the load threads run. The producer (or generator) and the
//! consumer (or pool worker) are pinned to two different CPUs, so the
//! scheduler cannot stack them on one CPU mid-run, which changes a
//! handoff's cost several-fold. On a host with fewer than two allowed
//! CPUs nothing is pinned, and the run records that.

use std::sync::OnceLock;

/// CPU set size in 64-bit words: enough for 1,024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, as the process started.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// True when the load threads get a CPU each.
pub fn enabled() -> bool {
    allowed().len() >= 2
}

/// Pins the calling thread to the `slot`-th allowed CPU (0 or 1). A no-op
/// when pinning is not [`enabled`] or the kernel refuses.
pub fn pin_current(slot: usize) {
    if !enabled() {
        return;
    }
    let cpu = allowed()[slot % 2];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
