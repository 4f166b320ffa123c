//! Pin the process to one CPU.
//!
//! The reference box gives its two vCPUs one CPU's worth of time once
//! the burst allowance is spent: two busy threads each run 4 ms of
//! every 8 ms. Whether a run sees that depends on what ran before it,
//! so a benchmark that lets two threads overlap is bimodal there. On
//! one CPU the trainer and the server worker hand over by context
//! switch, the parallel lanes time-slice, and every run sees the same
//! machine. Threads spawned later inherit the mask.

extern "C" {
    // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread (and threads it spawns from now on) to
/// `cpu`. Returns whether the kernel accepted the mask; a refusal
/// (CPU offline, not Linux semantics) leaves the process unpinned.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned 128-byte buffer and the
    // size passed is exactly its length in bytes; the kernel only reads
    // it. pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
