//! Best-effort CPU affinity of the calling thread (threads it spawns
//! afterwards inherit it).
//!
//! The harness runs on one CPU. On a small VM a wake-up that crosses
//! CPUs costs an exit to the host, and how long that takes swings by a
//! third for minutes at a time with the host's other tenants; with every
//! thread of the service and the load generator on one CPU the same
//! workload repeats to within a few percent (README, "Noise"). Where
//! the call is refused (or the platform is not Linux) the harness runs
//! unpinned and says so.
//!
//! `std` has no affinity call; these are the two libc functions `std`
//! already links against.

/// A `cpu_set_t`: 1024 CPUs, one bit each.
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs the calling thread may run on.
#[cfg(target_os = "linux")]
pub fn allowed() -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set.0` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread; the kernel writes at most
    // `size` bytes into it.
    let rc =
        unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread to `set`; false if the kernel refused.
#[cfg(target_os = "linux")]
pub fn restrict_to(set: &CpuSet) -> bool {
    // SAFETY: `set.0` is a live buffer of exactly the size passed, only
    // read by the kernel; pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn restrict_to(_: &CpuSet) -> bool {
    false
}

/// Pins the calling thread to the last CPU it is allowed on (the first
/// tends to take the interrupts) and returns the set it had before, for
/// [`restrict_to`] to restore. `None` if nothing was changed.
pub fn pin_to_one_cpu() -> Option<CpuSet> {
    let before = allowed()?;
    let (word, bits) = before.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let mut one = CpuSet([0; 16]);
    one.0[word] = 1 << (63 - bits.leading_zeros());
    restrict_to(&one).then_some(before)
}
