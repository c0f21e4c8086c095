//! Pinning the calling thread to one CPU.
//!
//! A thread inherits its creator's CPU set, so a workload that pins
//! itself before it spawns anything keeps every thread it starts, and
//! every thread those start, on that one CPU.

/// A CPU set as `sched_getaffinity` writes it (1024 CPUs).
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is writable and as large as the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is readable and as large as the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) -> bool {
    false
}

/// The calling thread's pin; dropping it restores the thread's previous
/// CPU set.
pub struct Pinned {
    previous: CpuSet,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set(&self.previous);
    }
}

/// The lowest CPU the calling thread may run on.
pub fn lowest() -> Option<usize> {
    let allowed = get()?;
    (0..allowed.len() * 64).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
}

/// Restricts the calling thread to `cpu`, or returns `None` and leaves it
/// as it was where the host refuses.
pub fn pin(cpu: usize) -> Option<Pinned> {
    let previous = get()?;
    let mut one: CpuSet = [0; 16];
    *one.get_mut(cpu / 64)? = 1 << (cpu % 64);
    set(&one).then_some(Pinned { previous })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pin_holds_until_dropped() {
        let before = get();
        let cpu = lowest();
        let pinned = cpu.and_then(pin);
        if pinned.is_some() {
            let now = get().expect("the pinned set reads back");
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(lowest(), cpu);
        }
        drop(pinned);
        assert_eq!(get(), before);
    }
}
