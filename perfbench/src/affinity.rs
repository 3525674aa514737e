//! CPU affinity of the calling thread. Threads spawned afterwards
//! inherit it, which is how the wire workloads put the server's event
//! loops and the generator on one CPU (see `wire::run`).

use std::io;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set for up to 1024 CPUs, as the kernel lays it out.
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The highest-numbered CPU in the set.
    pub fn last(&self) -> Option<usize> {
        (0..1024).rev().find(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut set = [0; 16];
        set[cpu / 64] = 1 << (cpu % 64);
        CpuSet(set)
    }
}

/// The CPUs the calling thread may run on.
pub fn get() -> io::Result<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable 128-byte CPU set for the whole
    // call; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(set)
}

/// Restricts the calling thread to `set`.
pub fn set(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` is a live 128-byte CPU set for the whole call; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
