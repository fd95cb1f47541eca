//! Offline shim for the `libc` items this workspace uses: CPU-affinity
//! types and `sched_setaffinity`. Linux-only, matching glibc's ABI.

#![allow(non_camel_case_types)]

/// Process id.
pub type pid_t = i32;
/// Size type.
pub type size_t = usize;
/// C `int`.
pub type c_int = i32;

/// Number of CPUs representable in a `cpu_set_t` (glibc default).
pub const CPU_SETSIZE: c_int = 1024;

/// glibc's `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct cpu_set_t {
    bits: [u64; CPU_SETSIZE as usize / 64],
}

/// Sets bit `cpu` in the mask (no-op when out of range, like glibc).
#[allow(non_snake_case)]
pub fn CPU_SET(cpu: usize, set: &mut cpu_set_t) {
    if cpu < CPU_SETSIZE as usize {
        set.bits[cpu / 64] |= 1u64 << (cpu % 64);
    }
}

/// Tests bit `cpu` in the mask.
#[allow(non_snake_case)]
pub fn CPU_ISSET(cpu: usize, set: &cpu_set_t) -> bool {
    cpu < CPU_SETSIZE as usize && set.bits[cpu / 64] & (1u64 << (cpu % 64)) != 0
}

#[cfg(target_os = "linux")]
extern "C" {
    /// Binds thread/process `pid` (0 = caller) to the CPUs in `mask`.
    pub fn sched_setaffinity(pid: pid_t, cpusetsize: size_t, mask: *const cpu_set_t) -> c_int;
    /// Reads the affinity mask of `pid` (0 = caller).
    pub fn sched_getaffinity(pid: pid_t, cpusetsize: size_t, mask: *mut cpu_set_t) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_set_bit_math() {
        // SAFETY: `cpu_set_t` is a plain `[u64; 16]` bit mask; all-zero
        // is a valid value, the empty set.
        let mut set: cpu_set_t = unsafe { std::mem::zeroed() };
        CPU_SET(3, &mut set);
        CPU_SET(130, &mut set);
        assert!(CPU_ISSET(3, &set));
        assert!(CPU_ISSET(130, &set));
        assert!(!CPU_ISSET(4, &set));
        CPU_SET(5000, &mut set); // Out of range: ignored.
    }
}
