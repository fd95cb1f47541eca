//! Host-capability helpers shared by the executor and its consumers.
//!
//! Simulated machines routinely have more hardware contexts than the
//! host running the experiments has CPUs, so every place that pins a
//! thread needs the same clamp: bind only when the context id exists
//! on the host, stay virtual otherwise. This module is the single
//! home of that logic (it used to be duplicated between the worker
//! pool and the OpenMP runtime).

/// Number of CPUs actually available on the host (1 if unknown).
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Best-effort OS pinning: binds the calling thread to `hwc` when that
/// CPU exists on the host, and reports whether the bind happened.
/// Contexts beyond the host's CPU count are left virtual.
pub(crate) fn pin_if_host(hwc: usize) -> bool {
    hwc < host_cpus() && mctop_place::pin_os_thread(hwc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpus_is_positive() {
        assert!(host_cpus() >= 1);
    }

    #[test]
    fn absurd_context_is_never_pinned() {
        assert!(!pin_if_host(usize::MAX));
    }
}
