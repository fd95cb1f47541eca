//! # mctop-locks — educated backoffs for spinlocks
//!
//! Reproduction of the locking study of the MCTOP paper (Sections 5 and
//! 7.1): test-and-set (TAS), test-and-test-and-set (TTAS) and ticket
//! (TICKET) locks whose backoff quantum is *derived from the topology* —
//! "messages on multi-cores travel as fast as coherence protocols", so
//! the right time to wait before retrying is the maximum communication
//! latency between any two participating threads.
//!
//! Three layers:
//!
//! - [`raw`]: real, runnable spinlock implementations with optional
//!   backoff (used by the host benchmarks and correctness tests);
//! - [`backoff`]: the policy — quantum = `max_latency_between(threads)`
//!   from MCTOP, fixed for TAS/TTAS, proportional to queue position for
//!   TICKET (Section 7.1);
//! - [`sim`]: a coherence-line discrete-event model that reproduces the
//!   *shape* of Fig. 8 on the five simulated paper platforms (see
//!   DESIGN.md for the substitution rationale).

pub mod backoff;
pub mod harness;
pub mod raw;
pub mod sim;

pub use raw::LockAlgo;
