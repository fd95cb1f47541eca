//! Topology-as-a-service: the MCTOP daemon library.
//!
//! `mctopd` turns the `mct` query surface into a long-running server:
//! one process loads and memoizes every machine description once
//! (`Arc<TopoView>` per machine), then answers `ListTopologies`,
//! `Query`, `Placement`, `AllocPlan` and `MetricsSnapshot` requests
//! from any number of clients over a Unix domain socket — the wire
//! protocol is defined in the `mctop-client` crate and responses are
//! byte-identical to what the CLI prints locally.
//!
//! The crate splits into:
//!
//! - [`eval`]: request evaluation shared with the `mct` CLI — the
//!   single source of the exact output text, which is what makes the
//!   byte-identity guarantee hold by construction.
//! - `server`: socket handling, the version handshake, request
//!   batching (every batch answered on the connection thread it
//!   arrived on), and the graceful-degradation paths (version
//!   mismatch, malformed frames, client disconnects, reloads,
//!   shutdown).
//!
//! See `docs/SERVING.md` for the protocol and operational story.

#![deny(missing_docs)]

pub mod eval;
pub(crate) mod server;

pub use server::{
    DescSource,
    ServeError,
    Server,
    ServerCfg,
    ServerHandle, //
};
