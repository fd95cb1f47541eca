//! Thin client for `mctopd`, the topology-as-a-service daemon.
//!
//! The paper's workflow is *infer once, store, load everywhere*; the
//! daemon is the "everywhere" for processes that do not link the MCTOP
//! workspace. This crate is the client half of that split: the
//! [`wire`] module defines the versioned, length-prefixed frame
//! protocol (shared with the server crate, which depends on this one),
//! and [`Client`] is a small blocking client over a Unix domain
//! socket.
//!
//! ```no_run
//! let mut client = mctop_client::Client::connect("/tmp/mctopd.sock").unwrap();
//! let latency = client.query("ivy", "latency", &["0".into(), "20".into()]).unwrap();
//! // Byte-identical to `mct query ivy latency 0 20`.
//! print!("{latency}");
//! ```
//!
//! Framing, versioning rules, and the error-frame catalog are
//! documented in `docs/SERVING.md`.

#![deny(missing_docs)]

pub(crate) mod client;
pub mod wire;

pub use client::{
    Client,
    ClientError, //
};
