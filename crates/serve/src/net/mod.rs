//! `BIQP` — the serving layer on the wire.
//!
//! A std-only TCP front-end over the in-process [`crate::Server`]: a
//! length-prefixed, checksummed little-endian frame protocol ([`wire`]),
//! a [`NetServer`] that bridges frames into [`crate::Client`] tickets so
//! batching, backpressure, and shutdown-drain apply to remote traffic
//! unchanged, and a blocking/pipelining [`NetClient`].
//!
//! The byte-level frame layout is specified in `docs/BIQP.md` at the
//! repository root (mirroring the artifact crate's container spec).
//! Design invariants:
//!
//! * **The bridge is a plain client.** Remote requests enter through
//!   [`crate::Client::try_submit`], so a frame from connection A and a
//!   frame from connection B pack into the same executor pass, and a full
//!   queue surfaces as an explicit `Busy` reject frame — the wire image of
//!   [`crate::ServeError::Busy`] — instead of unbounded buffering.
//! * **Corrupt frames error and close, never panic.** The codec is
//!   bounds-checked end to end with capped counts and a body checksum;
//!   the `net_hostile` proptests feed it truncations, bit flips, and
//!   oversized counts.
//! * **Bit-identical remote execution.** The wire carries fp32 payloads
//!   verbatim (little-endian `to_le_bytes`), so a remote answer equals the
//!   in-process [`biq_runtime::Executor::run`] result exactly — the
//!   `net_equivalence` test pins this across concurrent connections.
//! * **Readiness, not threads.** [`NetServer`] is a reactor (`sys` wraps
//!   epoll; the crate is Linux only): a fixed pool of I/O threads
//!   multiplexes every connection through nonblocking sockets, incremental
//!   frame decode, and vectored writes — holding thousands of idle
//!   connections costs state, not stacks.

pub mod client;
pub mod server;
mod sys;
pub mod wire;

pub use client::{NetClient, NetError, Outcome};
pub use server::{NetConfig, NetServer};
pub use wire::{Message, OpInfo, RejectCode, WireError};
