//! Networked front-end for the ShieldStore reproduction (paper §6.4).
//!
//! A ShieldStore server faces remote clients through TCP. Because an
//! enclave cannot issue system calls, network I/O is done by *untrusted*
//! threads; each request must then reach the enclave. Two mechanisms are
//! modeled, matching the paper:
//!
//! * **ECALL** — a hardware enclave crossing per request (~8,000 cycles);
//! * **HotCalls** — a shared-memory request ring polled by in-enclave
//!   worker threads (~620 cycles, no crossing).
//!
//! Security follows §3.2's server-side-encryption flow: the client
//! remote-attests the enclave (a quote binding the server's ephemeral
//! X25519 public key), both sides derive session keys, and every request
//! and response is AES-CTR encrypted and CMAC authenticated.
//!
//! The server is an **async core-per-shard engine**: N nonblocking
//! event loops (epoll readiness, no runtime dependency) each own an
//! accept share and a set of connections, reassemble frames
//! incrementally, and execute each single-key request on the loop that
//! owns its key's hash partition (paper §5.3 worker/partition
//! alignment). See [`server`] and `DESIGN.md` § "Network engine".
//!
//! * [`protocol`] — wire format (framing, opcodes).
//! * [`frame`] — incremental (push) frame decoder for the event loops.
//! * [`machine`] — per-connection lifecycle state machine.
//! * [`poller`] — minimal epoll/eventfd readiness abstraction (the one
//!   `unsafe` module: raw FFI, no external crates).
//! * [`session`] — attested handshake and per-session channel crypto.
//! * [`server`] — the store server with ECALL/HotCalls request paths;
//!   every data request runs through one
//!   [`KvBackend::execute`](shieldstore::KvBackend::execute) call.
//! * [`admission`] — weighted fair per-tenant admission control.
//! * [`client`] — a client handle and a self-healing retrying wrapper.
//! * [`repl`] — attested replicas: sealed-log streaming, read
//!   scale-out, verifiable failover (see `DESIGN.md` § "Replication").

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
mod engine;
pub mod frame;
pub mod machine;
pub mod poller;
pub mod protocol;
pub mod repl;
pub mod server;
pub mod session;

pub use admission::FairAdmission;
pub use client::{Connector, KvClient, RetryClient, RetryPolicy};
pub use frame::FrameDecoder;
pub use machine::{CloseReason, ConnMachine, ConnPhase};
pub use protocol::{OpCode, Request, Response, Status};
pub use repl::{ReplicaBackend, ReplicaConfig, ReplicaHandle, ReplicaNode};
pub use server::{CrossingMode, NetGauges, Server, ServerConfig};

/// Errors surfaced by the networked components.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket failure.
    Io(std::io::Error),
    /// Malformed frame or message.
    Protocol(String),
    /// Attestation or session-crypto failure.
    Security(String),
    /// The server shed the request under overload; it was not executed.
    /// Retry after backoff (see [`client::RetryClient`]).
    Busy,
    /// The key's hash partition is quarantined after an integrity
    /// violation; retrying will not help until the operator restores
    /// the store from a sealed snapshot.
    Quarantined,
    /// The write would exceed the connection's tenant quota; it was not
    /// executed. Retrying is pointless until data is deleted or the
    /// quota raised.
    QuotaExceeded,
    /// The server is a read-only replica; the mutation was not executed.
    /// Send writes to the primary (or wait for this node's promotion).
    ReadOnly,
    /// The server's durable storage failed and its log writer is
    /// poisoned: the mutation was not executed, and no mutation on that
    /// node will succeed until an operator intervenes. Reads still
    /// serve; fail over to a replica instead of retrying.
    StorageFailed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Security(m) => write!(f, "security error: {m}"),
            NetError::Busy => write!(f, "server busy: request shed, not executed"),
            NetError::Quarantined => {
                write!(f, "partition quarantined after an integrity violation")
            }
            NetError::QuotaExceeded => {
                write!(f, "tenant quota exceeded: write rejected")
            }
            NetError::ReadOnly => {
                write!(f, "server is a read-only replica: write not executed")
            }
            NetError::StorageFailed => {
                write!(f, "server storage failed: log writer poisoned, write not executed")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, NetError>;
