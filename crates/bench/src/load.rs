//! A concurrent closed-loop load driver over the wire protocol.
//!
//! The paper's networked evaluation drives the server from a client
//! machine simulating 256 concurrent users (§6.1). [`run_load`] spawns
//! one [`KvClient`] per user, each running its own deterministic
//! workload stream, and reports aggregate throughput.

use sgx_sim::attest::AttestationVerifier;
use shield_net::{KvClient, NetError, Result};
use shield_workload::{make_key, make_value, Generator, Op, Spec};
use std::net::SocketAddr;

/// Load-driver configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of concurrent simulated users (paper: 256).
    pub users: usize,
    /// Requests each user issues.
    pub requests_per_user: usize,
    /// Encrypt traffic (secure sessions). Requires a verifier.
    pub secure: bool,
    /// Workload name (any of Table 2 / Fig. 12, see `shield-workload`).
    pub workload: String,
    /// Key-space size.
    pub num_keys: u64,
    /// Value size in bytes.
    pub val_len: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Aggregate load results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Total successful operations.
    pub ops: u64,
    /// Wall-clock duration of the measurement.
    pub wall: std::time::Duration,
    /// Failed operations.
    pub errors: u64,
}

impl LoadReport {
    /// Throughput in Kop/s over wall time plus `extra_penalty`.
    pub fn kops(&self, extra_penalty: std::time::Duration) -> f64 {
        let secs = (self.wall + extra_penalty).as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs / 1e3
        }
    }
}

/// Runs a concurrent load against `addr` and reports throughput.
///
/// Each user runs its own deterministic workload stream (seeded from
/// `config.seed` + user index) over its own connection.
pub fn run_load(
    addr: SocketAddr,
    verifier: Option<&AttestationVerifier>,
    config: &LoadConfig,
) -> Result<LoadReport> {
    let spec = Spec::by_name(&config.workload)
        .ok_or_else(|| NetError::Protocol(format!("unknown workload {}", config.workload)))?;
    assert!(!config.secure || verifier.is_some(), "secure load needs a verifier");

    let start = std::time::Instant::now();
    let mut handles = Vec::with_capacity(config.users);
    for user in 0..config.users {
        let verifier = verifier.cloned();
        let config = config.clone();
        handles.push(std::thread::spawn(move || -> Result<(u64, u64)> {
            let mut client = if config.secure {
                KvClient::connect_secure(
                    addr,
                    verifier.as_ref().expect("verifier for secure load"),
                    config.seed + user as u64,
                )?
            } else {
                KvClient::connect_insecure(addr)?
            };
            let mut generator =
                Generator::new(spec, config.num_keys, config.seed ^ (user as u64) << 20);
            let mut ops = 0u64;
            let mut errors = 0u64;
            for _ in 0..config.requests_per_user {
                let op = generator.next_op();
                let id = op.key_id();
                let key = make_key(id, 16);
                let outcome = match op {
                    Op::Get(_) => client.get(&key).map(|_| ()),
                    Op::Set(_) => {
                        client.set(&key, &make_value(id, generator.round(), config.val_len))
                    }
                    Op::Append(_) => client.append(&key, b"-app"),
                    Op::ReadModifyWrite(_) => client.get(&key).and_then(|v| {
                        let mut v = v.unwrap_or_default();
                        if v.is_empty() {
                            v = make_value(id, 0, config.val_len);
                        } else {
                            let n = v.len();
                            v[n - 1] = v[n - 1].wrapping_add(1);
                        }
                        client.set(&key, &v)
                    }),
                };
                match outcome {
                    Ok(()) => ops += 1,
                    Err(_) => errors += 1,
                }
            }
            Ok((ops, errors))
        }));
    }

    let mut ops = 0u64;
    let mut errors = 0u64;
    for h in handles {
        let (o, e) = h.join().map_err(|_| NetError::Protocol("load worker panicked".into()))??;
        ops += o;
        errors += e;
    }
    Ok(LoadReport { ops, wall: start.elapsed(), errors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::enclave::EnclaveBuilder;
    use shield_net::{CrossingMode, Server, ServerConfig};
    use std::sync::Arc;

    #[test]
    fn load_driver_end_to_end() {
        let enclave = EnclaveBuilder::new("load-test").epc_bytes(8 << 20).build();
        let store = Arc::new(
            shieldstore::ShieldStore::new(
                Arc::clone(&enclave),
                shieldstore::Config::shield_opt().buckets(256).mac_hashes(64),
            )
            .unwrap(),
        );
        // Preload so gets mostly hit.
        for i in 0..500u64 {
            store.set(&make_key(i, 16), b"preloaded-value!").unwrap();
        }
        let server = Server::start(
            store,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 2,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier = AttestationVerifier::for_enclave(&enclave);

        let report = run_load(
            server.addr(),
            Some(&verifier),
            &LoadConfig {
                users: 4,
                requests_per_user: 100,
                secure: true,
                workload: "RD50_Z".into(),
                num_keys: 500,
                val_len: 16,
                seed: 11,
            },
        )
        .unwrap();
        assert_eq!(report.ops + report.errors, 400);
        assert_eq!(report.errors, 0, "no request should fail");
        assert!(report.kops(std::time::Duration::ZERO) > 0.0);
        server.shutdown();
    }
}
