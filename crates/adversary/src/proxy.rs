//! A deterministic frame-level fault proxy for adversarial testing.
//!
//! [`FaultProxy`] sits between a client and a server, relaying
//! length-prefixed frames in both directions while injecting faults —
//! garbled bytes, truncations, duplicated frames, dropped frames —
//! according to a seeded, fully deterministic [`FaultPlan`]. It models
//! the network leg of the paper's §3.1 threat model: the attacker owns
//! every byte on the wire, and the session layer must turn any
//! manipulation into an error, never into silently wrong data.
//!
//! The schedule depends only on `(seed, connection index, direction,
//! frame index)`, so a failing run is reproducible from its seed alone.

use shield_net::protocol::{read_frame, write_frame};
use shield_net::Result;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One fault applied to a single relayed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameFault {
    /// Forward the frame unmodified.
    Passthrough,
    /// XOR one bit of the frame body before forwarding.
    Garble,
    /// Forward the full length header but only part of the body, then
    /// close both directions of the connection.
    Truncate,
    /// Forward the frame twice.
    Duplicate,
    /// Silently discard the frame.
    Drop,
    /// Partial write: flush exactly one byte of the length header, then
    /// stall forever (the connection stays open but silent). The
    /// receiver is left holding a half-frame; a readiness-loop server
    /// must neither block a core on it nor let it dodge the frame
    /// timeout.
    Stall,
}

/// A seeded, deterministic per-frame fault schedule.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Root seed; every fault decision derives from it.
    pub seed: u64,
    /// Frames left untouched at the start of each direction of every
    /// connection. Set to 1 so the attested handshake (one frame each
    /// way) completes and faults land on the encrypted request stream;
    /// set to 0 to attack the handshake itself.
    pub skip_frames: u64,
    /// After the skip window, roughly one in `period` frames is
    /// faulted (1 = every frame, 0 = no faults).
    pub period: u64,
}

/// SplitMix64 finalizer: a cheap, well-mixed hash for schedule decisions.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// The fault for frame `frame_idx` of direction `dir` (0 =
    /// client-to-server, 1 = server-to-client) on connection `conn`.
    pub fn fault_for(&self, conn: u64, dir: u64, frame_idx: u64) -> FrameFault {
        if frame_idx < self.skip_frames || self.period == 0 {
            return FrameFault::Passthrough;
        }
        let h = mix(self.seed ^ conn.wrapping_mul(0x9e3779b97f4a7c15) ^ (dir << 62) ^ frame_idx);
        if !h.is_multiple_of(self.period) {
            return FrameFault::Passthrough;
        }
        match (h >> 32) % 5 {
            0 => FrameFault::Garble,
            1 => FrameFault::Truncate,
            2 => FrameFault::Duplicate,
            3 => FrameFault::Drop,
            _ => FrameFault::Stall,
        }
    }
}

/// A running byte-level man-in-the-middle.
///
/// Accepts connections on its own loopback port, dials the upstream
/// server once per accepted connection, and relays frames through the
/// fault plan. Dropping the proxy (or calling [`FaultProxy::shutdown`])
/// stops the listener; in-flight relay threads die with their sockets.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    faults_injected: Arc<AtomicU64>,
    listener_handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy").field("addr", &self.addr).finish()
    }
}

impl FaultProxy {
    /// Starts a proxy on a fresh loopback port, forwarding to `upstream`.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> Result<FaultProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let faults_injected = Arc::new(AtomicU64::new(0));

        let listener_handle = {
            let stop = Arc::clone(&stop);
            let faults = Arc::clone(&faults_injected);
            std::thread::spawn(move || {
                let mut conn_idx = 0u64;
                for stream in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(client) = stream else { continue };
                    let Ok(server) = TcpStream::connect(upstream) else { continue };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    spawn_relay(&client, &server, plan, conn_idx, 0, &faults);
                    spawn_relay(&server, &client, plan, conn_idx, 1, &faults);
                    conn_idx += 1;
                }
            })
        };

        Ok(FaultProxy { addr, stop, faults_injected, listener_handle: Some(listener_handle) })
    }

    /// The proxy's listening address (point clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total non-passthrough faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Stops accepting connections and joins the listener thread.
    pub fn shutdown(mut self) {
        self.stop_listener();
    }

    fn stop_listener(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.listener_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.listener_handle.is_some() {
            self.stop_listener();
        }
    }
}

/// Spawns one direction's relay thread.
fn spawn_relay(
    from: &TcpStream,
    to: &TcpStream,
    plan: FaultPlan,
    conn: u64,
    dir: u64,
    faults: &Arc<AtomicU64>,
) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    let faults = Arc::clone(faults);
    std::thread::spawn(move || {
        let _ = relay(from, to, plan, conn, dir, &faults);
    });
}

/// Relays frames from `from` to `to` until EOF, an I/O error, or an
/// injected truncation. *Every* exit path closes both sockets: a relay
/// that died on a reset must still unblock the opposite relay thread and
/// the server's connection handler, or their reads hang forever.
fn relay(
    mut from: TcpStream,
    mut to: TcpStream,
    plan: FaultPlan,
    conn: u64,
    dir: u64,
    faults: &AtomicU64,
) -> Result<()> {
    let result = relay_frames(&mut from, &mut to, plan, conn, dir, faults);
    let _ = to.shutdown(std::net::Shutdown::Both);
    let _ = from.shutdown(std::net::Shutdown::Both);
    result
}

fn relay_frames(
    from: &mut TcpStream,
    to: &mut TcpStream,
    plan: FaultPlan,
    conn: u64,
    dir: u64,
    faults: &AtomicU64,
) -> Result<()> {
    let mut frame_idx = 0u64;
    loop {
        let Some(mut body) = read_frame(from)? else {
            return Ok(());
        };
        let fault = plan.fault_for(conn, dir, frame_idx);
        frame_idx += 1;
        if fault != FrameFault::Passthrough {
            faults.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            FrameFault::Passthrough => write_frame(to, &body)?,
            FrameFault::Garble => {
                if body.is_empty() {
                    // Nothing to garble in the body; corrupt the length
                    // header instead by claiming one phantom byte. The
                    // caller closes both sockets on return.
                    to.write_all(&1u32.to_le_bytes())?;
                    to.flush()?;
                    return Ok(());
                }
                let h = mix(plan.seed ^ frame_idx ^ 0xabcd);
                let pos = (h as usize) % body.len();
                body[pos] ^= 1 << ((h >> 48) % 8);
                write_frame(to, &body)?;
            }
            FrameFault::Truncate => {
                // Honest header, half the body, then a hard close (by
                // the caller): the receiver's read_exact must fail, not
                // hang or succeed.
                to.write_all(&(body.len() as u32).to_le_bytes())?;
                to.write_all(&body[..body.len() / 2])?;
                to.flush()?;
                return Ok(());
            }
            FrameFault::Duplicate => {
                write_frame(to, &body)?;
                write_frame(to, &body)?;
            }
            FrameFault::Drop => {}
            FrameFault::Stall => {
                // One byte of the length header, then silence. Keep the
                // socket open and swallow further source bytes so the
                // stall looks like a slow sender, not a close; the
                // receiver's frame timeout has to do the killing. EOF
                // (or a reset) on the source finally ends the relay,
                // and the caller then closes both sockets.
                to.write_all(&(body.len() as u32).to_le_bytes()[..1])?;
                to.flush()?;
                let mut sink = [0u8; 4096];
                loop {
                    match std::io::Read::read(from, &mut sink) {
                        Ok(0) | Err(_) => return Ok(()),
                        Ok(_) => {}
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan { seed: 42, skip_frames: 1, period: 3 };
        for conn in 0..4 {
            for dir in 0..2 {
                for idx in 0..64 {
                    assert_eq!(
                        plan.fault_for(conn, dir, idx),
                        plan.fault_for(conn, dir, idx),
                        "schedule must be a pure function of (seed, conn, dir, idx)"
                    );
                }
            }
        }
        // The skip window is always clean.
        assert_eq!(plan.fault_for(0, 0, 0), FrameFault::Passthrough);
        assert_eq!(plan.fault_for(9, 1, 0), FrameFault::Passthrough);
    }

    #[test]
    fn period_zero_never_faults() {
        let plan = FaultPlan { seed: 7, skip_frames: 0, period: 0 };
        for idx in 0..128 {
            assert_eq!(plan.fault_for(0, 0, idx), FrameFault::Passthrough);
        }
    }

    #[test]
    fn all_fault_kinds_reachable() {
        let plan = FaultPlan { seed: 3, skip_frames: 0, period: 1 };
        let mut seen = std::collections::HashSet::new();
        for idx in 0..256 {
            seen.insert(plan.fault_for(0, 0, idx));
        }
        for f in [
            FrameFault::Garble,
            FrameFault::Truncate,
            FrameFault::Duplicate,
            FrameFault::Drop,
            FrameFault::Stall,
        ] {
            assert!(seen.contains(&f), "{f:?} never scheduled");
        }
    }

    #[test]
    fn stall_leaves_a_partial_header_and_goes_quiet() {
        use std::io::Read;
        // An echo upstream: reads one frame, writes it back.
        let upstream = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            while let Ok(Some(body)) = read_frame(&mut s) {
                if write_frame(&mut s, &body).is_err() {
                    break;
                }
            }
        });
        // period=1, skip=0, and a seed chosen so the very first
        // client→server frame stalls (the schedule is deterministic, so
        // search a few seeds for one).
        let seed = (0..1000)
            .find(|&s| {
                FaultPlan { seed: s, skip_frames: 0, period: 1 }.fault_for(0, 0, 0)
                    == FrameFault::Stall
            })
            .expect("some seed stalls frame 0");
        let proxy = FaultProxy::start(upstream_addr, FaultPlan { seed, skip_frames: 0, period: 1 })
            .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        write_frame(&mut client, b"hello").unwrap();
        // The upstream got exactly one byte and then nothing: a read
        // with a timeout sees the stall, not a frame and not EOF.
        client.set_read_timeout(Some(std::time::Duration::from_millis(200))).unwrap();
        let mut buf = [0u8; 16];
        match client.read(&mut buf) {
            Ok(n) => panic!("expected a stalled (timed-out) read, got {n} bytes"),
            Err(e) => assert!(
                matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                "unexpected error {e:?}"
            ),
        }
        assert_eq!(proxy.faults_injected(), 1);
        drop(client);
        proxy.shutdown();
        let _ = echo.join();
    }
}
