//! Connection-lifecycle state-machine battery.
//!
//! Drives randomized event sequences — partial reads, pipelined frames,
//! out-of-order completions, timeouts, drains, closes — against
//! [`ConnMachine`] while a shadow model tracks what *must* be true:
//!
//! * the machine's phase always matches the shadow's
//!   {idle, mid-frame, pipelined, draining, closed} view;
//! * responses release strictly in request order, and a completed
//!   request is never dropped while the connection lives;
//! * after close, nothing is ever surfaced or released again — a
//!   request cannot "execute" (be surfaced) once its connection died;
//! * the frame timeout arms exactly while a partial frame is buffered,
//!   and firing it closes the machine as timed out.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use shield_net::machine::{CloseReason, ConnMachine, ConnPhase};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const FRAME_TIMEOUT_MS: u64 = 100;

/// One scripted event. Parameters are indices/sizes the driver clamps
/// into range, so every generated sequence is valid.
#[derive(Debug, Clone)]
enum Event {
    /// Feed one whole frame (body derived from the sequence number).
    WholeFrame,
    /// Feed a proper prefix of a frame and hold the rest.
    PartialFrame { split_hint: usize },
    /// Feed the held remainder, completing the frame.
    FinishPartial,
    /// Complete one outstanding request (picked by hint, any order).
    Complete { pick_hint: usize },
    /// Release the ready prefix and check it.
    TakeReady,
    /// Let `ms` elapse, firing the deadline if it comes due.
    Advance { ms: u64 },
    /// Request a drain.
    StartDrain,
    /// Close with an explicit reason.
    Close,
    /// Feed a frame with an oversized length header (protocol error).
    Poison,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    // A weighted selector (hand-rolled: the vendored proptest has no
    // weight syntax), biased toward busy pipelines; the terminal events
    // (drain, close, poison) stay rare so most scripts live a while.
    (0u8..17, 0usize..64, 1u64..160).prop_map(|(sel, hint, ms)| match sel {
        0..=2 => Event::WholeFrame,
        3..=4 => Event::PartialFrame { split_hint: hint },
        5..=6 => Event::FinishPartial,
        7..=9 => Event::Complete { pick_hint: hint },
        10..=11 => Event::TakeReady,
        12..=13 => Event::Advance { ms },
        14 => Event::StartDrain,
        15 => Event::Close,
        _ => Event::Poison,
    })
}

/// The shadow: an independent, trivially-correct account of the
/// machine's obligations.
#[derive(Default)]
struct Shadow {
    /// Bodies surfaced so far (also yields each one's request id).
    surfaced: u64,
    /// Delivered responses by request id.
    completed: HashMap<u64, Vec<u8>>,
    /// Requests already released (a prefix of 0..surfaced).
    released: u64,
    /// Milliseconds of virtual time at which the frame timeout fires.
    deadline_ms: Option<u64>,
    mid_frame: bool,
    draining: bool,
    closed: Option<CloseReason>,
}

impl Shadow {
    fn outstanding(&self) -> u64 {
        if self.closed.is_some() {
            0
        } else {
            self.surfaced - self.released
        }
    }

    fn phase(&self) -> ConnPhase {
        if let Some(reason) = self.closed {
            ConnPhase::Closed(reason)
        } else if self.draining {
            ConnPhase::Draining
        } else if self.outstanding() > 0 {
            ConnPhase::Pipelined
        } else if self.mid_frame {
            ConnPhase::MidFrame
        } else {
            ConnPhase::Idle
        }
    }

    fn close(&mut self, reason: CloseReason) {
        if self.closed.is_none() {
            self.closed = Some(reason);
            self.deadline_ms = None;
        }
    }
}

fn body_for(req: u64) -> Vec<u8> {
    format!("frame-{req}").into_bytes()
}

fn resp_for(req: u64) -> Vec<u8> {
    format!("resp-{req}").into_bytes()
}

fn wire(body: &[u8]) -> Vec<u8> {
    let mut v = (body.len() as u32).to_le_bytes().to_vec();
    v.extend_from_slice(body);
    v
}

fn run_script(events: &[Event]) -> Result<(), TestCaseError> {
    let base = Instant::now();
    let mut now_ms = 0u64;
    let at = |ms: u64| base + Duration::from_millis(ms);

    let mut machine = ConnMachine::new(Duration::from_millis(FRAME_TIMEOUT_MS));
    let mut shadow = Shadow::default();
    // Remainder of a partially fed frame, if any.
    let mut pending: Option<Vec<u8>> = None;

    // Feeds a chunk, registering every surfaced frame. Checks the
    // closed-surfaces-nothing obligation.
    fn feed(
        machine: &mut ConnMachine,
        shadow: &mut Shadow,
        chunk: &[u8],
        now: Instant,
    ) -> Result<(), TestCaseError> {
        let was_closed = shadow.closed.is_some();
        match machine.on_bytes(chunk, now) {
            Ok(frames) => {
                if was_closed {
                    prop_assert!(frames.is_empty(), "a closed connection surfaced a frame");
                    return Ok(());
                }
                for frame in frames {
                    prop_assert_eq!(
                        &frame,
                        &body_for(shadow.surfaced),
                        "frames must surface in wire order"
                    );
                    let req = machine.begin_request();
                    prop_assert_eq!(req, shadow.surfaced, "request ids are dense and ordered");
                    shadow.surfaced += 1;
                }
                // Each caller then settles mid_frame/deadline for the
                // tail it knows it left behind.
                Ok(())
            }
            Err(_) => {
                prop_assert!(!was_closed, "on_bytes errored on an already-closed machine");
                shadow.close(CloseReason::Protocol);
                shadow.mid_frame = false;
                Ok(())
            }
        }
    }

    for event in events {
        match event {
            Event::WholeFrame => {
                if pending.is_some() {
                    continue; // a partial frame is on the wire; finish it first
                }
                let body = body_for(shadow.surfaced);
                feed(&mut machine, &mut shadow, &wire(&body), at(now_ms))?;
                if shadow.closed.is_none() {
                    shadow.mid_frame = false;
                    shadow.deadline_ms = None;
                }
            }
            Event::PartialFrame { split_hint } => {
                if pending.is_some() || shadow.closed.is_some() {
                    continue;
                }
                let body = body_for(shadow.surfaced);
                let stream = wire(&body);
                let split = 1 + split_hint % (stream.len() - 1); // a proper, non-empty prefix
                feed(&mut machine, &mut shadow, &stream[..split], at(now_ms))?;
                pending = Some(stream[split..].to_vec());
                shadow.mid_frame = true;
                // The clock starts at the FIRST byte of the partial frame.
                shadow.deadline_ms.get_or_insert(now_ms + FRAME_TIMEOUT_MS);
            }
            Event::FinishPartial => {
                let Some(rest) = pending.take() else { continue };
                feed(&mut machine, &mut shadow, &rest, at(now_ms))?;
                if shadow.closed.is_none() {
                    shadow.mid_frame = false;
                    shadow.deadline_ms = None;
                }
            }
            Event::Complete { pick_hint } => {
                // Pick any not-yet-completed outstanding request:
                // completions may arrive in any order.
                let open: Vec<u64> = (shadow.released..shadow.surfaced)
                    .filter(|r| !shadow.completed.contains_key(r))
                    .collect();
                if open.is_empty() {
                    continue;
                }
                let req = open[pick_hint % open.len()];
                machine.complete(req, resp_for(req));
                if shadow.closed.is_none() {
                    shadow.completed.insert(req, resp_for(req));
                }
            }
            Event::TakeReady => {
                let got = machine.take_ready();
                if shadow.closed.is_some() {
                    prop_assert!(got.is_empty(), "a closed connection released a response");
                } else {
                    // Expected: the longest completed prefix. Releasing
                    // anything less drops a completed request; anything
                    // more releases out of order.
                    let mut want = Vec::new();
                    while shadow.completed.contains_key(&shadow.released) {
                        want.push(resp_for(shadow.released));
                        shadow.completed.remove(&shadow.released);
                        shadow.released += 1;
                    }
                    prop_assert_eq!(got, want, "release must be exactly the completed prefix");
                }
            }
            Event::Advance { ms } => {
                now_ms += ms;
                let due =
                    shadow.closed.is_none() && shadow.deadline_ms.is_some_and(|d| now_ms >= d);
                let fired = machine.on_deadline(at(now_ms));
                prop_assert_eq!(
                    fired,
                    due,
                    "deadline must fire iff a partial frame outlived the timeout"
                );
                if due {
                    shadow.close(CloseReason::TimedOut);
                    pending = None;
                }
            }
            Event::StartDrain => {
                let close_now = machine.start_drain();
                if shadow.closed.is_none() {
                    prop_assert_eq!(
                        close_now,
                        shadow.outstanding() == 0 && !shadow.mid_frame,
                        "drain closes immediately iff idle at a boundary"
                    );
                    shadow.draining = true;
                }
            }
            Event::Close => {
                machine.close(CloseReason::PeerClosed);
                shadow.close(CloseReason::PeerClosed);
                pending = None;
            }
            Event::Poison => {
                if shadow.closed.is_some() || pending.is_some() {
                    continue;
                }
                let bad = (u32::MAX).to_le_bytes();
                let was_closed = shadow.closed.is_some();
                prop_assert!(!was_closed);
                prop_assert!(machine.on_bytes(&bad, at(now_ms)).is_err());
                shadow.close(CloseReason::Protocol);
                shadow.mid_frame = false;
            }
        }

        // Core invariant: the machine's view matches the shadow's after
        // every single event.
        prop_assert_eq!(machine.phase(), shadow.phase(), "phase diverged after {:?}", event);
        prop_assert_eq!(machine.outstanding() as u64, shadow.outstanding());
        match shadow.deadline_ms {
            Some(d) if shadow.closed.is_none() => {
                prop_assert_eq!(machine.deadline(), Some(at(d)), "armed deadline diverged")
            }
            _ => prop_assert_eq!(machine.deadline(), None, "deadline armed unexpectedly"),
        }
    }

    // Drain the epilogue: whatever completed must still be releasable
    // (never drop a completed request on a live connection).
    if shadow.closed.is_none() {
        let open: Vec<u64> = (shadow.released..shadow.surfaced)
            .filter(|r| !shadow.completed.contains_key(r))
            .collect();
        for req in open {
            machine.complete(req, resp_for(req));
            shadow.completed.insert(req, resp_for(req));
        }
        let got = machine.take_ready();
        let want: Vec<Vec<u8>> = (shadow.released..shadow.surfaced).map(resp_for).collect();
        prop_assert_eq!(got, want, "a completed request was dropped");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Random event scripts keep the machine and the shadow in lockstep.
    #[test]
    fn random_event_scripts_match_shadow_model(
        events in pvec(event_strategy(), 1..80),
    ) {
        run_script(&events)?;
    }
}

/// A deterministic worst-case script: pipeline, drain mid-flight,
/// complete out of order, then verify ordered release and clean drain.
#[test]
fn drain_with_pipelined_requests_releases_everything_in_order() {
    let script = vec![
        Event::WholeFrame,
        Event::WholeFrame,
        Event::WholeFrame,
        Event::StartDrain,
        Event::Complete { pick_hint: 2 },
        Event::Complete { pick_hint: 0 },
        Event::TakeReady,
        Event::Complete { pick_hint: 0 },
        Event::TakeReady,
    ];
    run_script(&script).unwrap();
}

/// Slow-loris shape: a partial frame that outlives the timeout closes
/// the machine, and nothing — not the held bytes, not a late
/// completion — resurrects it.
#[test]
fn timed_out_partial_frame_stays_dead() {
    let script = vec![
        Event::WholeFrame,
        Event::PartialFrame { split_hint: 2 },
        Event::Advance { ms: FRAME_TIMEOUT_MS + 1 },
        Event::FinishPartial,
        Event::Complete { pick_hint: 0 },
        Event::TakeReady,
    ];
    run_script(&script).unwrap();
}

/// Shutdown of a live server must not wait out the drain deadline on a
/// loop that owns no connection: once the last connection anywhere
/// closes, every loop learns of it and exits. Here the one client holds
/// half a frame (so the drain cannot close it at once) and hangs up
/// shortly after the drain began.
#[test]
fn shutdown_returns_when_the_last_connection_closes() {
    use shield_net::{Server, ServerConfig};
    use shieldstore::{Config, ShieldStore};
    use std::io::Write;
    use std::sync::Arc;

    let enclave = sgx_sim::enclave::EnclaveBuilder::new("drain-wake").epc_bytes(4 << 20).build();
    let store = ShieldStore::new(enclave, Config::shield_opt().buckets(64).mac_hashes(16)).unwrap();
    let server = Server::start(
        Arc::new(store),
        None,
        ServerConfig {
            event_loops: 2,
            secure: false,
            frame_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = std::net::TcpStream::connect(server.addr()).unwrap();
    client.write_all(&[0x04, 0x00]).unwrap();
    let accepted_by = Instant::now() + Duration::from_secs(5);
    while server.active_connections() == 0 {
        assert!(Instant::now() < accepted_by, "server never accepted the client");
        std::thread::sleep(Duration::from_millis(1));
    }

    let hang_up = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        drop(client);
    });
    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    hang_up.join().unwrap();
    assert!(elapsed < Duration::from_secs(1), "shutdown took {elapsed:?} after the last close");
}
