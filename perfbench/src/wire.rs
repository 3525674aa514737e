//! The wire workloads: an open-loop generator over the attested,
//! encrypted protocol, against a 2-loop server in the same process.
//!
//! The generator is one thread driving at most two connections. It is
//! assembled from the public net pieces rather than `KvClient`, so each
//! piece can carry a span: `session::client_handshake` for the session,
//! `Request::encode`/`Response::decode` for the codec, `seal`/`open` for
//! channel crypto, `FrameDecoder` for framing and `poller::Poller` (plus
//! a timerfd) for readiness. Requests leave at their due times whatever
//! the replies do, and every latency is measured from the due time.

use crate::affinity::{self, CpuSet};
use crate::clock::now_ns;
use crate::oracle::Shadow;
use crate::quant::Quantiles;
use crate::report::{Metric, Outcome};
use crate::rig::{self, per, KEY_LEN, SHARDS};
use crate::storage::NoSyncFs;
use crate::timer::Timer;
use crate::trace::{Stage, Tracer, NONE, SHARED};
use sgx_sim::attest::AttestationVerifier;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::Enclave;
use shield_baseline::KvBackend;
use shield_net::poller::{Event, Interest, Poller};
use shield_net::protocol::{OpCode, Request, Response, Status};
use shield_net::session::{self, SessionCrypto};
use shield_net::{CrossingMode, FrameDecoder, Server, ServerConfig};
use shield_workload::{make_key, Generator, Op, Spec};
use shieldstore::{DurabilityPolicy, ShieldStore, StatsSnapshot};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub struct WireWorkload {
    pub name: &'static str,
    pub spec: &'static str,
    pub keys: u64,
    pub val_len: usize,
    /// Open-loop rate of the latency phase, ops/s.
    pub nominal: f64,
    /// Latency limit of the SLO ladder (all-op p90).
    pub limit_ns: u64,
    /// Group-commit size of the write-ahead log, when there is one.
    pub wal_group: Option<usize>,
}

pub const CONNECTIONS: usize = 2;
const SETUPS: usize = 5;
const TIMER_TOKEN: u64 = 1 << 32;
const WARM_NS: u64 = 500_000_000;
/// The SLO ladder: rung k offers `LADDER_BASE * LADDER_RATIO^k` ops/s.
const LADDER_BASE: f64 = 1000.0;
const LADDER_RATIO: f64 = 1.05;
/// The climb stops at this multiple of the nominal rate.
const SWEEP_SPAN: f64 = 32.0;
/// Step of the coarse climb, in rungs.
const COARSE_STEP: i64 = 8;
/// Rungs the fine count runs past the coarse climb's first miss.
const FINE_PAST: i64 = 2;
const RUNG_WARM_NS: u64 = 100_000_000;
/// The quantile a rung's latency limit applies to: the median, because
/// the host's vCPU stalls decide every tail quantile (see README).
const SLO_QUANTILE: f64 = 0.5;
const RUNG_WINDOWS: usize = 6;
const RUNG_WINDOW_NS: u64 = 150_000_000;
/// A rung's wall time including its drain, for budgeting the ladder.
const RUNG_BUDGET_NS: u64 = 1_150_000_000;
/// Share of a traced run spent at the nominal rate, untraced then
/// traced; the SLO ladder gets the rest.
const TRACED_SHARE: f64 = 0.4;
/// Latencies at the nominal rate are the median over this many windows
/// of each window's quantile, so that a host stall of a second or two
/// moves one window, not the figure.
const NOMINAL_WINDOWS: usize = 24;
/// Pending requests give up after this long: the run is broken.
const STALL_NS: u64 = 30_000_000_000;
/// The generator has fallen behind when its median late send exceeds
/// this share of the latency limit.
const LATE_SHARE: f64 = 0.25;
const SPAN_CAP: usize = 1 << 18;
/// A refused or failed request counts as a miss at this latency.
const MISS_NS: u64 = u64::MAX / 4;

struct Conn {
    stream: TcpStream,
    crypto: SessionCrypto,
    decoder: FrameDecoder,
    frames: Vec<Vec<u8>>,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
    inflight: VecDeque<Pending>,
}

struct Pending {
    seq: u64,
    due: u64,
    issued: u64,
    get: bool,
    id: u64,
    version: u32,
    root: u32,
    /// The measured window the request was due in.
    window: Option<u32>,
}

/// The server side of one set-up: store, server, sessions.
struct Rig {
    store: Arc<ShieldStore>,
    server: Server,
    conns: Vec<Conn>,
    handshake_ns: Vec<u64>,
    enclave: Arc<Enclave>,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn build_rig(
    w: &WireWorkload,
    seed: u64,
    wal_dir: Option<&Path>,
    cpu: usize,
) -> Result<Rig, String> {
    let enclave = rig::enclave(seed);
    let durability = w.wal_group.map(DurabilityPolicy::EveryN);
    let store = Arc::new(
        ShieldStore::new_with_storage(
            Arc::clone(&enclave),
            rig::config(w.keys, seed, durability),
            Arc::new(NoSyncFs),
        )
        .map_err(|e| io_err("store", e))?,
    );
    rig::preload(&store, w.keys, w.val_len)?;
    if let Some(dir) = wal_dir {
        store.attach_wal(dir).map_err(|e| io_err("attach wal", e))?;
    }
    let backend: Arc<dyn KvBackend> = store.clone();
    let config = ServerConfig {
        event_loops: SHARDS,
        crossing: CrossingMode::HotCalls,
        secure: true,
        // At shutdown a loop left without connections sits out the whole
        // drain deadline; nothing is in flight then, so keep it short.
        drain_deadline: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    // The event loops inherit the one CPU; set-up keeps every CPU.
    let all = affinity::get().map_err(|e| io_err("affinity", e))?;
    affinity::set(&CpuSet::only(cpu)).map_err(|e| io_err("affinity", e))?;
    let server = Server::start(backend, Some(Arc::clone(&enclave)), config);
    affinity::set(&all).map_err(|e| io_err("affinity", e))?;
    let server = server.map_err(|e| io_err("server", e))?;
    let verifier =
        AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
    let mut conns = Vec::new();
    let mut handshake_ns = Vec::new();
    for c in 0..CONNECTIONS {
        let t0 = now_ns();
        let mut stream = TcpStream::connect(server.addr()).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
        let crypto = session::client_handshake(&mut stream, &verifier, seed ^ (c as u64 + 1))
            .map_err(|e| io_err("handshake", e))?;
        handshake_ns.push(now_ns() - t0);
        stream.set_nonblocking(true).map_err(|e| io_err("nonblocking", e))?;
        conns.push(Conn {
            stream,
            crypto,
            decoder: FrameDecoder::new(),
            frames: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            want_write: false,
            inflight: VecDeque::new(),
        });
    }
    Ok(Rig { store, server, conns, handshake_ns, enclave })
}

/// The seeded op stream: workload spec over the key space, with each
/// key owned by connection `id % CONNECTIONS`.
struct OpStream {
    generator: Generator,
}

impl OpStream {
    fn new(spec: Spec, keys: u64, seed: u64) -> OpStream {
        OpStream { generator: Generator::new(spec, keys, seed ^ 0x5eed_0f0b) }
    }

    fn next(&mut self) -> (bool, u64) {
        match self.generator.next_op() {
            Op::Get(id) => (true, id),
            op => (false, op.key_id()),
        }
    }
}

/// One measured window of a phase.
#[derive(Default)]
struct Window {
    get: Quantiles,
    set: Quantiles,
    /// Every request, misses included, for the SLO check.
    all: Quantiles,
    late: Quantiles,
    /// Requests issued but unanswered when the window's last one fell due.
    backlog: u64,
}

/// What one open-loop phase measured, pooled and per window.
#[derive(Default)]
struct Phase {
    pooled: Window,
    windows: Vec<Window>,
    completed: u64,
    /// When measurement began and when its last reply was decoded.
    measure_from: u64,
    last_done: u64,
    /// Requests refused or failed, warm-up included.
    refused: u64,
}

impl Phase {
    /// Replies per second over the measured span, in Kop/s.
    fn kops(&self) -> f64 {
        per(self.completed as f64, self.last_done.saturating_sub(self.measure_from)) * 1e6
    }

    /// The median over the windows of each window's `q`-quantile.
    fn windowed(&self, q: f64, pick: fn(&Window) -> &Quantiles) -> u64 {
        let mut values: Vec<f64> =
            self.windows.iter().map(|w| pick(w).quantile(q).value as f64).collect();
        rig::median(&mut values) as u64
    }
}

/// Offered load of one phase: `rate` ops/s for a warm-up, whose
/// requests are checked but not measured, then `windows` windows.
struct Load {
    rate: f64,
    warm_ns: u64,
    windows: usize,
    window_ns: u64,
}

/// The generator: connections, readiness, schedule, oracle and spans.
struct Gen<'a> {
    w: &'a WireWorkload,
    conns: Vec<Conn>,
    poller: Poller,
    timer: Timer,
    ops: OpStream,
    shadow: Shadow,
    version: u32,
    seq: u64,
    buf: Vec<u8>,
    tracer: Option<Tracer>,
    cur: Phase,
    /// Set while the SLO ladder probes rates past the knee.
    probing: bool,
    probe_refused: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    bytes: u64,
    frames: u64,
}

impl<'a> Gen<'a> {
    fn new(w: &'a WireWorkload, conns: Vec<Conn>, seed: u64) -> Result<Gen<'a>, String> {
        let poller = Poller::new().map_err(|e| io_err("poller", e))?;
        let timer = Timer::new().map_err(|e| io_err("timerfd", e))?;
        poller
            .register(timer.raw_fd(), TIMER_TOKEN, Interest::READ)
            .map_err(|e| io_err("poll", e))?;
        for (c, conn) in conns.iter().enumerate() {
            poller
                .register(conn.stream.as_raw_fd(), c as u64, Interest::READ)
                .map_err(|e| io_err("poll", e))?;
        }
        let spec = Spec::by_name(w.spec).ok_or_else(|| format!("unknown spec {}", w.spec))?;
        Ok(Gen {
            w,
            conns,
            poller,
            timer,
            ops: OpStream::new(spec, w.keys, seed),
            shadow: Shadow::new(w.keys as usize, w.val_len),
            version: 0,
            seq: 0,
            buf: vec![0; 1 << 16],
            tracer: None,
            cur: Phase::default(),
            probing: false,
            probe_refused: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            bytes: 0,
            frames: 0,
        })
    }

    fn inflight(&self) -> u64 {
        self.conns.iter().map(|c| c.inflight.len() as u64).sum()
    }

    /// Offers `load`, then waits for every reply.
    fn run_phase(&mut self, load: &Load) -> Result<Phase, String> {
        self.cur = Phase::default();
        self.cur.windows.resize_with(load.windows, Window::default);
        let interval = 1e9 / load.rate;
        let issue_ns = load.warm_ns + load.windows as u64 * load.window_ns;
        let total = (issue_ns as f64 / interval) as u64;
        let start = now_ns() + 100_000;
        let measure_from = start + load.warm_ns;
        self.cur.measure_from = measure_from;
        let due = |i: u64| start + (i as f64 * interval) as u64;
        let window = |due: u64| {
            (due >= measure_from).then(|| {
                ((due - measure_from) / load.window_ns).min(load.windows as u64 - 1) as u32
            })
        };
        let mut i = 0;
        let mut armed = None;
        let mut events: Vec<Event> = Vec::new();
        let mut sampled = 0;
        loop {
            let now = now_ns();
            while i < total && due(i) <= now {
                self.issue(due(i), window(due(i)))?;
                i += 1;
            }
            while sampled < load.windows
                && now >= measure_from + (sampled as u64 + 1) * load.window_ns
            {
                self.cur.windows[sampled].backlog = self.inflight();
                sampled += 1;
            }
            if i == total && self.inflight() == 0 {
                break;
            }
            if now > start + issue_ns + STALL_NS {
                return Err(format!(
                    "{} replies missing after {} s",
                    self.inflight(),
                    STALL_NS / 1_000_000_000
                ));
            }
            let timeout = if i < total {
                if armed != Some(i) {
                    self.timer
                        .arm(Duration::from_nanos(due(i).saturating_sub(now_ns())))
                        .map_err(|e| io_err("timerfd", e))?;
                    armed = Some(i);
                }
                None
            } else {
                Some(Duration::from_millis(10))
            };
            events.clear();
            self.poller.wait(&mut events, timeout).map_err(|e| io_err("poll", e))?;
            for ev in &events {
                if ev.token == TIMER_TOKEN {
                    self.timer.clear();
                    armed = None;
                    continue;
                }
                let c = ev.token as usize;
                if ev.writable {
                    self.flush(c)?;
                }
                if ev.readable {
                    self.read(c)?;
                } else if ev.closed {
                    return Err("server closed a connection".into());
                }
            }
        }
        Ok(std::mem::take(&mut self.cur))
    }

    fn issue(&mut self, due: u64, window: Option<u32>) -> Result<(), String> {
        let t0 = now_ns();
        let (get, id) = self.ops.next();
        let key = make_key(id, KEY_LEN);
        let (op, value, version) = if get {
            (OpCode::Get, Vec::new(), 0)
        } else {
            self.version += 1;
            (OpCode::Set, Shadow::value(id, self.version, self.w.val_len), self.version)
        };
        let t1 = now_ns();
        let body = Request { op, key, value }.encode();
        let t2 = now_ns();
        let c = (id % CONNECTIONS as u64) as usize;
        let conn = &mut self.conns[c];
        let sealed = conn.crypto.seal(&body);
        let t3 = now_ns();
        conn.out.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
        conn.out.extend_from_slice(&sealed);
        self.flush(c)?;
        let t4 = now_ns();
        let seq = self.seq;
        self.seq += 1;
        self.attempted += 1;
        let root = match &mut self.tracer {
            Some(t) => {
                let root = t.open(Stage::Request, t1, seq);
                t.span(Stage::Gen, t0, t1, root, seq);
                t.span(Stage::Encode, t1, t2, root, seq);
                t.span(Stage::Seal, t2, t3, root, seq);
                t.span(Stage::Write, t3, t4, root, seq);
                root
            }
            None => NONE,
        };
        if let Some(w) = window {
            let late = t0.saturating_sub(due);
            self.cur.pooled.late.record(late);
            self.cur.windows[w as usize].late.record(late);
        }
        self.conns[c].inflight.push_back(Pending {
            seq,
            due,
            issued: t1,
            get,
            id,
            version,
            root,
            window,
        });
        Ok(())
    }

    fn flush(&mut self, c: usize) -> Result<(), String> {
        let conn = &mut self.conns[c];
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(n) => {
                    conn.out_pos += n;
                    self.bytes += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(io_err("write", e)),
            }
        }
        let pending = conn.out_pos < conn.out.len();
        if !pending {
            conn.out.clear();
            conn.out_pos = 0;
        }
        if pending != conn.want_write {
            conn.want_write = pending;
            let interest = if pending { Interest::READ_WRITE } else { Interest::READ };
            self.poller
                .modify(conn.stream.as_raw_fd(), c as u64, interest)
                .map_err(|e| io_err("poll", e))?;
        }
        Ok(())
    }

    fn read(&mut self, c: usize) -> Result<(), String> {
        let t0 = now_ns();
        let conn = &mut self.conns[c];
        let n = match conn.stream.read(&mut self.buf) {
            Ok(0) => return Err("server closed a connection".into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(io_err("read", e)),
        };
        let t1 = now_ns();
        let mut frames = std::mem::take(&mut conn.frames);
        conn.decoder.feed(&self.buf[..n], &mut frames).map_err(|e| io_err("frame", e))?;
        let t2 = now_ns();
        self.bytes += n as u64;
        self.frames += frames.len() as u64;
        if let Some(t) = &mut self.tracer {
            t.span(Stage::Read, t0, t1, NONE, SHARED);
            t.span(Stage::Frame, t1, t2, NONE, SHARED);
        }
        for frame in frames.drain(..) {
            self.complete(c, &frame)?;
        }
        self.conns[c].frames = frames;
        Ok(())
    }

    fn complete(&mut self, c: usize, frame: &[u8]) -> Result<(), String> {
        let conn = &mut self.conns[c];
        let t0 = now_ns();
        let plain = conn.crypto.open(frame).map_err(|e| io_err("open", e))?;
        let t1 = now_ns();
        let resp = Response::decode(&plain).map_err(|e| io_err("decode", e))?;
        let t2 = now_ns();
        let p = conn.inflight.pop_front().ok_or("reply without a request")?;
        let ok = match (p.get, resp.status) {
            (true, Status::Ok) if self.shadow.matches(p.id as usize, p.id, &resp.value) => true,
            (true, Status::Ok | Status::NotFound) => {
                self.wrong += 1;
                self.failed += 1;
                if self.wrong <= 5 {
                    eprintln!("wrong value: get of key {} returned {:?}", p.id, resp.status);
                }
                false
            }
            (false, Status::Ok) => {
                self.shadow.acked(p.id as usize, p.version);
                true
            }
            _ => {
                // Refused or failed: a miss for the phase. Above the knee
                // of the SLO ladder that is the answer being sought, not
                // a failure of the run.
                self.cur.refused += 1;
                if self.probing {
                    self.probe_refused += 1;
                } else {
                    self.failed += 1;
                }
                false
            }
        };
        if let Some(t) = &mut self.tracer {
            t.span(Stage::Open, t0, t1, p.root, p.seq);
            t.span(Stage::Decode, t1, t2, p.root, p.seq);
            t.close(p.root, Stage::Request, p.issued, t2);
        }
        if let Some(w) = p.window {
            let phase = &mut self.cur;
            if ok {
                phase.completed += 1;
                phase.last_done = t2;
                let latency = t2 - p.due;
                for win in [&mut phase.pooled, &mut phase.windows[w as usize]] {
                    if p.get { &mut win.get } else { &mut win.set }.record(latency);
                    win.all.record(latency);
                }
            } else {
                phase.pooled.all.record(MISS_NS);
                phase.windows[w as usize].all.record(MISS_NS);
            }
        }
        Ok(())
    }
}

fn rung_rate(k: i64) -> f64 {
    LADDER_BASE * LADDER_RATIO.powi(k as i32)
}

/// The verdict on one rung. It passes when its all-op median latency
/// and its backlog (requests unanswered at a window's end), each the
/// median over the rung's windows, stay within the limit and one limit's
/// worth of arrivals, and no request is refused.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Pass,
    /// Latency over the limit.
    Slow,
    /// Backlog over the limit, or a request refused.
    Behind,
}

/// One tested rung, for the ladder log.
struct Rung {
    rate: f64,
    tail_us: f64,
    verdict: Verdict,
}

fn test_rung(g: &mut Gen, k: i64) -> Result<(Verdict, f64), String> {
    let rate = rung_rate(k);
    let load =
        Load { rate, warm_ns: RUNG_WARM_NS, windows: RUNG_WINDOWS, window_ns: RUNG_WINDOW_NS };
    g.probing = true;
    let p = g.run_phase(&load);
    g.probing = false;
    let p = p?;
    let limit = g.w.limit_ns;
    let tail = p.windowed(SLO_QUANTILE, |w| &w.all);
    let mut backlogs: Vec<f64> = p.windows.iter().map(|w| w.backlog as f64).collect();
    let verdict = if p.refused > 0 || rig::median(&mut backlogs) > rate * limit as f64 / 1e9 {
        Verdict::Behind
    } else if tail > limit {
        Verdict::Slow
    } else {
        Verdict::Pass
    };
    Ok((verdict, tail as f64 / 1e3))
}

/// Climbs the ladder from the nominal rung and returns the SLO rate in
/// Kop/s, with the log of rungs tested.
///
/// A coarse climb in steps of `COARSE_STEP` rungs brackets the knee
/// between the last rung that passed, `b`, and the first that missed.
/// Every rung above `b` up to `FINE_PAST` rungs past that miss is then
/// tested once, and the answer is rung `b + passes`: near the knee the
/// host decides single verdicts, so each one moves the answer by one
/// rung instead of ending the climb (as a highest-pass rule would), and
/// a knee just above a coarse rung that missed by chance is still found.
/// Both climbs stop at `SWEEP_SPAN` times the nominal rate and at
/// `max_tests` rungs.
fn slo_ladder(g: &mut Gen, max_tests: usize) -> Result<(f64, Vec<Rung>), String> {
    let first = ((g.w.nominal / LADDER_BASE).ln() / LADDER_RATIO.ln()).round() as i64;
    let last = ((g.w.nominal * SWEEP_SPAN / LADDER_BASE).ln() / LADDER_RATIO.ln()).ceil() as i64;
    let mut log = Vec::new();
    let mut test = |g: &mut Gen, k: i64| -> Result<Option<Verdict>, String> {
        if log.len() >= max_tests || k > last {
            return Ok(None);
        }
        let (verdict, tail_us) = test_rung(g, k)?;
        log.push(Rung { rate: rung_rate(k), tail_us, verdict });
        Ok(Some(verdict))
    };
    let mut best = None;
    let mut k = first;
    while let Some(Verdict::Pass) = test(g, k)? {
        best = Some(k);
        k += COARSE_STEP;
    }
    // No passing rung reads as half the first, so the metric is never 0.
    let Some(b) = best else {
        return Ok((rung_rate(first) / 2.0 / 1e3, log));
    };
    let mut passes = 0;
    for k in b + 1..=b + COARSE_STEP + FINE_PAST {
        match test(g, k)? {
            None => break,
            Some(Verdict::Pass) => passes += 1,
            Some(_) => {}
        }
    }
    Ok((rung_rate(b + passes) / 1e3, log))
}

/// A blocking stream that answers the client's hello in-process, giving
/// the replay a matched client/server session pair without a socket.
struct LocalHandshake<'a> {
    enclave: &'a Enclave,
    to_server: Vec<u8>,
    to_client: io::Cursor<Vec<u8>>,
    server: Option<SessionCrypto>,
}

impl Write for LocalHandshake<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.to_server.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for LocalHandshake<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.server.is_none() {
            let hello = self.to_server.get(4..).unwrap_or_default();
            let (crypto, quote, _tenant) = session::server_key_exchange(hello, self.enclave)
                .map_err(|e| io::Error::other(e.to_string()))?;
            let mut frame = (quote.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&quote);
            self.to_client = io::Cursor::new(frame);
            self.server = Some(crypto);
        }
        self.to_client.read(buf)
    }
}

/// Server-side self times per replayed op, split by op kind where the
/// store's own cost is concerned.
#[derive(Default)]
struct Replay {
    ops: u64,
    get_ns: (u64, u64),
    set_ns: (u64, u64),
}

/// Replays `count` ops of the stream from `skip` in-process through the
/// public server-side stages (open, decode, execute, encode, seal),
/// checking every reply against the shadow.
fn replay(g: &mut Gen, rig: &Rig, seed: u64, skip: u64, count: u64) -> Result<Replay, String> {
    let verifier = AttestationVerifier::for_enclave(&rig.enclave)
        .expect_measurement(*rig.enclave.measurement());
    let mut pipe = LocalHandshake {
        enclave: &rig.enclave,
        to_server: Vec::new(),
        to_client: io::Cursor::new(Vec::new()),
        server: None,
    };
    let mut client = session::client_handshake(&mut pipe, &verifier, seed)
        .map_err(|e| io_err("replay handshake", e))?;
    let mut server = pipe.server.take().ok_or("replay handshake produced no server session")?;
    let spec = Spec::by_name(g.w.spec).ok_or("unknown spec")?;
    let mut ops = OpStream::new(spec, g.w.keys, seed);
    for _ in 0..skip {
        ops.next();
    }
    let store: &dyn KvBackend = &*rig.store;
    let tracer = g.tracer.as_mut().ok_or("replay needs a tracer")?;
    let mut out = Replay::default();
    for _ in 0..count {
        let (get, id) = ops.next();
        let (op, value, version) = if get {
            (OpCode::Get, Vec::new(), 0)
        } else {
            g.version += 1;
            (OpCode::Set, Shadow::value(id, g.version, g.w.val_len), g.version)
        };
        let sealed = client.seal(&Request { op, key: make_key(id, KEY_LEN), value }.encode());
        let seq = g.seq;
        g.seq += 1;
        g.attempted += 1;
        let t0 = now_ns();
        let root = tracer.open(Stage::Replay, t0, seq);
        let plain = server.open(&sealed).map_err(|e| io_err("replay open", e))?;
        let t1 = now_ns();
        let req = Request::decode(&plain).map_err(|e| io_err("replay decode", e))?;
        let t2 = now_ns();
        let resp = shield_net::server::execute(store, &req);
        let t3 = now_ns();
        let body = resp.encode();
        let t4 = now_ns();
        let reply = server.seal(&body);
        let t5 = now_ns();
        tracer.span(Stage::ServerOpen, t0, t1, root, seq);
        tracer.span(Stage::ServerDecode, t1, t2, root, seq);
        tracer.span(Stage::Execute, t2, t3, root, seq);
        tracer.span(Stage::ServerEncode, t3, t4, root, seq);
        tracer.span(Stage::ServerSeal, t4, t5, root, seq);
        tracer.close(root, Stage::Replay, t0, t5);
        let kind = if get { &mut out.get_ns } else { &mut out.set_ns };
        kind.0 += 1;
        kind.1 += t3 - t2;
        out.ops += 1;
        let resp = Response::decode(&client.open(&reply).map_err(|e| io_err("replay reply", e))?)
            .map_err(|e| io_err("replay reply", e))?;
        match (get, resp.status) {
            (true, Status::Ok) if g.shadow.matches(id as usize, id, &resp.value) => {}
            (false, Status::Ok) => g.shadow.acked(id as usize, version),
            (true, Status::Ok | Status::NotFound) => {
                g.wrong += 1;
                g.failed += 1;
            }
            _ => g.failed += 1,
        }
    }
    Ok(out)
}

/// Times `n` single-op group commits (`flush_wal` after one write) on
/// a small store whose log really fsyncs, and returns the median in ms.
fn flush_ms(w: &WireWorkload, seed: u64, dir: &Path, n: usize) -> Result<f64, String> {
    let durability = w.wal_group.map(DurabilityPolicy::EveryN);
    let store = ShieldStore::new(rig::enclave(seed), rig::config(1024, seed, durability))
        .map_err(|e| io_err("store", e))?;
    store.attach_wal(dir).map_err(|e| io_err("attach wal", e))?;
    let mut times = Vec::new();
    for i in 0..n as u64 {
        store
            .set(&make_key(i, KEY_LEN), &Shadow::value(i, 1, w.val_len))
            .map_err(|e| io_err("set", e))?;
        let t0 = now_ns();
        store.flush_wal().map_err(|e| io_err("flush", e))?;
        times.push((now_ns() - t0) as f64 / 1e6);
    }
    Ok(rig::median(&mut times))
}

/// Flushes the log, shuts everything down, recovers a fresh store from
/// the log alone and checks every acknowledged write byte for byte.
/// Returns the number of writes lost.
fn check_durability(
    g: &Gen,
    rig: Rig,
    seed: u64,
    wal_dir: &Path,
    counter_path: &Path,
) -> Result<u64, String> {
    let mark = rig.store.flush_wal().map_err(|e| io_err("flush", e))?;
    let Rig { store, server, conns, enclave, .. } = rig;
    drop(conns);
    server.shutdown();
    let config = store.config().clone();
    drop(store);
    drop(enclave);
    let t0 = now_ns();
    let counter = PersistentCounter::open(counter_path).map_err(|e| io_err("counter", e))?;
    let recovered = ShieldStore::recover(rig::enclave(seed), config, None, &counter, wal_dir)
        .map_err(|e| io_err("recover", e))?;
    let mut lost = 0;
    let mut checked = 0;
    for (slot, version) in g.shadow.written() {
        let id = slot as u64;
        checked += 1;
        let want = Shadow::value(id, version, g.w.val_len);
        match recovered.get(&make_key(id, KEY_LEN)) {
            Ok(v) if v == want => {}
            other => {
                lost += 1;
                if lost <= 5 {
                    eprintln!(
                        "lost write: key {id} version {version}: {:?}",
                        other.map(|v| v.len())
                    );
                }
            }
        }
    }
    println!(
        "durability: flushed at {:?}; recovered in {:.2} s; {checked} acked keys checked, {lost} lost",
        mark,
        (now_ns() - t0) as f64 / 1e9
    );
    Ok(lost)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn print_phase(label: &str, p: &Phase) {
    for (name, q) in [("get", &p.pooled.get), ("set", &p.pooled.set), ("late", &p.pooled.late)] {
        let p90 = q.quantile(0.9);
        let p99 = q.quantile(0.99);
        println!(
            "  {label} {name}: p50 {:.1} us, p90 {:.1} us ({} beyond), p99 {:.1} us ({} beyond), \
             max {:.1} us; {} samples",
            us(q.quantile(0.5).value),
            us(p90.value),
            p90.beyond,
            us(p99.value),
            p99.beyond,
            us(q.max()),
            p99.samples
        );
    }
}

pub fn run(
    w: &WireWorkload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    // The log and its recovery counter live here for the run only.
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    let result = run_in(w, seed, seconds, trace, out_dir, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(
    w: &WireWorkload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
    run_dir: &Path,
) -> Result<Outcome, String> {
    let wal_dir = run_dir.join("wal");
    // The event loops and the generator share one CPU while measuring:
    // across vCPUs every hop of a round trip wakes a halted vCPU through
    // the hypervisor, at a cost that follows the host's load (README).
    let all = affinity::get().map_err(|e| io_err("affinity", e))?;
    let cpu = all.last().ok_or("no CPU to run on")?;
    // Set up several times and keep the last rig: the median is the
    // set-up figure.
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let _ = std::fs::remove_dir_all(run_dir);
        std::fs::create_dir_all(run_dir).map_err(|e| io_err("out dir", e))?;
        let t0 = now_ns();
        let r = build_rig(w, seed, w.wal_group.map(|_| wal_dir.as_path()), cpu)?;
        setups.push((now_ns() - t0) as f64 / 1e9);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let setup_s = rig::median(&mut setups);
    let handshake_us =
        rig.handshake_ns.iter().sum::<u64>() as f64 / rig.handshake_ns.len() as f64 / 1e3;
    println!("{}: set-up {:.3} s (median of {SETUPS}: {setups:.3?})", w.name, setup_s);

    let mut g = Gen::new(w, std::mem::take(&mut rig.conns), seed)?;
    let total_ns = seconds * 1_000_000_000;
    affinity::set(&CpuSet::only(cpu)).map_err(|e| io_err("affinity", e))?;
    let outcome = if trace {
        traced(&mut g, &rig, seed, total_ns, handshake_us, run_dir)
    } else {
        untraced(&mut g, &rig, w, total_ns, setup_s)
    };
    affinity::set(&all).map_err(|e| io_err("affinity", e))?;
    let outcome = outcome?;
    let mut metrics = outcome;
    let lost = match w.wal_group {
        Some(_) => {
            rig.conns = std::mem::take(&mut g.conns);
            check_durability(&g, rig, seed, &wal_dir, &run_dir.join("counter"))?
        }
        None => {
            drop(std::mem::take(&mut g.conns));
            rig.server.shutdown();
            0
        }
    };
    if let Some(t) = &g.tracer {
        let path = out_dir.join(format!("trace-{}.csv", w.name));
        t.write_csv(&path).map_err(|e| io_err("trace file", e))?;
        println!("spans written to {}", path.display());
    }
    let failed = g.failed + lost;
    let attempted = g.attempted;
    if trace {
        metrics.push(Metric {
            name: "failed_frac",
            unit: "ratio",
            value: per(failed as f64, attempted),
        });
    }
    Ok(Outcome { correct: g.wrong == 0 && lost == 0, attempted, failed, metrics })
}

fn server_counters(rig: &Rig) -> (StatsSnapshot, u64, u64, u64) {
    let penalties: u64 = rig.server.worker_penalties_ns().iter().sum();
    (rig.store.snapshot(), penalties, rig.server.cross_loop_handoffs(), rig.server.shed_requests())
}

fn untraced(
    g: &mut Gen,
    rig: &Rig,
    w: &WireWorkload,
    total_ns: u64,
    setup_s: f64,
) -> Result<Vec<Metric>, String> {
    let window_ns = (total_ns - WARM_NS) / NOMINAL_WINDOWS as u64;
    let load = Load { rate: w.nominal, warm_ns: WARM_NS, windows: NOMINAL_WINDOWS, window_ns };
    let (before, pen0, ..) = server_counters(rig);
    let p = g.run_phase(&load)?;
    let (after, pen1, ..) = server_counters(rig);
    print_phase("nominal", &p);
    let per_window: Vec<f64> = p.windows.iter().map(|w| us(w.get.quantile(0.5).value)).collect();
    println!("  nominal get p50 per window, us: {per_window:.1?}");
    check_generator(w, &p)?;
    let ops = after.ops.total_ops() - before.ops.total_ops();
    let sgx_ns_per_op = per((pen1 - pen0) as f64, ops);
    let footprint = rig::bytes_per_user_byte(&rig.store, w.val_len);

    let q = |x: f64, pick: fn(&Window) -> &Quantiles| us(p.windowed(x, pick));
    let metrics = vec![
        Metric { name: "setup_s", unit: "s", value: setup_s },
        Metric { name: "throughput_kops", unit: "Kop/s", value: p.kops() },
        Metric { name: "get_p50_us", unit: "us", value: q(0.5, |w| &w.get) },
        Metric { name: "set_p50_us", unit: "us", value: q(0.5, |w| &w.set) },
        Metric { name: "sgx_ns_per_op", unit: "ns", value: sgx_ns_per_op },
        Metric { name: "bytes_per_user_byte", unit: "ratio", value: footprint },
    ];
    Ok(metrics)
}

/// The generator is valid while its median late send stays a small
/// share of the latency limit; otherwise the latencies measure the
/// generator. (Its tail is reported but not judged: host vCPU stalls
/// reach it.)
fn check_generator(w: &WireWorkload, p: &Phase) -> Result<(), String> {
    let late = p.pooled.late.quantile(0.5).value;
    if late as f64 > w.limit_ns as f64 * LATE_SHARE {
        return Err(format!(
            "invalid run: the generator fell behind its schedule (late p50 {:.1} us)",
            us(late)
        ));
    }
    Ok(())
}

fn traced(
    g: &mut Gen,
    rig: &Rig,
    seed: u64,
    total_ns: u64,
    handshake_us: f64,
    run_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let w = g.w;
    let half_ns = (total_ns as f64 * TRACED_SHARE / 2.0) as u64;
    let load = Load { rate: w.nominal, warm_ns: WARM_NS, windows: 1, window_ns: half_ns - WARM_NS };
    let plain = g.run_phase(&load)?;
    g.tracer = Some(Tracer::new(SPAN_CAP));
    let skip = g.seq;
    let (s0, _, hand0, shed0) = server_counters(rig);
    let bytes0 = g.bytes;
    let frames0 = g.frames;
    let p = g.run_phase(&load)?;
    let (s1, _, hand1, shed1) = server_counters(rig);
    let (bytes1, frames1) = (g.bytes, g.frames);
    print_phase("traced", &p);
    check_generator(w, &p)?;
    let issued = g.seq - skip;
    let d = s1.diff(&s0);
    let ops = d.ops.total_ops();
    let rep = replay(g, rig, seed, skip, issued)?;
    let flush = match w.wal_group {
        Some(_) => flush_ms(w, seed, &run_dir.join("flush-wal"), 16)?,
        None => 0.0,
    };
    // The ladder runs untraced; the spans so far are the traced phase's.
    let tracer = g.tracer.take();
    let max_tests = (total_ns.saturating_sub(2 * half_ns) / RUNG_BUDGET_NS).max(1) as usize;
    let (slo, log) = slo_ladder(g, max_tests)?;
    for r in &log {
        println!("  rung {:>9.0} op/s: p50 {:>10.1} us {:?}", r.rate, r.tail_us, r.verdict);
    }
    println!(
        "  slo rate {slo:.3} Kop/s (p50 <= {} us); {} requests refused past the knee",
        w.limit_ns / 1000,
        g.probe_refused
    );
    g.tracer = tracer;
    let t = g.tracer.as_ref().expect("tracer installed above");
    let client_ops = t.total(Stage::Request).count;
    let mean = |s: Stage, n: u64| per(t.total(s).ns as f64, n);
    let c = |s: Stage| mean(s, client_ops);
    let sv = |s: Stage| mean(s, rep.ops);
    let rtt_us = c(Stage::Request) / 1e3;
    let stages = [
        ("client encode", c(Stage::Encode)),
        ("client seal", c(Stage::Seal)),
        ("client write(2)", c(Stage::Write)),
        ("server open", sv(Stage::ServerOpen)),
        ("server decode", sv(Stage::ServerDecode)),
        ("server execute", sv(Stage::Execute)),
        ("server encode", sv(Stage::ServerEncode)),
        ("server seal", sv(Stage::ServerSeal)),
        ("client read(2)", c(Stage::Read)),
        ("client frame decode", c(Stage::Frame)),
        ("client open", c(Stage::Open)),
        ("client decode", c(Stage::Decode)),
    ];
    let staged_us: f64 = stages.iter().map(|(_, ns)| ns / 1e3).sum();
    let residual_us = rtt_us - staged_us;
    println!(
        "stage breakdown of the mean round trip ({client_ops} requests, {} replayed):",
        rep.ops
    );
    for (name, ns) in stages {
        println!("  {name:<22} {:>9.3} us  {:>5.1}%", ns / 1e3, 100.0 * ns / 1e3 / rtt_us);
    }
    println!(
        "  {:<22} {:>9.3} us  {:>5.1}%",
        "socket/engine residual",
        residual_us,
        100.0 * residual_us / rtt_us
    );
    println!("  {:<22} {:>9.3} us", "= mean round trip", rtt_us);

    let overhead = p.pooled.all.quantile(0.5).value as f64
        / plain.pooled.all.quantile(0.5).value.max(1) as f64
        - 1.0;
    let user_bytes = (KEY_LEN + w.val_len) as f64;
    let logged = d.hists.wal_group.sum_ns() as f64;
    let f = |v: u64| per(v as f64, ops);
    let metrics = vec![
        Metric { name: "workload.gen_ns_per_op", unit: "ns", value: mean(Stage::Gen, issued) },
        Metric {
            name: "workload.late_p99_us",
            unit: "us",
            value: us(p.pooled.late.quantile(0.99).value),
        },
        Metric { name: "workload.late_max_us", unit: "us", value: us(p.pooled.late.max()) },
        Metric {
            name: "net.protocol.encode_ns_per_op",
            unit: "ns",
            value: c(Stage::Encode) + sv(Stage::ServerEncode),
        },
        Metric {
            name: "net.protocol.decode_ns_per_op",
            unit: "ns",
            value: sv(Stage::ServerDecode) + c(Stage::Decode),
        },
        Metric {
            name: "net.protocol.wire_bytes_per_op",
            unit: "B",
            value: per((bytes1 - bytes0) as f64, client_ops),
        },
        Metric {
            name: "net.frame.decode_ns_per_frame",
            unit: "ns",
            value: mean(Stage::Frame, frames1 - frames0),
        },
        Metric {
            name: "net.session.seal_ns_per_op",
            unit: "ns",
            value: c(Stage::Seal) + sv(Stage::ServerSeal),
        },
        Metric {
            name: "net.session.open_ns_per_op",
            unit: "ns",
            value: sv(Stage::ServerOpen) + c(Stage::Open),
        },
        Metric { name: "net.session.handshake_us", unit: "us", value: handshake_us },
        Metric {
            name: "net.client.syscall_ns_per_op",
            unit: "ns",
            value: c(Stage::Write) + c(Stage::Read),
        },
        Metric { name: "net.server.execute_ns_per_op", unit: "ns", value: sv(Stage::Execute) },
        Metric { name: "net.engine.rtt_us", unit: "us", value: rtt_us },
        Metric { name: "net.engine.residual_us", unit: "us", value: residual_us },
        Metric {
            name: "net.engine.cross_loop_handoffs_per_op",
            unit: "count",
            value: f(hand1 - hand0),
        },
        Metric { name: "net.engine.shed_per_op", unit: "count", value: f(shed1 - shed0) },
        Metric { name: "core.get_ns", unit: "ns", value: per(rep.get_ns.1 as f64, rep.get_ns.0) },
        Metric { name: "core.set_ns", unit: "ns", value: per(rep.set_ns.1 as f64, rep.set_ns.0) },
        Metric {
            name: "core.integrity_verifications_per_op",
            unit: "count",
            value: f(d.ops.integrity_verifications),
        },
        Metric { name: "core.macs_gathered_per_op", unit: "count", value: f(d.ops.macs_gathered) },
        Metric {
            name: "core.key_decryptions_per_op",
            unit: "count",
            value: f(d.ops.key_decryptions),
        },
        Metric { name: "core.hint_skips_per_op", unit: "count", value: f(d.ops.hint_skips) },
        Metric {
            name: "core.realloc_updates_per_op",
            unit: "count",
            value: f(d.ops.realloc_updates),
        },
        Metric {
            name: "core.alloc.heap_bytes_per_user_byte",
            unit: "ratio",
            value: s1.heap_live_bytes as f64 / (s1.entries as f64 * user_bytes),
        },
        Metric { name: "core.alloc.chunks", unit: "count", value: s1.heap_chunks as f64 },
        Metric { name: "core.wal.fsyncs_per_op", unit: "count", value: f(d.wal_fsyncs) },
        Metric {
            name: "core.wal.bytes_per_user_byte",
            unit: "ratio",
            value: d.wal_bytes as f64 / (logged * user_bytes).max(1.0),
        },
        Metric {
            name: "core.wal.records_per_commit",
            unit: "count",
            value: per(logged, d.wal_records),
        },
        Metric { name: "core.wal.flush_ms", unit: "ms", value: flush },
        Metric { name: "crypto.bytes_per_op", unit: "B", value: f(d.crypto_bytes) },
        Metric { name: "crypto.ops_per_op", unit: "count", value: f(d.crypto_ops) },
        Metric { name: "sgx.hotcalls_per_op", unit: "count", value: f(d.sim.hotcalls) },
        Metric { name: "sgx.ocalls_per_op", unit: "count", value: f(d.sim.ocalls) },
        Metric { name: "sgx.epc_faults_per_op", unit: "count", value: f(d.sim.epc_faults) },
        Metric { name: "sgx.epc_evictions_per_op", unit: "count", value: f(d.sim.epc_evictions) },
        Metric { name: "trace.overhead_frac", unit: "ratio", value: overhead },
        Metric { name: "slo_rate_kops", unit: "Kop/s", value: slo },
        Metric {
            name: "tail.get_p90_us",
            unit: "us",
            value: us(plain.pooled.get.quantile(0.9).value),
        },
        Metric {
            name: "tail.set_p90_us",
            unit: "us",
            value: us(plain.pooled.set.quantile(0.9).value),
        },
        Metric {
            name: "tail.get_p99_us",
            unit: "us",
            value: us(plain.pooled.get.quantile(0.99).value),
        },
        Metric {
            name: "tail.set_p99_us",
            unit: "us",
            value: us(plain.pooled.set.quantile(0.99).value),
        },
    ];
    Ok(metrics)
}
