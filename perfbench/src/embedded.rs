//! The embedded workload: the store in-process with no network, two
//! closed-loop workers each owning one shard's keys (paper §5.3), every
//! call timed from outside.

use crate::clock::now_ns;
use crate::oracle::Shadow;
use crate::quant::Quantiles;
use crate::report::{Metric, Outcome};
use crate::rig::{self, per, KEY_LEN, SHARDS};
use crate::trace::{Stage, Tracer, NONE};
use sgx_sim::vclock;
use shield_workload::{make_key, Generator, Op, Spec};
use shieldstore::ShieldStore;
use std::path::Path;

pub struct EmbeddedWorkload {
    pub name: &'static str,
    pub spec: &'static str,
    pub keys: u64,
    pub val_len: usize,
    /// Per-call p99 limit; the closed-loop rate counts as the SLO rate
    /// while it holds.
    pub limit_ns: u64,
}

const SETUPS: usize = 3;
/// Per-layer metrics of layers the in-process workload never enters:
/// the open-loop schedule, the network stack and the write-ahead log.
const IDLE_LAYERS: [(&str, &str); 19] = [
    ("workload.late_p99_us", "us"),
    ("workload.late_max_us", "us"),
    ("net.protocol.encode_ns_per_op", "ns"),
    ("net.protocol.decode_ns_per_op", "ns"),
    ("net.protocol.wire_bytes_per_op", "B"),
    ("net.frame.decode_ns_per_frame", "ns"),
    ("net.session.seal_ns_per_op", "ns"),
    ("net.session.open_ns_per_op", "ns"),
    ("net.session.handshake_us", "us"),
    ("net.client.syscall_ns_per_op", "ns"),
    ("net.server.execute_ns_per_op", "ns"),
    ("net.engine.rtt_us", "us"),
    ("net.engine.residual_us", "us"),
    ("net.engine.cross_loop_handoffs_per_op", "count"),
    ("net.engine.shed_per_op", "count"),
    ("core.wal.fsyncs_per_op", "count"),
    ("core.wal.bytes_per_user_byte", "ratio"),
    ("core.wal.records_per_commit", "count"),
    ("core.wal.flush_ms", "ms"),
];
const WARM_NS: u64 = 500_000_000;
const SPAN_CAP: usize = 1 << 18;

/// One worker: its shard's keys, op stream and shadow.
struct Worker {
    ids: Vec<u64>,
    generator: Generator,
    shadow: Shadow,
    version: u32,
}

#[derive(Default)]
struct Tally {
    get: Quantiles,
    set: Quantiles,
    /// Ops completed after the warm-up.
    measured: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    penalty_ns: u64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.get.merge(&o.get);
        self.set.merge(&o.set);
        self.measured += o.measured;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.penalty_ns += o.penalty_ns;
    }
}

fn work(
    store: &ShieldStore,
    w: &mut Worker,
    val_len: usize,
    warm_end: u64,
    end: u64,
    mut tracer: Option<&mut Tracer>,
) -> Tally {
    let mut t = Tally::default();
    vclock::reset();
    let mut penalty_at_warm = None;
    loop {
        if t.attempted % 64 == 0 {
            let now = now_ns();
            if now >= end {
                break;
            }
            if now >= warm_end && penalty_at_warm.is_none() {
                penalty_at_warm = Some(vclock::now());
            }
        }
        let g0 = now_ns();
        let op = w.generator.next_op();
        let slot = op.key_id() as usize;
        let id = w.ids[slot];
        let key = make_key(id, KEY_LEN);
        let set = match op {
            Op::Get(_) => None,
            _ => {
                w.version += 1;
                Some((w.version, Shadow::value(id, w.version, val_len)))
            }
        };
        let t0 = now_ns();
        let (ok, stage) = match &set {
            None => {
                let got = store.get(&key);
                let t1 = now_ns();
                let ok = match got {
                    Ok(v) if w.shadow.matches(slot, id, &v) => true,
                    other => {
                        t.wrong += 1;
                        if t.wrong <= 5 {
                            eprintln!("wrong value: get of key {id}: {:?}", other.map(|v| v.len()));
                        }
                        false
                    }
                };
                if t0 >= warm_end {
                    t.get.record(t1 - t0);
                }
                (ok, (Stage::CoreGet, t1))
            }
            Some((version, value)) => {
                let res = store.set(&key, value);
                let t1 = now_ns();
                if res.is_ok() {
                    w.shadow.acked(slot, *version);
                }
                if t0 >= warm_end {
                    t.set.record(t1 - t0);
                }
                (res.is_ok(), (Stage::CoreSet, t1))
            }
        };
        t.attempted += 1;
        if !ok {
            t.failed += 1;
        }
        if t0 >= warm_end {
            t.measured += 1;
            if let Some(tr) = tracer.as_deref_mut() {
                let seq = t.attempted;
                tr.span(Stage::Gen, g0, t0, NONE, seq);
                tr.span(stage.0, t0, stage.1, NONE, seq);
            }
        }
    }
    t.penalty_ns = vclock::take() - penalty_at_warm.unwrap_or(0);
    t
}

/// Runs both workers for `ns` (the first `WARM_NS` unmeasured).
fn phase(
    store: &ShieldStore,
    workers: &mut [Worker],
    val_len: usize,
    ns: u64,
    tracers: Option<&mut [Tracer]>,
) -> (Tally, f64) {
    let start = now_ns();
    let (warm_end, end) = (start + WARM_NS, start + ns);
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => workers.iter().map(|_| None).collect(),
    };
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(w, tr)| {
                let tr = tr.take();
                s.spawn(move || work(store, w, val_len, warm_end, end, tr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let secs = (now_ns().max(end) - warm_end) as f64 / 1e9;
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    let kops = total.measured as f64 / secs / 1e3;
    (total, kops)
}

/// The closed-loop rate while the per-call p99 meets the limit, else
/// 0.5 Kop/s, so the metric is never 0.
fn slo_rate(w: &EmbeddedWorkload, t: &Tally, kops: f64) -> f64 {
    let mut all = t.get.clone();
    all.merge(&t.set);
    if all.quantile(0.99).value <= w.limit_ns {
        kops
    } else {
        0.5
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn run(
    w: &EmbeddedWorkload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let spec = Spec::by_name(w.spec).ok_or_else(|| format!("unknown spec {}", w.spec))?;
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = now_ns();
        let store = ShieldStore::new(rig::enclave(seed), rig::config(w.keys, seed, None))
            .map_err(|e| format!("store: {e}"))?;
        let owned = rig::preload(&store, w.keys, w.val_len)?;
        setups.push((now_ns() - t0) as f64 / 1e9);
        built = Some((store, owned));
    }
    let (store, owned) = built.expect("at least one set-up");
    let setup_s = rig::median(&mut setups);
    println!("{}: set-up {:.3} s (median of {SETUPS}: {setups:.3?})", w.name, setup_s);

    let mut workers: Vec<Worker> = owned
        .into_iter()
        .enumerate()
        .map(|(i, ids)| Worker {
            generator: Generator::new(spec, ids.len() as u64, seed ^ (0x9e37 + i as u64)),
            shadow: Shadow::new(ids.len(), w.val_len),
            ids,
            version: 0,
        })
        .collect();
    assert_eq!(workers.len(), SHARDS);
    let total_ns = seconds * 1_000_000_000;
    let mut metrics = Vec::new();
    let (tally, kops) = if trace {
        let (plain, plain_kops) = phase(&store, &mut workers, w.val_len, total_ns / 2, None);
        let mut tracers: Vec<Tracer> =
            (0..SHARDS).map(|_| Tracer::new(SPAN_CAP / SHARDS)).collect();
        let before = store.snapshot();
        let (mut traced, kops) =
            phase(&store, &mut workers, w.val_len, total_ns / 2, Some(&mut tracers));
        let after = store.snapshot();
        let mut tracer = Tracer::new(SPAN_CAP);
        for t in tracers {
            tracer.absorb(t);
        }
        let path = out_dir.join(format!("trace-{}.csv", w.name));
        tracer.write_csv(&path).map_err(|e| format!("trace file: {e}"))?;
        println!("spans written to {}", path.display());
        let d = after.diff(&before);
        let ops = d.ops.total_ops();
        let f = |v: u64| per(v as f64, ops);
        let mean = |s: Stage| {
            let t = tracer.total(s);
            per(t.ns as f64, t.count)
        };
        let user = after.entries as f64 * (KEY_LEN + w.val_len) as f64;
        metrics = vec![
            Metric { name: "workload.gen_ns_per_op", unit: "ns", value: mean(Stage::Gen) },
            Metric { name: "core.get_ns", unit: "ns", value: mean(Stage::CoreGet) },
            Metric { name: "core.set_ns", unit: "ns", value: mean(Stage::CoreSet) },
            Metric {
                name: "core.integrity_verifications_per_op",
                unit: "count",
                value: f(d.ops.integrity_verifications),
            },
            Metric {
                name: "core.macs_gathered_per_op",
                unit: "count",
                value: f(d.ops.macs_gathered),
            },
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
                value: after.heap_live_bytes as f64 / user,
            },
            Metric { name: "core.alloc.chunks", unit: "count", value: after.heap_chunks as f64 },
            Metric { name: "crypto.bytes_per_op", unit: "B", value: f(d.crypto_bytes) },
            Metric { name: "crypto.ops_per_op", unit: "count", value: f(d.crypto_ops) },
            Metric { name: "sgx.hotcalls_per_op", unit: "count", value: f(d.sim.hotcalls) },
            Metric { name: "sgx.ocalls_per_op", unit: "count", value: f(d.sim.ocalls) },
            Metric { name: "sgx.epc_faults_per_op", unit: "count", value: f(d.sim.epc_faults) },
            Metric {
                name: "sgx.epc_evictions_per_op",
                unit: "count",
                value: f(d.sim.epc_evictions),
            },
            Metric { name: "trace.overhead_frac", unit: "ratio", value: plain_kops / kops - 1.0 },
            Metric { name: "slo_rate_kops", unit: "Kop/s", value: slo_rate(w, &plain, plain_kops) },
            Metric {
                name: "tail.get_p90_us",
                unit: "us",
                value: us(plain.get.quantile(0.9).value),
            },
            Metric {
                name: "tail.set_p90_us",
                unit: "us",
                value: us(plain.set.quantile(0.9).value),
            },
            Metric {
                name: "tail.get_p99_us",
                unit: "us",
                value: us(plain.get.quantile(0.99).value),
            },
            Metric {
                name: "tail.set_p99_us",
                unit: "us",
                value: us(plain.set.quantile(0.99).value),
            },
        ];
        // Layers that do no work in-process read 0.
        metrics.extend(IDLE_LAYERS.iter().map(|&(name, unit)| Metric { name, unit, value: 0.0 }));
        traced.merge(plain);
        (traced, kops)
    } else {
        phase(&store, &mut workers, w.val_len, total_ns, None)
    };
    for (name, q) in [("get", &tally.get), ("set", &tally.set)] {
        let p99 = q.quantile(0.99);
        println!(
            "  {name}: p50 {:.3} us, p99 {:.3} us ({} samples, {} beyond p99), max {:.1} us",
            us(q.quantile(0.5).value),
            us(p99.value),
            p99.samples,
            p99.beyond,
            us(q.max())
        );
    }
    println!("  throughput {kops:.3} Kop/s over {} workers", SHARDS);
    if trace {
        metrics.push(Metric {
            name: "failed_frac",
            unit: "ratio",
            value: per(tally.failed as f64, tally.attempted),
        });
    } else {
        let q = |h: &Quantiles, x: f64| us(h.quantile(x).value);
        metrics = vec![
            Metric { name: "setup_s", unit: "s", value: setup_s },
            Metric { name: "throughput_kops", unit: "Kop/s", value: kops },
            Metric { name: "get_p50_us", unit: "us", value: q(&tally.get, 0.5) },
            Metric { name: "set_p50_us", unit: "us", value: q(&tally.set, 0.5) },
            Metric {
                name: "sgx_ns_per_op",
                unit: "ns",
                value: per(tally.penalty_ns as f64, tally.measured),
            },
            Metric {
                name: "bytes_per_user_byte",
                unit: "ratio",
                value: rig::bytes_per_user_byte(&store, w.val_len),
            },
        ];
    }
    Ok(Outcome {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
