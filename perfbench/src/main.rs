//! The ShieldStore benchmark of record.
//!
//! ```text
//! shieldstore-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from a single process, checks every answer against
//! a shadow model, and prints the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`), ending with one JSON line. Exits
//! non-zero on any wrong value or lost acknowledged write, and without
//! a result when the run is invalid. See `perfbench/README.md`.

mod affinity;
mod clock;
mod embedded;
mod oracle;
mod quant;
mod report;
mod rig;
mod storage;
mod timer;
mod trace;
mod wire;

use embedded::EmbeddedWorkload;
use std::path::Path;
use wire::WireWorkload;

enum Workload {
    Wire(WireWorkload),
    Embedded(EmbeddedWorkload),
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload::Wire(WireWorkload {
            name: "wire-rd95z-64B",
            spec: "RD95_Z",
            keys: 100_000,
            val_len: 64,
            nominal: 20_000.0,
            limit_ns: 1_000_000,
            wal_group: None,
        }),
        Workload::Wire(WireWorkload {
            name: "wire-ycsba-1K-wal",
            spec: "RD50_Z",
            keys: 100_000,
            val_len: 1024,
            nominal: 10_000.0,
            limit_ns: 5_000_000,
            wal_group: Some(64),
        }),
        Workload::Embedded(EmbeddedWorkload {
            name: "embedded-rd50u-256B",
            spec: "RD50_U",
            keys: 1_000_000,
            val_len: 256,
            limit_ns: 1_000_000,
        }),
    ]
}

impl Workload {
    fn name(&self) -> &'static str {
        match self {
            Workload::Wire(w) => w.name,
            Workload::Embedded(w) => w.name,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(30);
    if seconds < 4 {
        return Err("--seconds must be at least 4".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let all = workloads();
    let Some(workload) = all.iter().find(|w| w.name() == args.workload) else {
        let names: Vec<_> = all.iter().map(Workload::name).collect();
        eprintln!("unknown workload {}; one of {names:?}", args.workload);
        std::process::exit(2);
    };
    // The host's cores bound the generator: more threads or connections
    // than cores would measure the scheduler.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (threads, conns) = match workload {
        Workload::Wire(_) => (1, wire::CONNECTIONS),
        Workload::Embedded(_) => (rig::SHARDS, 0),
    };
    if threads > nproc || conns > nproc {
        eprintln!("generator needs {threads} threads and {conns} connections but the host has {nproc} cores");
        std::process::exit(2);
    }
    let out_dir = Path::new("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    println!(
        "workload {} seed {} seconds {} trace {} on {nproc} cores",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match workload {
        Workload::Wire(w) => wire::run(w, args.seed, args.seconds, args.trace, out_dir),
        Workload::Embedded(w) => embedded::run(w, args.seed, args.seconds, args.trace, out_dir),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    outcome.print_table();
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not a number", m.name);
        std::process::exit(1);
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        eprintln!("{}: wrong values or lost writes; see above", args.workload);
        std::process::exit(1);
    }
}
