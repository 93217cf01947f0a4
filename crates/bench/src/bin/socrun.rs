//! Interactive single-run driver for the simulated SoC: `--mode` picks
//! one of the ten runners (`cohort`, `mmio`, `dma`, `chain`, `interfered`,
//! `chaos`, `failover`, `dma-chaos`, `shard`, `mesh16`), and
//! `cargo run --release -p cohort-bench --bin socrun -- --help` lists
//! every flag.
//!
//! Prints latency, IPC and (with `--counters`) every component's
//! performance counters for one configuration — the quickest way to poke
//! at the model. `--stats FILE` writes the stats-registry snapshot
//! (counters + histogram summaries) as JSON; `--trace FILE` enables the
//! cycle-stamped event trace and writes Chrome `trace_event` JSON that
//! loads in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Every other flag is the fleet-spec run parameter of the same name,
//! parsed by the spec's key table ([`RunParams::set`]) and materialised by
//! [`RunParams::to_scenario`]; `run_scenario` checks the composition. So
//! `socrun` and `cohort-fleet` accept and reject the same inputs, with the
//! same messages. The defaults are SHA, queue 1024, batch 64, seed
//! `0x5eed`, and a fault plan runs as written (no per-seed re-keying).
//!
//! `--faults` takes a deterministic fault-injection spec, e.g.
//! `stall@5000:forever;storm@20000:2`, `kill@20000:1` (fail-stop engine 1),
//! `maple-kill@15000` or `random:seed=7,count=4` (see
//! `cohort_sim::faultinject::FaultPlan::parse` for the grammar). Without
//! an explicit mode, `--shards` selects `shard`, and a fault plan selects
//! the runner armed to recover from it: `failover` (the AES→SHA chain
//! with a cold spare) for a `kill@…`, `dma-chaos` (the DMA baseline
//! hardened for MAPLE faults) for a MAPLE fault, else `chaos` (the Cohort
//! benchmark with the full recovery stack). `--watchdog` overrides the
//! engine's forward-progress budget.

use cohort::scenarios::{run_scenario, Runner, Workload};
use cohort_bench::fleet::RunParams;
use cohort_sim::faultinject::FaultKind;

/// Flags that set the run parameter of the same name.
const PARAM_FLAGS: &str =
    "workload queue batch backoff policy watchdog faults dram shards placement skew";

/// The data seed of every run (`Scenario::new`'s default).
const SEED: u64 = 0x5eed;

fn usage() -> ! {
    eprintln!(
        "usage: socrun [--mode cohort|mmio|dma|chain|interfered|chaos|failover|dma-chaos|shard|mesh16]\n\
         \u{20}             [--workload sha|aes] [--queue N] [--batch N] [--backoff N]\n\
         \u{20}             [--policy eager|lazy|huge] [--watchdog N] [--faults SPEC] [--dram SPEC]\n\
         \u{20}             [--shards N] [--placement rr|occupancy] [--skew]\n\
         \u{20}             [--counters] [--stats FILE] [--trace FILE]\n\
         sharding: --shards N splits the stream over N engines (mode shard),\n\
         \u{20}         plus a failover spare when a kill fault targets a shard;\n\
         \u{20}         --skew makes every 4th element run heavy;\n\
         \u{20}         mode mesh16 is the 16-core big.LITTLE mesh (4 shards + noise)\n\
         fault spec: stall@C:D|forever; spike@C:D:F; storm@C:P; corrupt@C;\n\
         \u{20}           kill@C[:E]; maple-stall@C:D; maple-kill@C;\n\
         \u{20}           random:seed=S,count=N,from=A,to=B (semicolon-separated)\n\
         dram spec: `default`, or comma-separated overrides of\n\
         \u{20}          channels=N,banks=N,rowlines=N,hit=C,miss=C,queue=N,\n\
         \u{20}          mshrs=N,ejection=N — enables the bank/channel DRAM\n\
         \u{20}          contention model (flat-latency memory when absent)"
    );
    std::process::exit(2)
}

fn main() {
    let mut params = RunParams {
        workload: Workload::Sha,
        queue: 1024,
        batch: 64,
        vary_fault_seed: false,
        ..RunParams::default()
    };
    let mut mode = "cohort".to_string();
    let mut given: Vec<&str> = Vec::new();
    let mut counters = false;
    let mut stats_path: Option<String> = None;
    let mut trace_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--mode" => mode = value(),
            "--counters" => counters = true,
            "--stats" => stats_path = Some(value()),
            "--trace" => trace_path = Some(value()),
            _ => {
                let key = flag
                    .strip_prefix("--")
                    .and_then(|k| PARAM_FLAGS.split(' ').find(|&p| p == k))
                    .unwrap_or_else(|| usage());
                let text = if key == "skew" {
                    "true".into()
                } else {
                    value()
                };
                params.set(key, &text).unwrap_or_else(|e| {
                    eprintln!("socrun: --{key}: {e}");
                    usage()
                });
                given.push(key);
            }
        }
    }

    if mode == "cohort" && given.contains(&"shards") {
        mode = "shard".to_string();
    } else if mode == "cohort" && given.contains(&"faults") {
        let has = |f: fn(&FaultKind) -> bool| params.faults.events.iter().any(|e| f(&e.kind));
        mode = if has(|k| matches!(k, FaultKind::KillEngine { .. })) {
            "failover"
        } else if has(|k| matches!(k, FaultKind::KillMaple | FaultKind::MapleStall { .. })) {
            "dma-chaos"
        } else {
            "chaos"
        }
        .to_string();
    }
    let runner = Runner::parse(&mode).unwrap_or_else(|| usage());
    let (mut scenario, shard) = params.to_scenario(runner, SEED);
    scenario.trace = trace_path.is_some();

    let start = std::time::Instant::now();
    let r = run_scenario(runner, &scenario, shard.as_ref()).unwrap_or_else(|e| {
        eprintln!("socrun: {e}");
        std::process::exit(2);
    });
    let wall = start.elapsed();

    let p = &params;
    print!(
        "workload={:?} mode={mode} queue={} batch={} policy={:?}",
        p.workload, p.queue, p.batch, p.policy
    );
    if mode == "shard" {
        print!(
            " shards={} placement={} engines={} skew={}",
            p.shards, p.placement, scenario.soc.engines, p.skew
        );
    }
    println!();
    println!(
        "latency: {} cycles ({:.1} kcycles, {:.2} cycles/element)",
        r.cycles,
        r.cycles as f64 / 1000.0,
        r.cycles as f64 / p.queue as f64
    );
    println!("instructions: {}  IPC: {:.3}", r.instret, r.ipc());
    println!("verified: {}  (host wall time {:.2?})", r.verified, wall);
    println!("checksum: {:#018x}", r.checksum);
    if counters {
        for (comp, list) in &r.counters {
            let nonzero: Vec<String> = list
                .iter()
                .filter(|(_, v)| *v > 0)
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            if !nonzero.is_empty() {
                println!("  {comp}: {}", nonzero.join(" "));
            }
        }
    }
    if let Some(path) = &stats_path {
        std::fs::write(path, &r.stats_json).unwrap_or_else(|e| {
            eprintln!("socrun: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("stats: wrote {path}");
    }
    if let Some(path) = &trace_path {
        let json = r.trace_json.as_deref().unwrap_or("[]");
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("socrun: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("trace: wrote {path} (load in https://ui.perfetto.dev)");
    }
    if !r.verified {
        std::process::exit(1);
    }
}
