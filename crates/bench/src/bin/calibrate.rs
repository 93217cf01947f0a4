//! Quick calibration probe: prints the headline Table-3 ratios (latency
//! speedups, batching gains, IPC ratios) at three queue sizes so timing
//! changes can be sanity-checked faster than a full figure regeneration.
//! `--diag` dumps per-component counters for one SHA and one AES run.

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, Workload};

/// Runs one unsharded scenario through `runner`.
fn run(runner: Runner, scenario: &Scenario) -> RunResult {
    run_scenario(runner, scenario, None).expect("valid scenario")
}

fn main() {
    let diag = std::env::args().any(|a| a == "--diag");
    if diag {
        let r = run(Runner::Cohort, &Scenario::new(Workload::Aes, 1024, 64));
        println!(
            "AES qs=1024 batch=64: cycles={} per-elem={:.1}",
            r.cycles,
            r.cycles as f64 / 1024.0
        );
        for (comp, counters) in &r.counters {
            println!("  {comp}: {counters:?}");
        }
        let r = run(Runner::Cohort, &Scenario::new(Workload::Sha, 1024, 64));
        println!(
            "SHA qs=1024 batch=64: cycles={} per-elem={:.1}",
            r.cycles,
            r.cycles as f64 / 1024.0
        );
        for (comp, counters) in &r.counters {
            println!("  {comp}: {counters:?}");
        }
        return;
    }
    for wl in [Workload::Sha, Workload::Aes] {
        println!("== {wl:?} ==");
        for qs in [256u64, 1024, 4096] {
            let c64 = run(Runner::Cohort, &Scenario::new(wl, qs, 64));
            let small_batch = if wl == Workload::Sha { 8 } else { 2 };
            let csmall = run(Runner::Cohort, &Scenario::new(wl, qs, small_batch));
            let m = run(Runner::Mmio, &Scenario::new(wl, qs, 64));
            let d = run(Runner::Dma, &Scenario::new(wl, qs, 64));
            assert!(c64.verified && csmall.verified && m.verified && d.verified);
            println!(
                "qs={qs:5} cohort64={:8} small={:8} mmio={:8} dma={:8} | vsMMIO={:.2} vsDMA={:.2} batching={:.2} | ipcX mmio={:.2} dma={:.2}",
                c64.cycles, csmall.cycles, m.cycles, d.cycles,
                m.cycles as f64 / c64.cycles as f64,
                d.cycles as f64 / c64.cycles as f64,
                csmall.cycles as f64 / c64.cycles as f64,
                c64.ipc() / m.ipc(),
                c64.ipc() / d.ipc(),
            );
        }
    }
}
