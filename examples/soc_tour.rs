//! A guided tour of the simulated Cohort SoC.
//!
//! Runs one small SHA benchmark on the cycle-level SoC in all three
//! communication modes (paper §5.1) and walks through what the hardware
//! did: coherence traffic at the directory, the engine's RCM/TLB activity,
//! the core's stall breakdown — the counters behind Figures 8 and 10.
//!
//! Run with: `cargo run --release --example soc_tour`

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, Workload};

/// Runs one unsharded scenario through `runner`.
fn run(runner: Runner, scenario: &Scenario) -> RunResult {
    run_scenario(runner, scenario, None).expect("valid scenario")
}

fn show(label: &str, r: &RunResult) {
    println!("--- {label} ---");
    println!(
        "  latency {} cycles | {} instructions | IPC {:.3} | output verified: {}",
        r.cycles,
        r.instret,
        r.ipc(),
        r.verified
    );
    for (comp, counters) in &r.counters {
        let interesting: Vec<String> = counters
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if !interesting.is_empty() {
            println!("  {comp}: {}", interesting.join(" "));
        }
    }
}

fn main() {
    let scenario = Scenario::new(Workload::Sha, 512, 64);
    println!(
        "SHA-256 benchmark, {} elements, batch {}, on the simulated 4-tile SoC\n",
        scenario.queue_size, scenario.batch
    );

    let cohort = run(Runner::Cohort, &scenario);
    show("Cohort (SPSC queues + engine)", &cohort);

    let mmio = run(Runner::Mmio, &scenario);
    show("MMIO baseline (word-at-a-time)", &mmio);

    let dma = run(Runner::Dma, &scenario);
    show("Coherent DMA baseline (256-byte blocks)", &dma);

    println!("\nSummary:");
    println!(
        "  Cohort speedup over MMIO: {:.2}x   over DMA: {:.2}x",
        mmio.cycles as f64 / cohort.cycles as f64,
        dma.cycles as f64 / cohort.cycles as f64
    );
    println!(
        "  IPC speedup over MMIO: {:.2}x   over DMA: {:.2}x",
        cohort.ipc() / mmio.ipc(),
        cohort.ipc() / dma.ipc()
    );
}
