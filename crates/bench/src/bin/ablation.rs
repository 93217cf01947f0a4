//! Ablation studies of the Cohort engine's design parameters (DESIGN.md
//! §6): the RCM backoff window, the engine TLB size, page-mapping policy,
//! and the communication-only floor measured with the null accelerator.
//!
//! Writes `results/ablation.md` (or the directory given as the first
//! argument).

use cohort::scenarios::{run_scenario, CustomRun, RunResult, Runner, Scenario, Workload};
use cohort_accel::nullfifo::NullFifo;
use cohort_os::addrspace::MapPolicy;

/// Runs one unsharded scenario through `runner`.
fn run(runner: Runner, scenario: &Scenario) -> RunResult {
    run_scenario(runner, scenario, None).expect("valid scenario")
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let mut md = String::from("# Ablation studies\n");

    // 1. RCM backoff window (paper §4.2.3: "optimised to wait a
    //    configurable period").
    md.push_str("\n## RCM backoff window (SHA, queue 1024)\n\n");
    md.push_str("| Backoff (cycles) | batch=8 kcycles | batch=64 kcycles |\n|---|---|---|\n");
    for backoff in [0u64, 100, 300, 700, 1500, 3000] {
        let mut row = format!("| {backoff} |");
        for batch in [8u64, 64] {
            let mut s = Scenario::new(Workload::Sha, 1024, batch);
            s.backoff = backoff;
            let r = run(Runner::Cohort, &s);
            assert!(r.verified);
            row.push_str(&format!(" {:.1} |", r.cycles as f64 / 1000.0));
        }
        md.push_str(&row);
        md.push('\n');
    }
    md.push_str(
        "\nSmall batches are dominated by per-publication reaction chains, so the\n\
         backoff moves them strongly; batch=64 amortises it.\n",
    );

    // 2. Engine TLB size (paper §6.3 discusses the 16-entry MMU).
    md.push_str("\n## Engine TLB size (SHA, queue 4096)\n\n");
    md.push_str("| TLB entries | kcycles | engine TLB misses |\n|---|---|---|\n");
    for entries in [1usize, 2, 4, 8, 16, 32] {
        let mut s = Scenario::new(Workload::Sha, 4096, 64);
        s.soc.tlb_entries = entries;
        let r = run(Runner::Cohort, &s);
        assert!(r.verified);
        md.push_str(&format!(
            "| {entries} | {:.1} | {} |\n",
            r.cycles as f64 / 1000.0,
            r.counter("engine", "tlb_misses").unwrap_or(0)
        ));
    }

    // 3. Mapping policy: eager vs demand faults vs huge pages.
    md.push_str("\n## Mapping policy (SHA, queue 2048, TLB 4)\n\n");
    md.push_str("| Policy | kcycles | faults | TLB misses |\n|---|---|---|---|\n");
    for (name, policy) in [
        ("eager 4 KiB", MapPolicy::Eager),
        ("demand (lazy)", MapPolicy::Lazy),
        ("2 MiB huge pages", MapPolicy::HugePages),
    ] {
        let mut s = Scenario::new(Workload::Sha, 2048, 64);
        s.soc.tlb_entries = 4;
        s.policy = policy;
        let r = run(Runner::Cohort, &s);
        assert!(r.verified);
        md.push_str(&format!(
            "| {name} | {:.1} | {} | {} |\n",
            r.cycles as f64 / 1000.0,
            r.counter("engine", "faults").unwrap_or(0),
            r.counter("engine", "tlb_misses").unwrap_or(0)
        ));
    }

    // 4. Communication-only cost: the null accelerator isolates the
    //    queue-coherence machinery from compute. Block size sets the
    //    pointer-update granularity (§4.3), so the 8-byte variant shows
    //    the worst-case per-word cost and the 64-byte variant the
    //    line-granular floor.
    md.push_str("\n## Communication floor (null accelerator vs real compute, queue 1024)\n\n");
    md.push_str("| Accelerator | kcycles | cycles/element |\n|---|---|---|\n");
    let n = 1024u64;
    let input: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
    for (label, block) in [
        ("null FIFO, 64 B blocks", 64usize),
        ("null FIFO, 8 B words", 8),
    ] {
        let null = CustomRun::new(
            Box::new(NullFifo::with_geometry(block, 1)),
            input.clone(),
            input.clone(),
        )
        .run();
        assert!(null.verified);
        md.push_str(&format!(
            "| {label} | {:.1} | {:.1} |\n",
            null.cycles as f64 / 1000.0,
            null.cycles as f64 / n as f64
        ));
    }
    for wl in [Workload::Sha, Workload::Aes] {
        let r = run(Runner::Cohort, &Scenario::new(wl, n, 64));
        assert!(r.verified);
        md.push_str(&format!(
            "| {wl:?} | {:.1} | {:.1} |\n",
            r.cycles as f64 / 1000.0,
            r.cycles as f64 / n as f64
        ));
    }

    let path = format!("{out_dir}/ablation.md");
    std::fs::write(&path, &md).expect("write ablation results");
    println!("{md}");
    println!("wrote {path}");
}
