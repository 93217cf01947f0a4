//! Simulator-throughput benchmark for the run loop's lookahead batching.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin simperf -- \
//!     [--queue N] [--reps N] [--out FILE] [--check]
//! ```
//!
//! Runs the sharded-AES scenario and the 16-core big.LITTLE mesh twice —
//! once with batching forced off (`Lookahead::Force1`) and once fully
//! automatic (`Lookahead::Auto`) — measures sim-cycles per wall-second,
//! and writes a markdown report (default `results/simperf.md`). The two
//! legs' checksums and cycle counts are asserted identical on every
//! invocation, and the barrier-activation drop batching achieves is
//! reported in the `batch` column.
//!
//! `--check` is the CI smoke mode: a small queue, one rep, no report
//! unless `--out` is given; exit status is the contract — which in this
//! mode additionally requires the sharded-AES case to batch at least 3x
//! fewer barriers than forced cycle-by-cycle stepping.

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, ShardSpec, Workload};
use cohort_sim::config::Lookahead;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: simperf [--queue N] [--reps N] [--out FILE] [--check]");
    std::process::exit(2)
}

/// One measured configuration: the run result plus the best wall time
/// over the configured repetitions.
struct Measured {
    result: RunResult,
    best_wall: f64,
}

/// A named scenario constructor, so both benchmarks share the measure /
/// report / assert pipeline.
struct Case {
    name: &'static str,
    runner: Runner,
    scenario: Scenario,
    spec: Option<ShardSpec>,
}

fn cases(queue: u64) -> Vec<Case> {
    let mut out = vec![
        Case {
            name: "sharded-aes (4 engines)",
            runner: Runner::Sharded,
            scenario: Scenario::new(Workload::Aes, queue, 8),
            spec: Some(ShardSpec::new(4)),
        },
        Case {
            name: "mesh16 big.LITTLE",
            runner: Runner::Mesh16,
            scenario: Scenario::new(Workload::Aes, queue, 8),
            spec: None,
        },
    ];
    // Batching pays off in latency-bound phases (accelerator compute
    // windows, drains), which big queues hide behind producer
    // saturation — so the report always includes a small-queue variant
    // of the sharded case to show that regime. At `--check` the main
    // case already runs at queue <= 256 and this would be a duplicate.
    if queue > 256 {
        out.push(Case {
            name: "sharded-aes latency-bound (queue 256)",
            runner: Runner::Sharded,
            scenario: Scenario::new(Workload::Aes, 256, 8),
            spec: Some(ShardSpec::new(4)),
        });
    }
    out
}

fn measure(case: &Case, reps: usize, lookahead: Lookahead) -> Measured {
    let mut scenario = case.scenario.clone();
    scenario.soc = scenario.soc.clone().with_lookahead(lookahead);
    let mut best_wall = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = run_scenario(case.runner, &scenario, case.spec.as_ref()).unwrap_or_else(|e| {
            eprintln!("simperf: {e}");
            std::process::exit(2);
        });
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        assert!(r.verified, "unverified run: {} {lookahead:?}", case.name);
        result = Some(r);
    }
    Measured {
        result: result.expect("at least one rep"),
        best_wall,
    }
}

fn main() {
    let mut queue = 2048u64;
    let mut reps = 3usize;
    let mut out: Option<String> = Some("results/simperf.md".to_string());
    let mut check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mut out_explicit = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--queue" => queue = value().parse().unwrap_or_else(|_| usage()),
            "--reps" => reps = value().parse().unwrap_or_else(|_| usage()),
            "--out" => {
                out = Some(value());
                out_explicit = true;
            }
            "--check" => check = true,
            _ => usage(),
        }
    }
    if check {
        queue = queue.min(256);
        reps = 1;
        if !out_explicit {
            out = None;
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = String::new();
    report.push_str(&cohort_bench::report::host_header());
    report.push_str("# Simulator throughput (`simperf`)\n\n");
    report.push_str(&format!(
        "Host: {host_cores} CPU core(s) visible to the process; every run is \
         single-threaded. Queue size {queue}, best of {reps} rep(s) per cell. \
         Checksums and cycle counts are asserted identical between the two \
         lookahead modes on every run of this tool.\n\n"
    ));

    let mut all_ok = true;
    for case in cases(queue) {
        println!("== {} ==", case.name);
        report.push_str(&format!("## {}\n\n", case.name));
        report.push_str(
            "| lookahead | sim cycles | wall (ms) | Msim-cycles/s | batch | checksum |\n\
             |---|---:|---:|---:|---:|---|\n",
        );
        // Forced cycle-by-cycle reference: the batching baseline and the
        // strongest equivalence witness (identical checksum AND cycles).
        let f1 = measure(&case, reps, Lookahead::Force1);
        let auto = measure(&case, reps, Lookahead::Auto);
        let ok =
            f1.result.checksum == auto.result.checksum && f1.result.cycles == auto.result.cycles;
        if !ok {
            all_ok = false;
            eprintln!(
                "simperf: BATCHING VIOLATION: {} Auto (cycles {}, checksum {:#018x}) \
                 != Force1 (cycles {}, checksum {:#018x})",
                case.name,
                auto.result.cycles,
                auto.result.checksum,
                f1.result.cycles,
                f1.result.checksum
            );
        }
        for (la, m) in [(Lookahead::Force1, &f1), (Lookahead::Auto, &auto)] {
            let rate = m.result.cycles as f64 / m.best_wall / 1e6;
            // Mean cycles simulated per barrier activation (1.0 = no
            // batching): stepped + skipped cycles over stepped cycles.
            let batch = (m.result.barrier_activations + m.result.ff_cycles) as f64
                / m.result.barrier_activations.max(1) as f64;
            println!(
                "  {la:?}: {} cycles in {:.1} ms ({rate:.2} Mcyc/s, batch {batch:.1}) checksum={:#018x}{}",
                m.result.cycles,
                m.best_wall * 1e3,
                m.result.checksum,
                if ok { "" } else { "  <-- MISMATCH" }
            );
            report.push_str(&format!(
                "| {la:?} | {} | {:.1} | {rate:.2} | {batch:.1} | `{:#018x}`{} |\n",
                m.result.cycles,
                m.best_wall * 1e3,
                m.result.checksum,
                if ok { "" } else { " **MISMATCH**" }
            ));
        }
        let barrier_drop =
            f1.result.barrier_activations as f64 / auto.result.barrier_activations.max(1) as f64;
        let wall_gain = f1.best_wall / auto.best_wall;
        println!(
            "  batching: {barrier_drop:.1}x fewer barriers, wall {wall_gain:.2}x, {} cycles fast-forwarded",
            auto.result.ff_cycles
        );
        report.push_str(&format!(
            "\nLookahead batching vs forced cycle-by-cycle: \
             {} -> {} barrier activations (**{barrier_drop:.1}x** fewer), \
             {} cycles fast-forwarded, wall {:.1} ms -> {:.1} ms \
             ({wall_gain:.2}x). Cycles and checksums are bit-identical \
             between the two modes.\n\n",
            f1.result.barrier_activations,
            auto.result.barrier_activations,
            auto.result.ff_cycles,
            f1.best_wall * 1e3,
            auto.best_wall * 1e3,
        ));
        if check && case.name.starts_with("sharded-aes") && barrier_drop < 3.0 {
            all_ok = false;
            eprintln!(
                "simperf: BATCHING REGRESSION: {} barrier activations dropped only \
                 {barrier_drop:.2}x vs forced-1 (need >= 3x)",
                case.name
            );
        }
    }

    if let Some(path) = &out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, &report).unwrap_or_else(|e| {
            eprintln!("simperf: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("report: wrote {path}");
    }
    if !all_ok {
        eprintln!("simperf: FAILED");
        std::process::exit(1);
    }
    println!("determinism: Force1 and Auto bit-identical");
}
