//! `hostbench` — the host-cost benchmark of the Cohort reproduction.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload closed-loop for `--seconds` after set-up and an
//! untimed warm-up pass, verifies every output, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from an extra traced pass) with
//! `--trace 1`. Exits 1 when any check failed, 2 on a usage error. See
//! README.md in this directory for the workloads and the metric map.

mod nativework;
mod pass;
mod simwork;
mod stats;
mod trace;

use cohort_bench::fleet::Outcome;
use pass::{Checked, Pins};
use simwork::{SimKind, SimSetup};
use stats::{median, percentile, tail_percentile, trimmed_mean};
use std::time::Instant;
use trace::Tracer;

/// The seed whose per-run cycles and checksums are pinned.
const DEFAULT_SEED: u64 = 0;
/// Share of the measurement window spent repeating the set-up. The
/// repeats are spread over the window, between passes, so they see the
/// same host as the passes do.
const SETUP_SHARE: f64 = 0.1;
/// Share of the values dropped at each end before a figure taken over
/// passes or set-up repeats is reported as their mean. On a shared host
/// the program runs at a fast or a slow speed for seconds at a time; a
/// median jumps between the two modes with their mix, a trimmed mean
/// follows the mix smoothly.
const TRIM: f64 = 0.1;
/// The pinned table: `<workload> <key> <cycles> <checksum>` per line.
const PINNED: &str = include_str!("../pinned.txt");
/// Where the traced run's Chrome trace lands, relative to the repository
/// root.
const OUT_DIR: &str = "hostbench/out";

const WORKLOADS: [&str; 4] = [
    "paper-sweep",
    "shard-contended",
    "chaos-fleet",
    "native-pipeline",
];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("runs_per_s", "1/s"),
    ("native_mb_per_s", "MB/s"),
    ("failed_frac", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.self_ms.fleet", "ms"),
    ("trace.self_ms.scenarios", "ms"),
    ("trace.self_ms.system", "ms"),
    ("trace.self_ms.native", "ms"),
    ("trace.self_ms.queue", "ms"),
    ("trace.self_ms.accel", "ms"),
    ("sim.soc.cycles", "count"),
    ("sim.soc.stepped_cycles", "count"),
    ("sim.soc.ff_cycles", "count"),
    ("sim.soc.ff_share", "ratio"),
    ("sim.soc.ns_per_stepped_cycle", "ns"),
    ("sim.core.instret", "count"),
    ("sim.core.mem_stall_cycles", "count"),
    ("sim.core.sb_full_stalls", "count"),
    ("sim.core.mmio_stall_cycles", "count"),
    ("sim.core.l1_hit_ratio", "ratio"),
    ("sim.noc.flits", "count"),
    ("sim.noc.delivered", "count"),
    ("sim.noc.ejection_deferred", "count"),
    ("sim.directory.requests", "count"),
    ("sim.directory.l2_hit_ratio", "ratio"),
    ("sim.directory.inv_sent", "count"),
    ("sim.directory.mshr_stalls", "count"),
    ("sim.dram.reqs", "count"),
    ("sim.dram.row_hit_ratio", "ratio"),
    ("sim.dram.rejects", "count"),
    ("engine.consumed", "count"),
    ("engine.produced", "count"),
    ("engine.tlb_hit_ratio", "ratio"),
    ("engine.mte_hit_ratio", "ratio"),
    ("engine.backoffs", "count"),
    ("engine.watchdog_trips", "count"),
    ("engine.rebinds", "count"),
    ("engine.in_occupancy_p50", "count"),
    ("maple.mmio_pushes", "count"),
    ("maple.mmio_pops", "count"),
    ("maple.dma_transfers", "count"),
    ("os.page_faults", "count"),
    ("os.error_irqs", "count"),
    ("os.software_fallbacks", "count"),
    ("scenarios.build_us", "us"),
    ("scenarios.verify_ms", "ms"),
    ("scenarios.run_ms.cohort", "ms"),
    ("scenarios.run_ms.mmio", "ms"),
    ("scenarios.run_ms.dma", "ms"),
    ("scenarios.run_ms.shard", "ms"),
    ("scenarios.run_ms.mesh16", "ms"),
    ("scenarios.run_ms.chaos", "ms"),
    ("scenarios.run_ms.failover", "ms"),
    ("scenarios.run_ms.dma-chaos", "ms"),
    ("fleet.fanout_efficiency", "ratio"),
    ("fleet.spec_load_ms", "ms"),
    ("fleet.summarize_ms", "ms"),
    ("fleet.outcome.pass", "count"),
    ("fleet.outcome.recovered", "count"),
    ("fleet.outcome.software-fallback", "count"),
    ("fleet.outcome.checksum-mismatch", "count"),
    ("fleet.outcome.hung", "count"),
    ("queue.push_pop_ns", "ns"),
    ("queue.stage_publish_ns_per_word", "ns"),
    ("queue.full_retries", "count"),
    ("queue.empty_polls", "count"),
    ("accel.sha256_ns_per_block", "ns"),
    ("accel.aes128_ns_per_block", "ns"),
    ("native.words_in", "count"),
    ("native.words_out", "count"),
    ("fidelity.sha_mmio_speedup_err", "%"),
    ("fidelity.sha_dma_speedup_err", "%"),
    ("fidelity.aes_mmio_speedup_err", "%"),
    ("fidelity.aes_dma_speedup_err", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_failure: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        inject_failure: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--inject-failure" => a.inject_failure = true,
            "--print-pins" => a.print_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// A metric table with a fixed name set: setting an unknown name is a bug.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn new(table: &[(&'static str, &'static str)]) -> Self {
        Self(table.iter().map(|&(n, u)| (n, 0.0, u)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(n, _, _)| *n == name);
        let slot = slot.unwrap_or_else(|| panic!("unknown metric {name}"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn host_header(args: &Args) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("rustc", env("HOSTBENCH_RUSTC")),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("commit", env("HOSTBENCH_COMMIT")),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
    ]
}

fn pins_for(workload: &str) -> Vec<(String, u64, u64)> {
    PINNED
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload).then(|| {
                let checksum = u64::from_str_radix(f[3].trim_start_matches("0x"), 16).expect("hex");
                (f[1].to_string(), f[2].parse().expect("cycles"), checksum)
            })
        })
        .collect()
}

/// One pass of whichever workload.
enum Pass {
    Sim(simwork::PassOut),
    Native(nativework::PassOut),
}

impl Pass {
    fn core(&self) -> &Checked {
        match self {
            Pass::Sim(p) => &p.core,
            Pass::Native(p) => &p.core,
        }
    }
}

enum Work {
    Sim(SimSetup),
    Native(Vec<nativework::Stream>),
}

impl Work {
    fn setup(workload: &str, seed: u64, tr: &mut Tracer) -> Work {
        let kind = match workload {
            "paper-sweep" => SimKind::PaperSweep,
            "shard-contended" => SimKind::ShardContended,
            "chaos-fleet" => SimKind::ChaosFleet,
            _ => return Work::Native(nativework::setup(seed, tr)),
        };
        Work::Sim(simwork::setup(kind, seed, tr))
    }

    /// One pass; `keep` retains full simulation results.
    fn pass(&self, tr: &mut Tracer, pins: Pins<'_>, keep: bool, corrupt: bool) -> Pass {
        match self {
            Work::Sim(s) if s.kind == SimKind::ChaosFleet => {
                Pass::Sim(simwork::fleet_pass(s, tr, pins, corrupt))
            }
            Work::Sim(s) => Pass::Sim(simwork::sweep_pass(s, tr, pins, keep, corrupt)),
            Work::Native(streams) => Pass::Native(nativework::pass(streams, tr, pins, corrupt)),
        }
    }
}

/// Tallies checks across every pass of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, c: &Checked) {
        self.attempted += c.attempted;
        self.failures.extend_from_slice(&c.failures);
    }
}

/// Signed mean relative error (%) of the measured Table 3 speedup
/// `baseline / cohort batch 64` against the paper, over the Table 3
/// columns the sweep runs.
fn fidelity_err(pins: &[(String, u64, u64)], wl: &str, baseline: &str, paper: &[f64; 8]) -> f64 {
    let cycles = |name: String| {
        pins.iter()
            .find(|(k, _, _)| k.split('/').next() == Some(name.as_str()))
            .map_or(0.0, |p| p.1 as f64)
    };
    let errs: Vec<f64> = simwork::FIDELITY_QUEUES
        .iter()
        .map(|&q| {
            let col = cohort_bench::params::TABLE3_SIZES
                .iter()
                .position(|&s| s == q)
                .expect("column");
            let measured =
                cycles(format!("{wl}-{baseline}-q{q}")) / cycles(format!("{wl}-cohort-b64-q{q}"));
            (measured / paper[col] - 1.0) * 100.0
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let header = host_header(&args);
    let header_line: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!("# host {{{}}}", header_line.join(", "));

    let pinned = pins_for(&args.workload);
    let pins = (args.seed == DEFAULT_SEED && !pinned.is_empty() && !args.print_pins)
        .then_some(pinned.as_slice());
    let mut traced = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut off = Tracer::off();

    let t = Instant::now();
    let mut work = Work::setup(&args.workload, args.seed, &mut off);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    // The one set-up the traced run records spans for; not timed.
    if args.trace {
        work = Work::setup(&args.workload, args.seed, &mut traced);
    }
    let spec_load_ms = traced.total_ns("fleet.parse") as f64 / 1e6;

    let mut tally = Tally::default();
    let warm = work.pass(&mut off, pins, false, args.inject_failure);
    tally.add(warm.core());
    if args.print_pins {
        for (k, c, s) in &warm.core().pins {
            println!("{} {k} {c} {s:#018x}", args.workload);
        }
        return;
    }

    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        while setup_s.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            std::hint::black_box(Work::setup(&args.workload, args.seed, &mut off));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let p = work.pass(&mut off, pins, false, false);
        tally.add(p.core());
        passes.push(p);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.core().wall_s).collect();
    let wall_s = trimmed_mean(&walls, TRIM);
    // Per-call percentiles (Harrell–Davis estimates) are taken within each
    // pass and population of like calls (one runner, one kernel), combined
    // over the populations by their geometric mean (so each population
    // weighs the same however costly its calls), and reported as the
    // trimmed mean over passes: a pass repeats the same calls, so a pooled
    // percentile would sit on the edge between two calls' costs.
    let groups = &passes[0].core().call_ms;
    let per_pass = groups.iter().map(Vec::len).min().unwrap_or(0);
    let tail_p = tail_percentile(per_pass);
    let over_passes = |p: f64| {
        let v: Vec<f64> = passes
            .iter()
            .map(|x| {
                let g = &x.core().call_ms;
                let logs: f64 = g.iter().map(|c| percentile(c, p).ln()).sum();
                (logs / g.len().max(1) as f64).exp()
            })
            .collect();
        trimmed_mean(&v, TRIM)
    };
    let (p50_v, tail_v) = (over_passes(50.0), over_passes(tail_p));

    let report = if args.trace {
        let m = per_layer(
            &work,
            &passes,
            wall_s,
            pins,
            &mut traced,
            &mut tally,
            spec_load_ms,
        );
        let path = std::path::Path::new(OUT_DIR)
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, traced.chrome_json(&header)));
        match written {
            Ok(()) => println!(
                "# trace: {} ({} spans)",
                path.display(),
                traced.spans().len()
            ),
            Err(e) => {
                eprintln!("hostbench: cannot write {}: {e}", path.display());
                tally.failures.push(format!("trace file not written: {e}"));
            }
        }
        m
    } else {
        let mut m = Metrics::new(END_TO_END);
        m.set("wall_s", wall_s);
        m.set("setup_s", trimmed_mean(&setup_s, TRIM));
        m.set("run_ms_p50", p50_v);
        m.set("run_ms_tail", tail_v);
        m.set("peak_rss_mb", stats::peak_rss_mb());
        m
    };

    println!(
        "# passes={} wall_s={wall_s:.4} run_ms_tail=p{tail_p} of n={per_pass} calls x {} population(s) per pass setup_reps={} pinned={}",
        passes.len(),
        groups.len(),
        setup_s.len(),
        pins.is_some()
    );
    let walls_text: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("# pass_walls_s=[{}]", walls_text.join(", "));
    if args.workload == "native-pipeline" {
        println!(
            "# native_block_us_p50={:.3} native_block_us_tail={:.3} (geometric mean of SHA and AES; p{tail_p} of n={per_pass} blocks each per pass)",
            p50_v * 1e3,
            tail_v * 1e3,
        );
    }
    for (n, v, u) in &report.0 {
        println!("# {n} = {v} {u}");
    }
    for f in tally.failures.iter().take(20) {
        eprintln!("hostbench: FAILED {f}");
    }
    let failed = tally.failures.len() as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        tally.attempted.max(1),
        report.json()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// The traced run: one more pass with spans on, the layer probes, and
/// every per-layer metric.
fn per_layer(
    work: &Work,
    passes: &[Pass],
    wall_s: f64,
    pins: Pins<'_>,
    tr: &mut Tracer,
    tally: &mut Tally,
    spec_load_ms: f64,
) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    let traced = work.pass(tr, pins, true, false);
    tally.add(traced.core());
    m.set(
        "trace.overhead_pct",
        (traced.core().wall_s / wall_s - 1.0) * 100.0,
    );

    match (work, traced) {
        (Work::Sim(setup), Pass::Sim(traced_sim)) => {
            let rates = |f: fn(&simwork::PassOut) -> f64| {
                let per_pass: Vec<f64> = passes
                    .iter()
                    .filter_map(|p| match p {
                        Pass::Sim(o) => Some(f(o) / o.core.wall_s),
                        Pass::Native(_) => None,
                    })
                    .collect();
                trimmed_mean(&per_pass, TRIM)
            };
            m.set("sim_mcycles_per_s", rates(|o| o.sim_cycles as f64 / 1e6));
            m.set("runs_per_s", rates(|o| o.runs as f64));
            m.set("fleet.spec_load_ms", spec_load_ms);

            let (run, records) = if setup.kind == SimKind::ChaosFleet {
                let (serial, serial_s) = simwork::fleet_serial_pass(setup, tr, &traced_sim.records);
                tally.add(&serial.core);
                let threads = setup.threads as f64;
                m.set("fleet.fanout_efficiency", serial_s / (threads * wall_s));
                (serial, traced_sim.records)
            } else {
                let records = simwork::classify_all(setup, &traced_sim.results, tr);
                (traced_sim, records)
            };
            let t = Instant::now();
            let span = tr.open("fleet.summarize", None);
            std::hint::black_box(cohort_bench::fleet::summarize(&setup.spec, &records));
            tr.close(span);
            m.set("fleet.summarize_ms", t.elapsed().as_secs_f64() * 1e3);
            for (name, n) in simwork::outcome_counts(&records) {
                m.set(&format!("fleet.outcome.{name}"), n as f64);
                if name == Outcome::SoftwareFallback.name() {
                    m.set("os.software_fallbacks", n as f64);
                }
            }
            for (runner, ms) in &run.runner_ms {
                m.set(&format!("scenarios.run_ms.{runner}"), *ms);
            }
            m.set(
                "scenarios.build_us",
                median(&simwork::build_probe(setup, tr)),
            );
            m.set(
                "scenarios.verify_ms",
                tr.total_ns("scenarios.verify") as f64 / 1e6,
            );

            let c = simwork::roll_up(&run.results);
            let run_ns = tr.total_ns("scenarios.run_scenario") as f64;
            m.set("sim.soc.cycles", c.cycles as f64);
            m.set("sim.soc.stepped_cycles", c.stepped as f64);
            m.set("sim.soc.ff_cycles", c.ff as f64);
            m.set(
                "sim.soc.ff_share",
                c.ff as f64 / (c.ff + c.stepped).max(1) as f64,
            );
            m.set(
                "sim.soc.ns_per_stepped_cycle",
                run_ns / c.stepped.max(1) as f64,
            );
            for name in [
                "instret",
                "mem_stall_cycles",
                "sb_full_stalls",
                "mmio_stall_cycles",
            ] {
                m.set(
                    &format!("sim.core.{name}"),
                    c.get(&format!("core.{name}")) as f64,
                );
            }
            m.set(
                "sim.core.l1_hit_ratio",
                c.ratio("core.l1.hits", "core.l1.misses"),
            );
            for name in ["flits", "delivered", "ejection_deferred"] {
                m.set(
                    &format!("sim.noc.{name}"),
                    c.get(&format!("noc.{name}")) as f64,
                );
            }
            m.set(
                "sim.directory.requests",
                (c.get("directory.gets") + c.get("directory.getm")) as f64,
            );
            m.set(
                "sim.directory.l2_hit_ratio",
                c.ratio("directory.l2_hits", "directory.fills"),
            );
            m.set("sim.directory.inv_sent", c.get("directory.inv_sent") as f64);
            m.set(
                "sim.directory.mshr_stalls",
                c.get("directory.mshr_stalls") as f64,
            );
            m.set("sim.dram.reqs", c.get("directory.dram_reqs") as f64);
            m.set(
                "sim.dram.row_hit_ratio",
                c.ratio("directory.dram_row_hits", "directory.dram_row_misses"),
            );
            m.set("sim.dram.rejects", c.get("directory.dram_rejects") as f64);
            for name in [
                "consumed",
                "produced",
                "backoffs",
                "watchdog_trips",
                "rebinds",
            ] {
                m.set(
                    &format!("engine.{name}"),
                    c.get(&format!("engine.{name}")) as f64,
                );
            }
            m.set(
                "engine.tlb_hit_ratio",
                c.ratio("engine.tlb_hits", "engine.tlb_misses"),
            );
            m.set(
                "engine.mte_hit_ratio",
                c.ratio("engine.mte.hits", "engine.mte.misses"),
            );
            let occ: Vec<f64> = c.occupancy_p50.iter().map(|&v| v as f64).collect();
            m.set("engine.in_occupancy_p50", median(&occ));
            for name in ["mmio_pushes", "mmio_pops", "dma_transfers"] {
                m.set(
                    &format!("maple.{name}"),
                    c.get(&format!("maple.{name}")) as f64,
                );
            }
            m.set(
                "os.page_faults",
                (c.get("engine.faults") + c.get("core.core_faults")) as f64,
            );
            m.set("os.error_irqs", c.get("engine.error_irqs") as f64);

            if setup.kind == SimKind::PaperSweep {
                use cohort_bench::report::paper_table3 as paper;
                let p = &run.core.pins;
                m.set(
                    "fidelity.sha_mmio_speedup_err",
                    fidelity_err(p, "sha", "mmio", &paper::SHA_MMIO),
                );
                m.set(
                    "fidelity.sha_dma_speedup_err",
                    fidelity_err(p, "sha", "dma", &paper::SHA_DMA),
                );
                m.set(
                    "fidelity.aes_mmio_speedup_err",
                    fidelity_err(p, "aes", "mmio", &paper::AES_MMIO),
                );
                m.set(
                    "fidelity.aes_dma_speedup_err",
                    fidelity_err(p, "aes", "dma", &paper::AES_DMA),
                );
                println!("# fidelity.* are in-sample: the timing constants were grid-searched on Table 3 itself");
            }
        }
        (Work::Native(_), Pass::Native(n)) => {
            let mb: Vec<f64> = passes
                .iter()
                .filter_map(|p| match p {
                    Pass::Native(o) => Some(o.stream_bytes as f64 / o.stream_s / 1e6),
                    Pass::Sim(_) => None,
                })
                .collect();
            m.set("native_mb_per_s", trimmed_mean(&mb, TRIM));
            m.set("queue.full_retries", n.full_retries as f64);
            m.set("queue.empty_polls", n.empty_polls as f64);
            m.set("native.words_in", n.words_in as f64);
            m.set("native.words_out", n.words_out as f64);
            m.set("scenarios.verify_ms", n.verify_ms);
        }
        _ => unreachable!("a workload's passes are of its own kind"),
    }

    let probes = nativework::probes(tr);
    m.set("queue.push_pop_ns", probes.push_pop_ns);
    m.set(
        "queue.stage_publish_ns_per_word",
        probes.stage_publish_ns_per_word,
    );
    m.set("accel.sha256_ns_per_block", probes.sha256_ns_per_block);
    m.set("accel.aes128_ns_per_block", probes.aes128_ns_per_block);

    for (layer, ns) in tr.self_ns_by_layer() {
        m.set(&format!("trace.self_ms.{layer}"), ns as f64 / 1e6);
    }
    m.set("trace.spans", tr.spans().len() as f64);
    m.set(
        "failed_frac",
        tally.failures.len() as f64 / tally.attempted.max(1) as f64,
    );
    m
}
