//! The simulator workloads: `paper-sweep`, `shard-contended` and
//! `chaos-fleet`.
//!
//! Every simulation enters through a parsed fleet spec: the spec yields
//! [`RunParams`], [`RunParams::to_scenario`] materialises the scenario and
//! [`run_scenario`] (or the fleet runner on top of it) runs it. The
//! benchmark never calls a runner directly.

use crate::pass::{Checked, Pins};
use crate::stats::SimCounts;
use crate::trace::Tracer;
use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, ShardSpec, Workload};
use cohort::system::{SimSystem, SystemSpec};
use cohort_bench::fleet::runner::classify;
use cohort_bench::fleet::{run_fleet, run_one, FleetSpec, Outcome, RunParams, RunRecord};
use cohort_bench::params::DRAM_SWEEP_SPEC;
use cohort_sim::program::Program;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The committed chaos campaigns the `chaos-fleet` workload runs.
const CHAOS_SPECS: [&str; 2] = [
    include_str!("../../examples/fleet/chaos_campaign.toml"),
    include_str!("../../examples/fleet/dma_chaos_campaign.toml"),
];

/// Queue sizes at which the paper sweep runs every configuration: three
/// of the Table 3 columns.
const SWEEP_QUEUES: [u64; 3] = [64, 256, 1024];

/// The largest Table 3 column, run for Cohort at batch 64, MMIO and DMA
/// only. Simulated cycles grow about linearly with the queue size, so
/// these six runs take most of a pass, as the large columns take most of
/// the figures' regeneration.
const LARGE_QUEUE: u64 = 8192;

/// The Table 3 columns the fidelity gauges cover.
pub const FIDELITY_QUEUES: [u64; 4] = [64, 256, 1024, LARGE_QUEUE];

/// Stream length of every `shard-contended` run.
const SHARD_QUEUE: u64 = 4096;

/// Every `chaos-fleet` pass re-runs every this-many-th job serially
/// through `run_one`: the closed-loop per-run latency sample, and a check
/// that the fan-out returns exactly the serial records. Every pass times
/// the same jobs, so the per-pass percentiles compare like with like; the
/// traced run re-runs every job. The calls are grouped by runner: runs of
/// different runners differ in cost by up to 10x, and a percentile pooled
/// over them lands on the edge between two runners' costs.
const SERIAL_STRIDE: usize = 4;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Figs. 8–11 / Table 3 configurations, one after another.
    PaperSweep,
    /// Sharded AES at 2/4/8 shards, flat and contended memory, plus mesh16.
    ShardContended,
    /// The committed chaos campaigns through the fleet fan-out.
    ChaosFleet,
}

/// One simulation of a workload, fully materialised at set-up.
pub struct Job {
    /// Scenario name from the spec.
    pub name: String,
    /// The runner.
    pub runner: Runner,
    /// Run parameters.
    pub params: RunParams,
    /// Run seed.
    pub seed: u64,
    /// The scenario `to_scenario` produced.
    pub scenario: Scenario,
    /// Shard spec for the sharded runner.
    pub shard: Option<ShardSpec>,
    /// Host reference output stream.
    pub expected: Vec<u64>,
}

impl Job {
    /// The job's key in the pinned table.
    pub fn key(&self) -> String {
        format!("{}/{}", self.name, self.seed)
    }

    /// True when `RunResult::recorded` is the output stream (the hardened
    /// DMA runner records MMIO status words instead and verifies the
    /// output buffer itself).
    fn records_outputs(&self) -> bool {
        self.runner != Runner::DmaChaos
    }
}

/// A set-up workload.
pub struct SimSetup {
    /// Which workload.
    pub kind: SimKind,
    /// The parsed spec (chaos-fleet: both campaigns merged).
    pub spec: FleetSpec,
    /// Every job, in spec order.
    pub jobs: Vec<Job>,
    /// Host threads of the fleet fan-out.
    pub threads: usize,
}

/// The data seed of the fault-free sweeps for a benchmark seed; the
/// default seed keeps the figures' own seed.
pub fn data_seed(seed: u64) -> u64 {
    0x5eed ^ (seed % (1 << 48))
}

fn sweep_spec_text(kind: SimKind, seed: u64) -> String {
    let data = data_seed(seed);
    let mut s = format!(
        "[campaign]\nname = \"{kind:?}\"\nseeds = \"{data}..{}\"\n",
        data + 1
    );
    let mut scenario = |name: String, body: String| {
        s.push_str(&format!("\n[[scenario]]\nname = \"{name}\"\n{body}"));
    };
    match kind {
        SimKind::PaperSweep => {
            let columns = SWEEP_QUEUES.iter().map(|&q| (q, true));
            for (q, all_batches) in columns.chain([(LARGE_QUEUE, false)]) {
                for (wl, batches) in [
                    ("sha", &cohort_bench::params::SHA_BATCHES[..]),
                    ("aes", &cohort_bench::params::AES_BATCHES[..]),
                ] {
                    for &b in batches.iter().filter(|&&b| all_batches || b == 64) {
                        scenario(
                            format!("{wl}-cohort-b{b}-q{q}"),
                            format!("runner = \"cohort\"\nworkload = \"{wl}\"\nqueue = {q}\nbatch = {b}\n"),
                        );
                    }
                    for mode in ["mmio", "dma"] {
                        scenario(
                            format!("{wl}-{mode}-q{q}"),
                            format!("runner = \"{mode}\"\nworkload = \"{wl}\"\nqueue = {q}\nbatch = 64\n"),
                        );
                    }
                }
            }
        }
        SimKind::ShardContended => {
            let dram = format!("dram = \"{DRAM_SWEEP_SPEC}\"\n");
            for shards in [2, 4, 8] {
                for (mem, mem_key) in [("flat", ""), ("dram", dram.as_str())] {
                    scenario(
                        format!("aes-shard{shards}-{mem}"),
                        format!(
                            "runner = \"shard\"\nworkload = \"aes\"\nshards = {shards}\n\
                             queue = {SHARD_QUEUE}\nbatch = 64\n{mem_key}"
                        ),
                    );
                }
            }
            scenario(
                "mesh16".into(),
                format!(
                    "runner = \"mesh16\"\nworkload = \"aes\"\nqueue = {SHARD_QUEUE}\nbatch = 64\n"
                ),
            );
        }
        SimKind::ChaosFleet => unreachable!("chaos-fleet runs the committed specs"),
    }
    s
}

/// Parses the workload's spec(s): generated spec text for the sweeps,
/// the committed campaigns (seed set shifted by `32 * seed`, so each
/// benchmark seed draws fresh fault schedules) for `chaos-fleet`.
fn load_spec(kind: SimKind, seed: u64, tr: &mut Tracer) -> FleetSpec {
    let span = tr.open("fleet.parse", None);
    let spec = match kind {
        SimKind::ChaosFleet => {
            let offset = (seed % (1 << 32)) * 32;
            let mut merged: Option<FleetSpec> = None;
            for text in CHAOS_SPECS {
                let mut spec = FleetSpec::parse(text).expect("committed chaos spec parses");
                for sc in &mut spec.scenarios {
                    sc.seeds.iter_mut().for_each(|s| *s += offset);
                    sc.overrides.iter_mut().for_each(|(s, _)| *s += offset);
                }
                match merged.as_mut() {
                    Some(m) => m.scenarios.extend(spec.scenarios),
                    None => {
                        spec.name = "chaos-fleet".into();
                        merged = Some(spec);
                    }
                }
            }
            merged.expect("two specs")
        }
        _ => FleetSpec::parse(&sweep_spec_text(kind, seed)).expect("generated spec parses"),
    };
    tr.close(span);
    spec
}

/// Host reference of a runner's output stream.
fn reference(runner: Runner, scenario: &Scenario) -> Vec<u64> {
    let input = scenario.input_words();
    match runner {
        Runner::Chain | Runner::Failover => {
            Workload::Sha.reference_outputs(&Workload::Aes.reference_outputs(&input))
        }
        _ => scenario.workload.reference_outputs(&input),
    }
}

/// Set-up: spec parsing, scenario and input generation, references.
pub fn setup(kind: SimKind, seed: u64, tr: &mut Tracer) -> SimSetup {
    let spec = load_spec(kind, seed, tr);
    let mut jobs = Vec::new();
    for sc in &spec.scenarios {
        for &s in &sc.seeds {
            let params = sc.params_for(s).clone();
            let (scenario, shard) = tr.span("fleet.to_scenario", None, || {
                params.to_scenario(sc.runner, s)
            });
            let expected = tr.span("scenarios.reference_outputs", None, || {
                reference(sc.runner, &scenario)
            });
            jobs.push(Job {
                name: sc.name.clone(),
                runner: sc.runner,
                params,
                seed: s,
                scenario,
                shard,
                expected,
            });
        }
    }
    let threads = match kind {
        SimKind::ChaosFleet => std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        _ => 1,
    };
    SimSetup {
        kind,
        spec,
        jobs,
        threads,
    }
}

/// What one pass measured and checked.
#[derive(Default)]
pub struct PassOut {
    /// Wall, per-call times, checks and pins.
    pub core: Checked,
    /// Σ simulated cycles.
    pub sim_cycles: u64,
    /// Runs (fleet jobs or simulations) in the pass.
    pub runs: u64,
    /// Host ms inside `run_scenario` per runner.
    pub runner_ms: Vec<(Runner, f64)>,
    /// The fleet records (chaos-fleet).
    pub records: Vec<RunRecord>,
    /// Full results, kept only by traced passes.
    pub results: Vec<RunResult>,
}

impl PassOut {
    fn add_runner_ms(&mut self, runner: Runner, ms: f64) {
        match self.runner_ms.iter_mut().find(|(r, _)| *r == runner) {
            Some((_, t)) => *t += ms,
            None => self.runner_ms.push((runner, ms)),
        }
    }
}

/// Runs one simulation through `run_scenario`, turning a panic or a
/// binding error into a failure string.
fn simulate(job: &Job) -> Result<RunResult, String> {
    match catch_unwind(AssertUnwindSafe(|| {
        run_scenario(job.runner, &job.scenario, job.shard.as_ref())
    })) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(format!("{}: shard binding failed: {e}", job.key())),
        Err(_) => Err(format!("{}: run panicked", job.key())),
    }
}

/// True when a simulation's output matches its host reference: the
/// runner's own verdict, plus an independent comparison where the
/// recorded words are the output stream.
fn output_ok(job: &Job, r: &RunResult) -> bool {
    r.verified && (!job.records_outputs() || r.recorded == job.expected)
}

/// One closed-loop pass over the fault-free sweeps: every job through
/// `run_scenario`, verified as it returns. `keep` retains the full
/// results (traced passes). `corrupt` forces the first output check to
/// fail (self-test).
pub fn sweep_pass(
    setup: &SimSetup,
    tr: &mut Tracer,
    pins: Pins<'_>,
    keep: bool,
    corrupt: bool,
) -> PassOut {
    let mut out = PassOut::default();
    out.core.force_failure = corrupt;
    let start = Instant::now();
    for (i, job) in setup.jobs.iter().enumerate() {
        let t = Instant::now();
        let span = tr.open("scenarios.run_scenario", Some(i as u64));
        let res = simulate(job);
        tr.close(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.core.push_call(0, ms);
        out.add_runner_ms(job.runner, ms);
        out.runs += 1;
        match res {
            Ok(r) => {
                let span = tr.open("scenarios.verify", Some(i as u64));
                let ok = output_ok(job, &r);
                let why = "output does not match the host reference";
                out.core
                    .check_run(ok, why, pins, job.key(), r.cycles, r.checksum);
                tr.close(span);
                out.sim_cycles += r.cycles;
                if keep {
                    out.results.push(r);
                }
            }
            Err(e) => out.core.check(false, || e),
        }
    }
    out.core.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Verifies the fleet's records: every run survived and delivered the
/// full stream, and (default seed) matches its pin.
fn verify_records(out: &mut PassOut, setup: &SimSetup, pins: Pins<'_>, tr: &mut Tracer) {
    let span = tr.open("scenarios.verify", None);
    let records = std::mem::take(&mut out.records);
    for (job, rec) in setup.jobs.iter().zip(&records) {
        let full_stream = !job.records_outputs() || rec.elements == job.expected.len() as u64;
        let ok = rec.outcome.survived() && full_stream;
        let why = format!("{} {}", rec.outcome, rec.note);
        out.core
            .check_run(ok, &why, pins, job.key(), rec.cycles, rec.checksum);
        out.sim_cycles += rec.cycles;
    }
    out.records = records;
    tr.close(span);
}

/// One `chaos-fleet` pass: the whole campaign through `run_fleet` at the
/// workload's host threads (this is the pass wall), then every
/// [`SERIAL_STRIDE`]-th job again through `run_one` on this thread for the
/// closed-loop per-run latency.
pub fn fleet_pass(setup: &SimSetup, tr: &mut Tracer, pins: Pins<'_>, corrupt: bool) -> PassOut {
    let mut out = PassOut::default();
    out.core.force_failure = corrupt;
    let start = Instant::now();
    let span = tr.open("fleet.run_fleet", None);
    out.records = run_fleet(&setup.spec, setup.threads, false);
    tr.close(span);
    out.core.wall_s = start.elapsed().as_secs_f64();
    out.runs = out.records.len() as u64;
    let got = out.records.len();
    let complete = got == setup.jobs.len();
    out.core.check(complete, || {
        format!("run_fleet returned {got} of {} records", setup.jobs.len())
    });
    if !complete {
        return out;
    }
    verify_records(&mut out, setup, pins, tr);
    let mut runners = Vec::new();
    for (i, job) in setup.jobs.iter().enumerate().step_by(SERIAL_STRIDE) {
        let group = runners
            .iter()
            .position(|&r| r == job.runner)
            .unwrap_or_else(|| {
                runners.push(job.runner);
                runners.len() - 1
            });
        let t = Instant::now();
        let span = tr.open("fleet.run_one", Some(i as u64));
        let rec = run_one(
            &job.name,
            job.runner,
            &job.params,
            job.seed,
            setup.spec.hang_wall_ms,
        );
        tr.close(span);
        out.core.push_call(group, t.elapsed().as_secs_f64() * 1e3);
        let same = rec == out.records[i];
        out.core.check(same, || {
            format!("{}: run_one disagrees with run_fleet", job.key())
        });
    }
    out
}

/// The traced run's serial campaign: every job on this thread, in spec
/// order, through `run_one` (whose walls, summed, are the numerator of
/// the fan-out efficiency; its record must equal the fan-out's), then
/// once more through `run_scenario` to keep the full result, which must
/// match the record and the host reference.
pub fn fleet_serial_pass(setup: &SimSetup, tr: &mut Tracer, fleet: &[RunRecord]) -> (PassOut, f64) {
    let mut out = PassOut::default();
    let mut serial_s = 0.0;
    for (i, job) in setup.jobs.iter().enumerate() {
        let t = Instant::now();
        let span = tr.open("fleet.run_one", Some(i as u64));
        let rec = run_one(
            &job.name,
            job.runner,
            &job.params,
            job.seed,
            setup.spec.hang_wall_ms,
        );
        tr.close(span);
        serial_s += t.elapsed().as_secs_f64();
        out.core.check(fleet.get(i) == Some(&rec), || {
            format!("{}: run_one disagrees with run_fleet", job.key())
        });

        let t = Instant::now();
        let span = tr.open("scenarios.run_scenario", Some(i as u64));
        let res = simulate(job);
        tr.close(span);
        out.add_runner_ms(job.runner, t.elapsed().as_secs_f64() * 1e3);
        out.runs += 1;
        match res {
            Ok(r) => {
                let same = classify(&job.name, job.runner, &job.params, job.seed, &r) == rec;
                out.core.check(same && output_ok(job, &r), || {
                    format!(
                        "{}: result disagrees with its record or reference",
                        job.key()
                    )
                });
                out.results.push(r);
            }
            Err(e) => out.core.check(false, || e),
        }
    }
    (out, serial_s)
}

/// Classifies kept results into fleet records (the sweeps' outcome
/// counts come from the same classifier the fleet uses).
pub fn classify_all(setup: &SimSetup, results: &[RunResult], tr: &mut Tracer) -> Vec<RunRecord> {
    setup
        .jobs
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (job, r))| {
            tr.span("fleet.classify", Some(i as u64), || {
                classify(&job.name, job.runner, &job.params, job.seed, r)
            })
        })
        .collect()
}

/// Times `SimSystem::build` for each job's hardware complement — the
/// engines and MAPLE unit its runner instantiates — outside the run.
/// Returns per-build microseconds.
pub fn build_probe(setup: &SimSetup, tr: &mut Tracer) -> Vec<f64> {
    setup
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let s = &job.scenario;
            let engines = match job.runner {
                Runner::Mmio | Runner::Dma | Runner::DmaChaos => 0,
                Runner::Chain => 2,
                Runner::Failover => 3,
                Runner::Sharded => s.soc.engines,
                Runner::Mesh16 => 4,
                _ => 1,
            };
            let spec = SystemSpec {
                cfg: s.soc.clone(),
                policy: s.policy,
                engine_accels: (0..engines).map(|_| s.workload.make_accel()).collect(),
                maple_accel: (engines == 0).then(|| s.workload.make_accel()),
                ..SystemSpec::default()
            };
            let t = Instant::now();
            let sys = tr.span("system.build", Some(i as u64), || {
                SimSystem::build(spec, Program::new())
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(sys);
            us
        })
        .collect()
}

/// Rolls kept results up into simulated counts.
pub fn roll_up(results: &[RunResult]) -> SimCounts {
    let mut c = SimCounts::default();
    results.iter().for_each(|r| c.add(r));
    c
}

/// Outcome counts of a record set, in [`Outcome::ALL`] order.
pub fn outcome_counts(records: &[RunRecord]) -> Vec<(&'static str, u64)> {
    Outcome::ALL
        .iter()
        .map(|o| {
            (
                o.name(),
                records.iter().filter(|r| r.outcome == *o).count() as u64,
            )
        })
        .collect()
}
