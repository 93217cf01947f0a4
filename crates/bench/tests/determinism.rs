//! The determinism contract, enforced end to end.
//!
//! For a fixed scenario and seed, `RunResult::{cycles, checksum, recorded,
//! stats_json}` must be bit-identical whether the run loop steps every
//! cycle (`Lookahead::Force1`) or lets conservative lookahead skip every
//! provably dead cycle (`Lookahead::Auto`): a fast-forwarded cycle must
//! be indistinguishable from a stepped one, down to the last histogram
//! bucket in the stats-registry JSON. Write staging with commit-at-barrier
//! is what makes the cycle-by-cycle reference itself independent of
//! component registration order (see the unit tests in
//! `cohort_sim::soc`).

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, ShardSpec, Workload};
use cohort_sim::config::{Lookahead, SocConfig};
use cohort_sim::faultinject::FaultPlan;

/// Runs `scenario` through `runner` (a 2-shard spec for the sharded one).
fn run(runner: Runner, scenario: &Scenario) -> RunResult {
    let shard = (runner == Runner::Sharded).then(|| ShardSpec::new(2));
    run_scenario(runner, scenario, shard.as_ref()).expect("valid scenario")
}

/// Runs the scenario built by `run` under `Force1` and `Auto` and
/// asserts every simulated observable agrees.
fn assert_lookahead_invariant(name: &str, run: impl Fn(Lookahead) -> RunResult) {
    let base = run(Lookahead::Force1);
    assert!(base.verified, "{name}: Force1 run failed verification");
    assert_eq!(
        base.ff_cycles, 0,
        "{name}: forced cycle-by-cycle stepping must never skip"
    );
    let r = run(Lookahead::Auto);
    assert!(r.verified, "{name}: Auto run failed verification");
    assert_eq!(base.cycles, r.cycles, "{name}: cycle count diverged");
    assert_eq!(
        base.checksum, r.checksum,
        "{name}: payload checksum diverged"
    );
    assert_eq!(
        base.recorded, r.recorded,
        "{name}: recorded stream diverged"
    );
    assert_eq!(
        base.stats_json, r.stats_json,
        "{name}: stats registry diverged"
    );
}

#[test]
fn sharded_runs_are_lookahead_invariant() {
    assert_lookahead_invariant("sharded-aes", |lookahead| {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default().with_lookahead(lookahead);
        run(Runner::Sharded, &scenario)
    });
}

#[test]
fn mesh16_runs_are_lookahead_invariant() {
    assert_lookahead_invariant("mesh16", |lookahead| {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default().with_lookahead(lookahead);
        run(Runner::Mesh16, &scenario)
    });
}

#[test]
fn dram_contended_runs_are_lookahead_invariant() {
    // The DRAM contention model (plus its MSHR and NoC-ejection
    // backpressure) feeds every completion through the directory's
    // delayed-event heap, so it must be exactly as lookahead-invariant
    // as the flat memory system — including the conditionally-registered
    // dram_* stats.
    let dram = cohort_sim::dram::DramConfig::from_spec("channels=1,queue=2,miss=100,mshrs=3")
        .expect("valid dram spec");
    assert_lookahead_invariant("sharded-aes-dram", |lookahead| {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default()
            .with_dram(dram.clone())
            .with_lookahead(lookahead);
        run(Runner::Sharded, &scenario)
    });
}

#[test]
fn chaos_runs_are_lookahead_invariant() {
    // Stall + latency spike + page storm: every staged fault-flip path,
    // with the full recovery stack (watchdog, swap store, retry) armed.
    let plan = FaultPlan::parse("stall@2000:1500;spike@5000:3000:4;storm@9000:2")
        .expect("valid fault spec");
    assert_lookahead_invariant("chaos", |lookahead| {
        let mut scenario = Scenario::new(Workload::Sha, 64, 8);
        scenario.soc = SocConfig::default()
            .with_faults(plan.clone())
            .with_lookahead(lookahead);
        run(Runner::Chaos, &scenario)
    });
}

#[test]
fn failover_runs_are_lookahead_invariant() {
    // Default plan: fail-stop of the mid-chain SHA engine at cycle 20k,
    // exactly-once queue migration onto the cold spare.
    assert_lookahead_invariant("chain-failover", |lookahead| {
        let mut scenario = Scenario::new(Workload::Sha, 64, 8);
        scenario.soc = SocConfig::default().with_lookahead(lookahead);
        run(Runner::Failover, &scenario)
    });
}
