//! `socrun` end to end: compositions `run_scenario` refuses and retired
//! flags exit 2 with a message instead of panicking, and a valid run
//! prints what `run_scenario` returns.

use cohort::scenarios::{check_scenario, run_scenario, Runner, Scenario, ShardSpec, Workload};
use cohort_os::addrspace::MapPolicy;
use cohort_sim::faultinject::FaultPlan;
use std::process::{Command, Output};

fn socrun(args: &str) -> Output {
    let bin = env!("CARGO_BIN_EXE_socrun");
    let out = Command::new(bin).args(args.split_whitespace()).output();
    out.expect("socrun starts")
}

/// Asserts exit 2 without a panic; returns stderr.
fn rejected(args: &str) -> String {
    let out = socrun(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "socrun {args}: {stderr}");
    assert!(!stderr.contains("panicked"), "socrun {args}: {stderr}");
    stderr
}

#[test]
fn rejected_compositions_and_retired_flags_exit_2() {
    let mut failover = Scenario::new(Workload::Sha, 256, 64);
    failover.soc.faults = FaultPlan::parse("kill@20000:0").expect("valid plan");
    let mut dma = Scenario::new(Workload::Sha, 1024, 64);
    dma.policy = MapPolicy::Lazy;
    let cases = [
        (
            "--mode chain --queue 100",
            Runner::Chain,
            Scenario::new(Workload::Sha, 100, 64),
        ),
        (
            "--mode shard --workload aes --queue 1023 --shards 2",
            Runner::Sharded,
            Scenario::new(Workload::Aes, 1023, 64),
        ),
        (
            "--mode failover --queue 256 --faults kill@20000:0",
            Runner::Failover,
            failover,
        ),
        ("--mode dma --policy lazy", Runner::Dma, dma),
    ];
    for (args, runner, scenario) in cases {
        // The message is the one the shared check gives.
        let spec = (runner == Runner::Sharded).then(|| ShardSpec::new(2));
        let err = check_scenario(runner, &scenario, spec.as_ref()).expect_err("invalid");
        let stderr = rejected(args);
        assert!(stderr.contains(&err.to_string()), "socrun {args}: {stderr}");
    }
    rejected("--mode shard --shards 4 --faults kill@20000:0;kill@25000:1");
    rejected("--engines 3");
    rejected("--tlb 8");
}

#[test]
fn sharded_run_prints_the_run_scenario_checksum() {
    let out = socrun("--workload aes --shards 2 --queue 64 --batch 8");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let scenario = Scenario::new(Workload::Aes, 64, 8);
    let r = run_scenario(Runner::Sharded, &scenario, Some(&ShardSpec::new(2))).expect("valid");
    assert!(stdout.contains(" shards=2 placement=rr engines=2 skew=false"));
    let checksum = format!("checksum: {:#018x}", r.checksum);
    assert!(stdout.contains(&checksum), "{stdout}");
}
