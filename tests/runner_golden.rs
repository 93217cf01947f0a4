//! Golden pins for every scenario runner.
//!
//! Each row runs one `(runner, workload, policy)` triple at queue 64,
//! batch 8 through [`run_scenario`] and pins three observables: the
//! simulated cycle count, the payload checksum, and an FNV-1a-64 digest
//! of `stats_json`. The digest is what catches changes the checksum
//! cannot see — `interfered` and `cohort` share a checksum at this size,
//! and the noise core shows only in the stats. One [`CustomRun`] row pins
//! the custom-program path.
//!
//! The table is the simulated-output contract for refactors of the
//! scenario builders: guest allocation order, core IDs and op sequences
//! all feed cache and NoC timing, so any slip moves a pin. The values are
//! never re-blessed to make a refactor pass.

use cohort::scenarios::{
    run_scenario, CustomRun, RunResult, Runner, Scenario, ScenarioError, ShardSpec, Workload,
};
use cohort_accel::sha256::Sha256Accel;
use cohort_os::addrspace::MapPolicy;

/// `(row, cycles, checksum, fnv1a64(stats_json))`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("cohort/sha/eager", 13251, 0xbda4fc11b316b027, 0xc63dabfdb729eaec),
    ("cohort/aes/eager", 17575, 0x834f632a6a3d33bd, 0x2984b2fcf42fa5ec),
    ("mmio/sha/eager", 15360, 0xe02887a77410c909, 0x7be946a34e787956),
    ("mmio/aes/eager", 20930, 0x8c4a00e25471be65, 0x417caed9f781dab8),
    ("dma/sha/eager", 21265, 0x1ccad6edc69ff335, 0x2e2f6c7f4533f047),
    ("dma/aes/eager", 22623, 0x434f2ec52f5271c0, 0xed05b842cf2db11f),
    ("chain/sha/eager", 14958, 0xb2a22c2b648a9860, 0xd32e43a92a1c3b44),
    ("chain/aes/eager", 14958, 0xb2a22c2b648a9860, 0xd32e43a92a1c3b44),
    ("interfered/sha/eager", 13251, 0xbda4fc11b316b027, 0x5ceedf2eb414baf0),
    ("interfered/aes/eager", 17575, 0x834f632a6a3d33bd, 0x7a2ad9aaa3ad2cf2),
    ("chaos/sha/eager", 14141, 0xdc32d665f6791151, 0xe911fe5e86355daf),
    ("chaos/aes/eager", 18405, 0xb110e5c003c1abbb, 0x483ade7aa0e4c735),
    ("failover/sha/eager", 16008, 0xefb2c85ec490b1d2, 0xb340d53acf62c3a1),
    ("failover/aes/eager", 16008, 0xefb2c85ec490b1d2, 0xb340d53acf62c3a1),
    ("dma-chaos/sha/eager", 20897, 0xe4e031687fef8ac9, 0x40f6caf502ed3bd5),
    ("dma-chaos/aes/eager", 21999, 0x0d0648115684b0bb, 0x4f71380d3021bec6),
    ("shard/sha/eager", 8795, 0x0ad240ccf9c0ba60, 0x131722a58cb5ed39),
    ("shard/aes/eager", 11284, 0x58c531d60e97e6be, 0xe533114d9262bf35),
    ("mesh16/sha/eager", 16136, 0x88e1391a76252b47, 0x51fd023d1fe7dde7),
    ("mesh16/aes/eager", 18439, 0x55e450cd5703623d, 0xac6846fc4da4c484),
    ("cohort/sha/lazy", 14111, 0x9526cff63cb170e0, 0xf9f8969bd69c3637),
    ("chaos/sha/lazy", 14301, 0xe0ad5aea86a27729, 0xf1117199766b9551),
    ("shard/sha/lazy", 8795, 0x0ad240ccf9c0ba60, 0x8a7d2380224a6841),
    ("mesh16/sha/lazy", 16623, 0xcefa18871c569375, 0xc2628335d1992d80),
    ("custom/sha/eager", 6405, 0x4f3d38f6f310ee41, 0x8d43182e3591c893),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn policy_name(policy: MapPolicy) -> &'static str {
    match policy {
        MapPolicy::Eager => "eager",
        MapPolicy::Lazy => "lazy",
        MapPolicy::HugePages => "huge",
    }
}

fn workload_name(workload: Workload) -> &'static str {
    match workload {
        Workload::Sha => "sha",
        Workload::Aes => "aes",
    }
}

/// Runs one row: queue 64, batch 8; `shard` binds 2 shards.
fn run_row(
    runner: Runner,
    workload: Workload,
    policy: MapPolicy,
) -> Result<RunResult, ScenarioError> {
    let mut scenario = Scenario::new(workload, 64, 8);
    scenario.policy = policy;
    let shard = (runner == Runner::Sharded).then(|| ShardSpec::new(2));
    run_scenario(runner, &scenario, shard.as_ref())
}

fn custom_row(policy: MapPolicy) -> RunResult {
    let input = Scenario::new(Workload::Sha, 64, 8).input_words();
    let expected = Workload::Sha.reference_outputs(&input);
    let mut run = CustomRun::new(Box::new(Sha256Accel::new()), input, expected);
    run.batch = 8;
    run.policy = policy;
    run.run()
}

/// Every pinned row, in table order.
fn rows() -> Vec<(String, RunResult)> {
    let mut out = Vec::new();
    for runner in Runner::ALL {
        for workload in [Workload::Sha, Workload::Aes] {
            let name = format!("{runner}/{}/eager", workload_name(workload));
            let r = run_row(runner, workload, MapPolicy::Eager).expect("valid scenario");
            out.push((name, r));
        }
    }
    for runner in [
        Runner::Cohort,
        Runner::Chaos,
        Runner::Sharded,
        Runner::Mesh16,
    ] {
        let name = format!("{runner}/sha/{}", policy_name(MapPolicy::Lazy));
        let r = run_row(runner, Workload::Sha, MapPolicy::Lazy).expect("valid scenario");
        out.push((name, r));
    }
    out.push(("custom/sha/eager".to_string(), custom_row(MapPolicy::Eager)));
    out
}

#[test]
fn every_runner_matches_its_golden_pin() {
    let mut actual = Vec::new();
    let mut mismatches = Vec::new();
    for (name, r) in rows() {
        assert!(r.verified, "{name} must verify");
        let row = (r.cycles, r.checksum, fnv1a64(r.stats_json.as_bytes()));
        actual.push(format!(
            "    (\"{name}\", {}, {:#018x}, {:#018x}),",
            row.0, row.1, row.2
        ));
        match GOLDEN.iter().find(|(n, ..)| *n == name) {
            Some(&(_, cycles, checksum, stats)) if (cycles, checksum, stats) == row => {}
            pinned => mismatches.push(format!("{name}: pinned {pinned:?}, got {row:?}")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches:\n{}\nactual table:\n{}",
        mismatches.join("\n"),
        actual.join("\n")
    );
    assert_eq!(GOLDEN.len(), actual.len(), "every pinned row is run");
}

/// Every `(runner, policy)` pair either verifies or is rejected with
/// [`ScenarioError::Policy`] before the run starts; none panics mid-run.
/// A [`CustomRun`] verifies under every policy.
#[test]
fn every_runner_policy_pair_verifies_or_is_rejected() {
    let policies = [MapPolicy::Eager, MapPolicy::Lazy, MapPolicy::HugePages];
    for policy in policies {
        assert!(
            custom_row(policy).verified,
            "custom/{}",
            policy_name(policy)
        );
    }
    let mut rejected = Vec::new();
    for runner in Runner::ALL {
        for policy in policies {
            for workload in [Workload::Sha, Workload::Aes] {
                let row = format!(
                    "{runner}/{}/{}",
                    workload_name(workload),
                    policy_name(policy)
                );
                match run_row(runner, workload, policy) {
                    Ok(r) => assert!(r.verified, "{row} must verify"),
                    Err(e) => {
                        assert_eq!(e, ScenarioError::Policy { runner, policy }, "{row}");
                        rejected.push(row);
                    }
                }
            }
        }
    }
    // MAPLE's DMA walker requires mapped memory.
    assert_eq!(
        rejected,
        [
            "dma/sha/lazy",
            "dma/aes/lazy",
            "dma-chaos/sha/lazy",
            "dma-chaos/aes/lazy"
        ]
    );
}
