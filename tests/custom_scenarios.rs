//! Integration tests for the extension scenarios: arbitrary accelerators
//! through the simulated engine (STFT, null FIFO) and multicore
//! interference.

use cohort::scenarios::{run_scenario, CustomRun, RunResult, Runner, Scenario, Workload};
use cohort_accel::nullfifo::NullFifo;
use cohort_accel::stft::StftAccel;
use cohort_accel::Accelerator;

/// Runs one unsharded scenario through `runner`.
fn run(runner: Runner, scenario: &Scenario) -> RunResult {
    run_scenario(runner, scenario, None).expect("valid scenario")
}

fn words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn stft_through_the_simulated_engine() {
    // One 256-sample frame of a two-tone signal through the Cohort engine;
    // expectation computed by the functional model on the host.
    let n = 256usize;
    let samples: Vec<i16> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let s = (2.0 * std::f64::consts::PI * 5.0 * t).sin() * 9000.0
                + (2.0 * std::f64::consts::PI * 21.0 * t).cos() * 5000.0;
            s as i16
        })
        .collect();
    let input_bytes: Vec<u8> = samples.iter().flat_map(|s| s.to_le_bytes()).collect();
    let expected_bytes = StftAccel::new(n).process_block(&input_bytes);

    let run = CustomRun::new(
        Box::new(StftAccel::new(n)),
        words(&input_bytes),
        words(&expected_bytes),
    );
    let r = run.run();
    assert!(r.verified, "simulated STFT must match the functional model");
    assert_eq!(r.recorded.len(), 4 * n / 8);
}

#[test]
fn null_fifo_is_pure_communication() {
    let input: Vec<u64> = (0..512u64).map(|i| i * 3).collect();
    let r = CustomRun::new(
        Box::new(NullFifo::with_geometry(64, 1)),
        input.clone(),
        input,
    )
    .run();
    assert!(r.verified);
    // Engine counters agree with the data volume.
    assert_eq!(r.counter("engine", "consumed"), Some(512));
    assert_eq!(r.counter("engine", "produced"), Some(512));
}

#[test]
fn custom_run_with_small_batches_still_verifies() {
    let input: Vec<u64> = (0..128u64).collect();
    let mut run = CustomRun::new(Box::new(NullFifo::new()), input.clone(), input);
    run.batch = 4;
    run.backoff = 100;
    let r = run.run();
    assert!(r.verified);
}

#[test]
fn l2_interference_slows_cohort_but_preserves_correctness() {
    let scenario = Scenario::new(Workload::Sha, 512, 64);
    let clean = run(Runner::Cohort, &scenario);
    let noisy = run(Runner::Interfered, &scenario);
    assert!(clean.verified && noisy.verified);
    assert!(
        noisy.cycles > clean.cycles,
        "L2 thrashing must cost something: clean {} vs noisy {}",
        clean.cycles,
        noisy.cycles
    );
    // But the engine still streams correctly under contention.
    assert_eq!(noisy.counter("engine", "consumed"), Some(512));
}
