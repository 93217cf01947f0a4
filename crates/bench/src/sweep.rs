//! Memoized benchmark execution across figures.

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, ShardSpec, Workload};
use cohort_os::driver::Placement;
use cohort_sim::dram::DramConfig;
use std::collections::HashMap;

/// Communication API under test (Table 2 "communication modes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Cohort engine + SPSC queues, with a batching factor.
    Cohort {
        /// Pointer-update batching factor.
        batch: u64,
    },
    /// MMIO word-at-a-time baseline.
    Mmio,
    /// Coherent DMA baseline.
    Dma,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Cohort { batch } => write!(f, "Cohort batch={batch}"),
            Mode::Mmio => f.write_str("MMIO"),
            Mode::Dma => f.write_str("DMA-Coherent"),
        }
    }
}

/// A memoizing runner: each `(workload, mode, queue_size)` configuration is
/// simulated once and the [`RunResult`] shared between figures.
#[derive(Default)]
pub struct Sweep {
    cache: HashMap<(Workload, Mode, u64), RunResult>,
    #[allow(clippy::type_complexity)]
    shard_cache: HashMap<(Workload, usize, Placement, bool, u64, Option<DramConfig>), RunResult>,
    /// If true, print one progress line per fresh simulation.
    pub verbose: bool,
}

impl Sweep {
    /// Creates an empty sweep cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sweep cache that logs each fresh simulation.
    pub fn new_verbose() -> Self {
        Self {
            verbose: true,
            ..Self::default()
        }
    }

    /// Runs (or recalls) one configuration.
    ///
    /// # Panics
    /// Panics if the simulated output fails end-to-end verification — a
    /// benchmark number is only reported for runs whose accelerator output
    /// matched the host-side reference.
    pub fn run(&mut self, workload: Workload, mode: Mode, queue_size: u64) -> &RunResult {
        let key = (workload, mode, queue_size);
        if !self.cache.contains_key(&key) {
            if self.verbose {
                eprintln!("  simulating {workload:?} {mode} queue={queue_size} ...");
            }
            let (runner, batch) = match mode {
                Mode::Cohort { batch } => (Runner::Cohort, batch),
                Mode::Mmio => (Runner::Mmio, 64),
                Mode::Dma => (Runner::Dma, 64),
            };
            let scenario = Scenario::new(workload, queue_size, batch);
            let result = run_scenario(runner, &scenario, None).expect("valid scenario");
            assert!(
                result.verified,
                "unverified run: {workload:?} {mode} queue={queue_size}"
            );
            self.cache.insert(key, result);
        }
        &self.cache[&key]
    }

    /// Runs (or recalls) one sharded configuration: the logical stream
    /// split over `shards` engines under the given placement policy, with
    /// uniform or skewed element runs.
    ///
    /// # Panics
    /// Panics if the pool cannot bind (the shard count is validated
    /// upstream by callers with user input) or the run fails end-to-end
    /// verification.
    pub fn run_sharded(
        &mut self,
        workload: Workload,
        shards: usize,
        placement: Placement,
        skewed: bool,
        queue_size: u64,
    ) -> &RunResult {
        self.run_sharded_mem(workload, shards, placement, skewed, queue_size, None)
    }

    /// [`Sweep::run_sharded`] with an explicit memory system: `dram: None`
    /// is the flat-latency baseline, `Some(cfg)` enables the bank/channel
    /// contention model. The memory system is part of the memoization key,
    /// so flat and contended runs of the same geometry never alias.
    ///
    /// # Panics
    /// Same as [`Sweep::run_sharded`].
    pub fn run_sharded_mem(
        &mut self,
        workload: Workload,
        shards: usize,
        placement: Placement,
        skewed: bool,
        queue_size: u64,
        dram: Option<&DramConfig>,
    ) -> &RunResult {
        let key = (
            workload,
            shards,
            placement,
            skewed,
            queue_size,
            dram.cloned(),
        );
        if !self.shard_cache.contains_key(&key) {
            if self.verbose {
                eprintln!(
                    "  simulating {workload:?} sharded n={shards} {placement} skew={skewed} queue={queue_size} mem={} ...",
                    if dram.is_some() { "dram" } else { "flat" }
                );
            }
            let mut scenario = Scenario::new(workload, queue_size, crate::params::PEAK_BATCH);
            scenario.soc.dram = dram.cloned();
            let spec = ShardSpec::new(shards)
                .with_placement(placement)
                .with_skew(skewed);
            let result =
                run_scenario(Runner::Sharded, &scenario, Some(&spec)).expect("valid scenario");
            assert!(
                result.verified,
                "unverified sharded run: {workload:?} n={shards} {placement} queue={queue_size}"
            );
            self.shard_cache.insert(key.clone(), result);
        }
        &self.shard_cache[&key]
    }

    /// Latency in kilocycles (the Fig. 8/9 y-axis).
    pub fn kilocycles(&mut self, workload: Workload, mode: Mode, queue_size: u64) -> f64 {
        self.run(workload, mode, queue_size).cycles as f64 / 1000.0
    }

    /// Speedup of Cohort (given batch) over a baseline mode.
    pub fn speedup(
        &mut self,
        workload: Workload,
        batch: u64,
        baseline: Mode,
        queue_size: u64,
    ) -> f64 {
        let base = self.run(workload, baseline, queue_size).cycles as f64;
        let cohort = self
            .run(workload, Mode::Cohort { batch }, queue_size)
            .cycles as f64;
        base / cohort
    }

    /// Within-Cohort improvement of `batch` over the smallest batch.
    pub fn batching_gain(&mut self, workload: Workload, batch: u64, queue_size: u64) -> f64 {
        let small = crate::params::min_batch(workload);
        let s = self
            .run(workload, Mode::Cohort { batch: small }, queue_size)
            .cycles as f64;
        let b = self
            .run(workload, Mode::Cohort { batch }, queue_size)
            .cycles as f64;
        s / b
    }

    /// Looks up one observability counter (by component prefix and name)
    /// from a memoized run; missing counters read as zero.
    pub fn stat(
        &mut self,
        workload: Workload,
        mode: Mode,
        queue_size: u64,
        comp_prefix: &str,
        name: &str,
    ) -> u64 {
        self.run(workload, mode, queue_size)
            .counter(comp_prefix, name)
            .unwrap_or(0)
    }

    /// IPC speedup of Cohort over a baseline (Figs. 10/11).
    pub fn ipc_speedup(
        &mut self,
        workload: Workload,
        batch: u64,
        baseline: Mode,
        queue_size: u64,
    ) -> f64 {
        let c = self.run(workload, Mode::Cohort { batch }, queue_size).ipc();
        let b = self.run(workload, baseline, queue_size).ipc();
        c / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_returns_identical_results() {
        let mut sweep = Sweep::new();
        let a = sweep
            .run(Workload::Sha, Mode::Cohort { batch: 8 }, 64)
            .cycles;
        let b = sweep
            .run(Workload::Sha, Mode::Cohort { batch: 8 }, 64)
            .cycles;
        assert_eq!(a, b);
        assert_eq!(sweep.cache.len(), 1);
    }

    #[test]
    fn speedups_are_positive_and_verified() {
        let mut sweep = Sweep::new();
        let s = sweep.speedup(Workload::Sha, 64, Mode::Mmio, 128);
        assert!(s > 1.0, "Cohort must beat MMIO: {s}");
    }
}
