//! The paper's benchmark scenarios (§5.3) as simulated programs.
//!
//! Benchmark structure follows §5.3 exactly: "to hash 1 block of text we
//! push 64 bits of data 8 times and fetch the corresponding hash with 4
//! pops. For AES, there are 2 pushes and 2 pops ... we encapsulate these
//! movements into batches and run applications until queue size is
//! reached."
//!
//! [`run_scenario`] is the one way to run a scenario. Each [`Runner`] is a
//! preset composition of shared build stages:
//!
//! * **Invocation path**: how the benchmark core reaches the accelerator.
//!   Cohort engines over SPSC queues, word-at-a-time MMIO, or coherent
//!   DMA (the paper's three APIs, §5.1).
//! * **Stream shape**: one engine; one stream sharded over a
//!   [`ShardPool`], with a producer core per shard; or the AES→SHA chain
//!   (Fig. 5).
//! * **Recovery stack**: none; chaos (engine watchdog, swap-backed demand
//!   paging, bounded retry and a software fallback; on the DMA path,
//!   recorded completion words and a dead-unit sentinel check); or
//!   epoch-fenced failover of one engine onto a cold spare.
//! * **Extra cores**: none, an L2-thrashing interference core, or
//!   background "LITTLE" cores.
//!
//! Every path ends in one finish step: a single simulation run, a
//! completion assert, verification against the host-side reference (plus
//! the shard-merge cross-check or the DMA read-back where the stack calls
//! for it) and one [`RunResult`]. [`CustomRun`] brings its own program and
//! reuses the CSR, paging and finish stages.
//!
//! The stages keep a fixed guest allocation order (interference buffer,
//! queues, CSR, spill page, background buffer), fixed core IDs and a fixed
//! op sequence: virtual and physical addresses decide cache and NoC
//! timing, so the simulated cycles depend on them.

use crate::system::{SimSystem, SystemSpec, MAPLE_MMIO_BASE};
use cohort_accel::aes128::{Aes128, Aes128Accel};
use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
use cohort_maple::regs as maple_regs;
use cohort_os::addrspace::MapPolicy;
use cohort_os::driver::{
    fault_in, swap_store, FailoverConfig, Placement, ProgressProbe, ShardPool, SharedVm,
    SoftwareFallback, SwapStore,
};
use cohort_os::sv39::PAGE_BYTES;
use cohort_os::CohortDriver;
use cohort_queue::{QueueDescriptor, SeqMerge};
use cohort_sim::component::CompId;
use cohort_sim::config::SocConfig;
use cohort_sim::core::InOrderCore;
use cohort_sim::faultinject::{splitmix64, FaultInjector, FaultKind, FaultPlan, StormHook};
use cohort_sim::program::{Op, Program};
use cohort_sim::stats::HistogramSummary;
use std::collections::VecDeque;
use std::sync::Arc;

/// The two accelerators of interest (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// SHA-256: 8 pushes, 4 pops per 512-bit block, 66-cycle latency.
    Sha,
    /// AES-128: 2 pushes, 2 pops per 128-bit block, 41-cycle latency,
    /// key via CSR.
    Aes,
}

/// The AES benchmark key (any fixed key; delivered through the CSR path).
pub const AES_KEY: [u8; 16] = *b"cohort-aes-key!!";

impl Workload {
    /// Instantiates the accelerator.
    pub fn make_accel(&self) -> Box<dyn cohort_accel::Accelerator> {
        match self {
            Workload::Sha => Box::new(Sha256Accel::new()),
            Workload::Aes => Box::new(Aes128Accel::new()),
        }
    }

    /// CSR configuration bytes, if the workload needs them.
    pub fn csr(&self) -> Option<Vec<u8>> {
        match self {
            Workload::Sha => None,
            Workload::Aes => Some(AES_KEY.to_vec()),
        }
    }

    /// 64-bit words pushed per accelerator block.
    pub fn words_in_per_block(&self) -> u64 {
        match self {
            Workload::Sha => 8,
            Workload::Aes => 2,
        }
    }

    /// 64-bit words popped per accelerator block.
    pub fn words_out_per_block(&self) -> u64 {
        match self {
            Workload::Sha => 4,
            Workload::Aes => 2,
        }
    }

    /// Host-side reference computation of the output word stream.
    pub fn reference_outputs(&self, input: &[u64]) -> Vec<u64> {
        let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut out = Vec::new();
        match self {
            Workload::Sha => {
                for block in bytes.chunks_exact(64) {
                    out.extend_from_slice(&sha256_raw_block(block.try_into().expect("64B")));
                }
            }
            Workload::Aes => {
                let aes = Aes128::new(&AES_KEY);
                for block in bytes.chunks_exact(16) {
                    out.extend_from_slice(&aes.encrypt_block(block.try_into().expect("16B")));
                }
            }
        }
        out.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8B")))
            .collect()
    }
}

/// Cost constants for the software sides of the three APIs. Loop-overhead
/// values model index arithmetic and branches; `dma_api_alu` models the
/// per-block "special API functions" of the coherent-DMA baseline (§5.3) —
/// the paper does not publish this software cost, so it is calibrated to
/// reproduce the paper's DMA/MMIO ratio (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineCosts {
    /// ALU instructions per push-loop iteration.
    pub push_loop_alu: u32,
    /// ALU instructions per pop-loop iteration.
    pub pop_loop_alu: u32,
    /// ALU instructions around each MMIO access.
    pub mmio_loop_alu: u32,
    /// DMA granularity in bytes (Table 2: 256).
    pub dma_block_bytes: u64,
    /// Per-DMA-block software API cost in instructions (calibrated).
    pub dma_api_alu: u32,
}

impl Default for BaselineCosts {
    fn default() -> Self {
        Self {
            push_loop_alu: 2,
            pop_loop_alu: 2,
            mmio_loop_alu: 10,
            dma_block_bytes: 256,
            dma_api_alu: 9000,
        }
    }
}

/// Full configuration of one benchmark run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which accelerator.
    pub workload: Workload,
    /// Total input elements pushed == input queue length (Table 2:
    /// 64..8192).
    pub queue_size: u64,
    /// Pointer-update batching factor (Table 2: 2..64).
    pub batch: u64,
    /// SoC configuration.
    pub soc: SocConfig,
    /// Page mapping policy.
    pub policy: MapPolicy,
    /// RCM backoff window in cycles.
    pub backoff: u64,
    /// Input data seed.
    pub seed: u64,
    /// Software cost constants.
    pub costs: BaselineCosts,
    /// When true, the SoC's structured event trace is enabled for the run
    /// and the Chrome `trace_event` JSON lands in [`RunResult::trace_json`].
    pub trace: bool,
    /// Engine forward-progress watchdog budget in cycles. Only the
    /// recovery stacks ([`Runner::Chaos`], [`Runner::Failover`] and a
    /// sharded run with a shard kill) arm the watchdog; 0 there selects
    /// [`CHAOS_DEFAULT_WATCHDOG`].
    pub watchdog: u64,
}

impl Scenario {
    /// A scenario with default platform parameters.
    pub fn new(workload: Workload, queue_size: u64, batch: u64) -> Self {
        Self {
            workload,
            queue_size,
            batch: batch.max(1),
            soc: SocConfig::default(),
            policy: MapPolicy::Eager,
            backoff: 700,
            seed: 0x5eed,
            costs: BaselineCosts::default(),
            trace: false,
            watchdog: 0,
        }
    }

    /// Deterministic input words (splitmix64 over the seed).
    pub fn input_words(&self) -> Vec<u64> {
        let mut state = self.seed;
        (0..self.queue_size)
            .map(|_| splitmix64(&mut state))
            .collect()
    }

    /// Output element count for this input size.
    pub fn output_words(&self) -> u64 {
        self.queue_size * self.workload.words_out_per_block() / self.workload.words_in_per_block()
    }
}

/// The outcome of one simulated benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// End-to-end program latency in cycles (what Figs. 8/9 plot).
    pub cycles: u64,
    /// Instructions the benchmark core retired.
    pub instret: u64,
    /// The output words the core observed.
    pub recorded: Vec<u64>,
    /// True if `recorded` matches the host-side reference — every run is
    /// functionally verified end to end.
    pub verified: bool,
    /// Named counters gathered from all components.
    pub counters: Vec<(String, Vec<(String, u64)>)>,
    /// Histogram summaries from the stats registry under their scoped
    /// names (`engine#0.in_queue_occupancy`, …), so callers can assert on
    /// percentiles without parsing [`RunResult::stats_json`].
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Stats-registry snapshot (counters + histogram summaries) as JSON.
    pub stats_json: String,
    /// Order-sensitive checksum over the run's observable payload (final
    /// cycle plus every recorded word). This is the value the determinism
    /// contract pins down: for a given scenario and seed it is
    /// bit-identical under either `Lookahead` mode and any component
    /// registration order.
    pub checksum: u64,
    /// Chrome `trace_event` JSON, present when the scenario enabled
    /// tracing. Loadable in Perfetto / `chrome://tracing`.
    pub trace_json: Option<String>,
    /// Cycles the run loop actually stepped (and so paid the commit
    /// barrier for). With `Lookahead::Force1` this equals [`Self::cycles`];
    /// under `Auto` the difference is covered by [`Self::ff_cycles`].
    /// Host-side kernel telemetry: excluded from `stats_json` and
    /// `checksum` by construction, so it may vary freely with the batching
    /// mode while the simulated results stay bit-identical.
    pub barrier_activations: u64,
    /// Cycles the conservative lookahead proved no-ops and skipped.
    pub ff_cycles: u64,
}

impl RunResult {
    /// Instructions per cycle of the benchmark core (§6.2).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instret as f64 / self.cycles as f64
        }
    }

    /// Looks up one counter by component prefix and name.
    pub fn counter(&self, comp_prefix: &str, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(c, _)| c.starts_with(comp_prefix))
            .and_then(|(_, list)| list.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
    }

    /// Looks up one histogram summary by its scoped registry name.
    pub fn histogram(&self, scoped_name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == scoped_name)
            .map(|(_, h)| h)
    }
}

/// Budget generous enough for the slowest (MMIO, 8192-element) runs.
fn cycle_budget(queue_size: u64) -> u64 {
    20_000_000 + queue_size * 10_000
}

/// Computes [`RunResult::checksum`]: splitmix64-mixed over the final
/// cycle count and the recorded output words, order-sensitive.
fn payload_checksum(cycles: u64, recorded: &[u64]) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ cycles;
    let mut acc = splitmix64(&mut state);
    for &w in recorded {
        state ^= w;
        acc = acc.rotate_left(7) ^ splitmix64(&mut state);
    }
    acc
}

/// How [`Runner::Sharded`] splits the logical stream and steers the
/// pieces onto engines.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// Number of shards (engines the pool binds). [`run_scenario`] sizes
    /// [`SocConfig::engines`] to match, plus one spare when the fault plan
    /// kills a shard.
    pub shards: usize,
    /// Placement policy.
    pub placement: Placement,
    /// When true, element runs have splitmix64-skewed sizes (mostly
    /// small, occasionally large) instead of uniform ones — the variant
    /// where occupancy-aware placement pulls ahead of round-robin.
    pub skewed: bool,
    /// Extra "LITTLE" cores added to the mesh beyond the shard
    /// producers. Each streams stores through its slice of a 2x-L2
    /// working set — background memory traffic that contends for the
    /// shared cache without participating in the benchmark. The noise
    /// programs are deterministic, so results stay bit-identical for a
    /// given spec.
    pub background_cores: usize,
}

impl ShardSpec {
    /// A spec with `shards` shards, round-robin placement, uniform runs.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            placement: Placement::RoundRobin,
            skewed: false,
            background_cores: 0,
        }
    }

    /// Builder-style placement override.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style skew toggle.
    pub fn with_skew(mut self, skewed: bool) -> Self {
        self.skewed = skewed;
        self
    }

    /// Builder-style background ("LITTLE") core count.
    pub fn with_background_cores(mut self, n: usize) -> Self {
        self.background_cores = n;
        self
    }
}

/// Blocks per element run in the uniform (non-skewed) sharded scenario.
const UNIFORM_CHUNK_BLOCKS: u64 = 4;

/// One contiguous run of accelerator blocks after placement: where its
/// input lands in its shard's input ring and where its output appears in
/// the shard's output ring. The index of the chunk in the plan vector is
/// its global sequence number.
#[derive(Debug, Clone, Copy)]
struct ShardChunk {
    shard: usize,
    in_off: u64,
    in_words: u64,
    out_off: u64,
    out_words: u64,
}

/// Splits the scenario's stream into element runs (sizes in accelerator
/// blocks). Uniform: fixed [`UNIFORM_CHUNK_BLOCKS`]-block runs. Skewed:
/// splitmix64-jittered sizes with every fourth run heavy (8–16 blocks,
/// the rest 1–3) — the I-frame-like periodic burst that is the classic
/// adversarial input for blind round-robin: whenever the period is a
/// multiple of the shard count, every heavy run collides on one engine,
/// while load-aware placement keeps shard totals level.
fn shard_chunk_blocks(scenario: &Scenario, skewed: bool) -> Vec<u64> {
    let total = scenario.queue_size / scenario.workload.words_in_per_block();
    let mut out = Vec::new();
    let mut left = total;
    let mut state = scenario.seed ^ 0x5eed_c0ff_ee01_d00d;
    while left > 0 {
        let blocks = if skewed {
            let z = splitmix64(&mut state);
            if out.len().is_multiple_of(4) {
                8 + z % 9
            } else {
                1 + z % 3
            }
        } else {
            UNIFORM_CHUNK_BLOCKS
        };
        let blocks = blocks.min(left);
        out.push(blocks);
        left -= blocks;
    }
    out
}

/// Default watchdog budget the recovery stacks arm when the scenario
/// leaves [`Scenario::watchdog`] at 0. Long enough that healthy backoff
/// idling never trips it, short enough that a wedged engine is detected
/// well inside the cycle budget.
pub const CHAOS_DEFAULT_WATCHDOG: u64 = 150_000;

/// Cycle at which [`Runner::Failover`] kills the victim engine when the
/// scenario carries no explicit fault plan: late enough that registration
/// finished and the pipeline is mid-flight, early enough that plenty of
/// elements remain to migrate.
pub const DEFAULT_CHAIN_KILL_CYCLE: u64 = 20_000;

/// Which scenario runner executes a [`Scenario`]: the declarative name
/// shared by `socrun --mode` and the fleet spec's `runner =` key. Each
/// runner is a preset composition of the build stages described in the
/// module docs; [`run_scenario`] executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Runner {
    /// The paper's Cohort benchmark (§5.3): one engine, SPSC queues,
    /// pushes with batched write-index publication, pops with batched
    /// read-index release.
    Cohort,
    /// The MMIO baseline (§5.1): word-at-a-time, fully blocking accesses,
    /// each block's output received before the next block's input.
    Mmio,
    /// The coherent-DMA baseline (§5.1): the core stages input in memory,
    /// programs MAPLE per 256-byte block (MMIO writes plus API software
    /// cost), waits for completion and reads the results back.
    Dma,
    /// Transparent accelerator chaining (Fig. 5, §4.5): an AES engine
    /// feeds a SHA engine through a shared queue, with no software in
    /// between; the core pops digests. The queue size must be a multiple
    /// of 8 (whole SHA blocks).
    Chain,
    /// The Cohort benchmark while a second Ariane core (the platform has
    /// two, Fig. 2) thrashes the shared L2 with streaming stores — a
    /// multicore-interference study beyond the paper's single-tenant
    /// numbers.
    Interfered,
    /// The Cohort benchmark under the fault plan in `scenario.soc.faults`
    /// with the full recovery stack armed: the engine watchdog, demand
    /// paging backed by a swap store, a storm hook evicting queue pages
    /// through that store, and the error handler with bounded retry (2)
    /// and a software fallback that recomputes the output stream. Chaos
    /// may cost cycles, never correctness.
    Chaos,
    /// The chain with a fail-stop of the SHA engine (engine 1) and the
    /// failover stack armed: a cold-spare SHA engine, the victim's
    /// watchdog with checkpoint spill, and the orchestrator that fences
    /// the victim behind a bumped epoch and rebinds its queues on the
    /// spare. With no fault plan, `kill@`[`DEFAULT_CHAIN_KILL_CYCLE`]`:1`
    /// is injected. The digest stream must match the fault-free run.
    Failover,
    /// The DMA baseline hardened for MAPLE faults: every `DMA_DONE`
    /// completion word is recorded, and the outputs are read back from
    /// guest memory after the run. A fail-stopped MAPLE answers blocking
    /// MMIO with [`cohort_maple::DEAD_SENTINEL`] instead of hanging; the
    /// sentinel in the recorded stream fails verification.
    DmaChaos,
    /// One logical stream split at element-run granularity by a
    /// [`ShardPool`] over [`ShardSpec::shards`] engines, each fed by its
    /// own producer core (§6: one software thread per engine). The
    /// benchmark core pops every output ring in global sequence order —
    /// the merge — and the run is cross-checked through a
    /// sequence-tagged merge. When the fault plan kills a shard, that
    /// shard fails over onto a spare engine. Queue sizes must be whole
    /// accelerator blocks.
    Sharded,
    /// The 16-core big.LITTLE mesh: the benchmark core and 4 producer
    /// cores feed 4 sharded engines while 11 "LITTLE" cores stream
    /// background stores through the shared L2. The standard
    /// many-component workload for the simulation kernel.
    Mesh16,
}

impl Runner {
    /// Every runner, in declaration order.
    pub const ALL: [Runner; 10] = [
        Runner::Cohort,
        Runner::Mmio,
        Runner::Dma,
        Runner::Chain,
        Runner::Interfered,
        Runner::Chaos,
        Runner::Failover,
        Runner::DmaChaos,
        Runner::Sharded,
        Runner::Mesh16,
    ];

    /// The declarative name (`socrun --mode`, fleet `runner =`).
    pub fn name(&self) -> &'static str {
        match self {
            Runner::Cohort => "cohort",
            Runner::Mmio => "mmio",
            Runner::Dma => "dma",
            Runner::Chain => "chain",
            Runner::Interfered => "interfered",
            Runner::Chaos => "chaos",
            Runner::Failover => "failover",
            Runner::DmaChaos => "dma-chaos",
            Runner::Sharded => "shard",
            Runner::Mesh16 => "mesh16",
        }
    }

    /// Parses a runner name (`shard` and `sharded` both accepted).
    pub fn parse(s: &str) -> Option<Runner> {
        match s {
            "sharded" => Some(Runner::Sharded),
            _ => Runner::ALL.iter().copied().find(|r| r.name() == s),
        }
    }

    /// True for runners that host the workload behind Cohort engines at
    /// all (false for the MMIO/DMA baselines, which use MAPLE).
    pub fn uses_cohort_engines(&self) -> bool {
        !matches!(self, Runner::Mmio | Runner::Dma | Runner::DmaChaos)
    }
}

impl std::fmt::Display for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The shard a kill fault in `faults` fail-stops, if it targets one of
/// the first `shards` engines.
fn shard_victim(faults: &FaultPlan, shards: usize) -> Option<usize> {
    faults.schedule().iter().find_map(|ev| match ev.kind {
        FaultKind::KillEngine { engine } if (engine as usize) < shards => Some(engine as usize),
        _ => None,
    })
}

/// Engines the SoC must instantiate for a sharded run: one per shard,
/// plus one spare when the fault plan kills a shard engine (the failover
/// target). [`run_scenario`] sizes the pool with it.
pub fn sharded_engines_for(faults: &FaultPlan, shards: usize) -> usize {
    shards + usize::from(shard_victim(faults, shards).is_some())
}

/// How the benchmark core reaches the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Invocation {
    /// SPSC queues in guest memory, bridged by Cohort engines.
    Cohort,
    /// Word-at-a-time blocking MMIO to MAPLE.
    Mmio,
    /// Coherent DMA programmed through MAPLE, one transfer per block.
    Dma,
}

/// How the element stream is laid over the Cohort engines.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One engine, one queue pair.
    Single,
    /// One logical stream split over a [`ShardPool`], one producer core
    /// per shard.
    Sharded(ShardSpec),
    /// An AES engine feeding a SHA engine.
    Chain,
}

/// The recovery stack armed around the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recovery {
    None,
    /// Cohort: watchdog, swap-backed paging, storm evictions, bounded
    /// retry and software fallback. DMA: recorded completion words and a
    /// post-run read-back with dead-unit sentinel detection.
    Chaos,
    /// Epoch-fenced failover of binding `victim` onto the next engine (a
    /// cold spare).
    Failover {
        victim: usize,
    },
}

/// Cores running beside the benchmark core and the shard producers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extra {
    None,
    /// One core streaming stores over 2x the L2 for the whole run.
    Interference,
    /// `n` cores each streaming a slice of a 2x-L2 working set twice.
    Background(usize),
}

/// One runner's composition of the build stages.
#[derive(Debug, Clone, Copy)]
struct Stack {
    invocation: Invocation,
    shape: Shape,
    recovery: Recovery,
    extra: Extra,
}

/// A composition [`run_scenario`] refuses before building anything. Each
/// variant is a rule of the runner's stages, so every loader (`socrun`,
/// the fleet spec) rejects the same inputs with the same message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// `queue` is not a whole number of the stream shape's blocks
    /// (`multiple` words): the chain needs whole SHA blocks, a sharded
    /// stream whole accelerator blocks.
    QueueGranularity {
        runner: Runner,
        queue: u64,
        multiple: u64,
    },
    /// The DMA path under lazy mapping: MAPLE's DMA walker requires
    /// mapped memory.
    Policy { runner: Runner, policy: MapPolicy },
    /// A `fault` (its label: `kill`, `maple-kill`, …) the recovery stack
    /// has no answer for, and `why`: a kill that is not the stack's one
    /// failover victim, a second kill, or a MAPLE fault outside the
    /// hardened DMA stack.
    FaultUnsupported {
        runner: Runner,
        fault: &'static str,
        why: &'static str,
    },
    /// A kill of `engine`, outside the `engines` shard engines the run
    /// binds.
    EngineTarget {
        runner: Runner,
        engine: u64,
        engines: usize,
    },
    /// A sharded stream with zero shards.
    NoShards,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::QueueGranularity {
                runner,
                queue,
                multiple,
            } => write!(
                f,
                "queue {queue} is not a multiple of {multiple} (required by runner {runner})"
            ),
            ScenarioError::Policy { runner, policy } => write!(
                f,
                "the {runner} runner cannot run under {policy:?} mapping \
                 (MAPLE's DMA walker requires mapped memory)"
            ),
            ScenarioError::FaultUnsupported { runner, fault, why } => {
                write!(
                    f,
                    "{fault} fault is not supported by runner {runner}: {why}"
                )
            }
            ScenarioError::EngineTarget {
                runner,
                engine,
                engines,
            } => write!(
                f,
                "kill targets engine {engine} but the {runner} runner binds \
                 {engines} shard engine(s)"
            ),
            ScenarioError::NoShards => f.write_str("a sharded stream needs at least one shard"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Runs `scenario` through `runner` — the single entry point behind
/// `socrun`, the fleet runner and every figure. `shard` parameterises
/// [`Runner::Sharded`] (one shard when `None`; ignored elsewhere);
/// [`Runner::Mesh16`] builds its own 4-shard, 11-noise-core spec. Both
/// size [`SocConfig::engines`] themselves: one engine per shard, plus the
/// failover spare when a kill fault targets a shard.
///
/// # Errors
/// [`ScenarioError`] when the composition breaks one of its stages' rules
/// ([`check_scenario`]); nothing is built then.
///
/// # Panics
/// Panics when a run exceeds its cycle budget.
pub fn run_scenario(
    runner: Runner,
    scenario: &Scenario,
    shard: Option<&ShardSpec>,
) -> Result<RunResult, ScenarioError> {
    let (stack, scenario) = resolve(runner, scenario, shard);
    check(runner, &stack, &scenario)?;
    Ok(run_stack(&stack, &scenario))
}

/// The checks [`run_scenario`] makes before it builds, for loaders that
/// reject a composition without running it.
///
/// # Errors
/// The [`ScenarioError`] naming the first rule the composition breaks.
pub fn check_scenario(
    runner: Runner,
    scenario: &Scenario,
    shard: Option<&ShardSpec>,
) -> Result<(), ScenarioError> {
    let (stack, scenario) = resolve(runner, scenario, shard);
    check(runner, &stack, &scenario)
}

/// `runner`'s composition of the stages, and the scenario as it runs: the
/// failover chain's default kill injected, the sharded engine pool sized.
fn resolve(runner: Runner, scenario: &Scenario, shard: Option<&ShardSpec>) -> (Stack, Scenario) {
    use {Extra as X, Invocation as I, Recovery as R, Shape as S};
    let mut scenario = scenario.clone();
    let (invocation, shape, recovery, extra) = match runner {
        Runner::Cohort => (I::Cohort, S::Single, R::None, X::None),
        Runner::Mmio => (I::Mmio, S::Single, R::None, X::None),
        Runner::Dma => (I::Dma, S::Single, R::None, X::None),
        Runner::DmaChaos => (I::Dma, S::Single, R::Chaos, X::None),
        Runner::Chain => (I::Cohort, S::Chain, R::None, X::None),
        Runner::Interfered => (I::Cohort, S::Single, R::None, X::Interference),
        Runner::Chaos => (I::Cohort, S::Single, R::Chaos, X::None),
        Runner::Failover => {
            if scenario.soc.faults.is_empty() {
                scenario.soc.faults = FaultPlan::default().at(
                    DEFAULT_CHAIN_KILL_CYCLE,
                    FaultKind::KillEngine { engine: 1 },
                );
            }
            (I::Cohort, S::Chain, R::Failover { victim: 1 }, X::None)
        }
        Runner::Sharded | Runner::Mesh16 => {
            let spec = if runner == Runner::Mesh16 {
                ShardSpec::new(4).with_background_cores(11)
            } else {
                shard.copied().unwrap_or_else(|| ShardSpec::new(1))
            };
            scenario.soc.engines = sharded_engines_for(&scenario.soc.faults, spec.shards);
            let recovery = shard_victim(&scenario.soc.faults, spec.shards)
                .map_or(R::None, |victim| R::Failover { victim });
            let extra = X::Background(spec.background_cores);
            (I::Cohort, S::Sharded(spec), recovery, extra)
        }
    };
    let stack = Stack {
        invocation,
        shape,
        recovery,
        extra,
    };
    (stack, scenario)
}

/// The rules of a resolved stack; see [`check_scenario`].
fn check(runner: Runner, stack: &Stack, scenario: &Scenario) -> Result<(), ScenarioError> {
    let multiple = match stack.shape {
        Shape::Single => 1,
        Shape::Chain => Workload::Sha.words_in_per_block(),
        Shape::Sharded(spec) if spec.shards == 0 => return Err(ScenarioError::NoShards),
        Shape::Sharded(_) => scenario.workload.words_in_per_block(),
    };
    if !scenario.queue_size.is_multiple_of(multiple) {
        return Err(ScenarioError::QueueGranularity {
            runner,
            queue: scenario.queue_size,
            multiple,
        });
    }
    if stack.invocation == Invocation::Dma && scenario.policy == MapPolicy::Lazy {
        return Err(ScenarioError::Policy {
            runner,
            policy: scenario.policy,
        });
    }
    let hardened_dma = stack.invocation == Invocation::Dma && stack.recovery == Recovery::Chaos;
    let mut kills = 0;
    for ev in scenario.soc.faults.schedule() {
        let why = match ev.kind {
            FaultKind::KillEngine { engine } => {
                kills += 1;
                match (stack.recovery, stack.shape) {
                    _ if kills > 1 => {
                        "each recovery stack arms exactly one spare; a second fail-stop \
                         would wedge the run"
                    }
                    (Recovery::Failover { victim }, _) if engine == victim as u64 => continue,
                    (_, Shape::Sharded(spec)) => {
                        return Err(ScenarioError::EngineTarget {
                            runner,
                            engine,
                            engines: spec.shards,
                        });
                    }
                    (Recovery::Failover { .. }, _) => {
                        "the failover chain arms only the middle (SHA, engine 1) engine; \
                         kill@C:1 is the survivable fault"
                    }
                    _ => "no failover stack is armed; a fail-stop would wedge the run",
                }
            }
            FaultKind::MapleStall { .. } | FaultKind::KillMaple if !hardened_dma => {
                "only the dma-chaos runner reads back MAPLE's dead-unit sentinel \
                 instead of hanging"
            }
            _ => continue,
        };
        let fault = ev.kind.label();
        return Err(ScenarioError::FaultUnsupported { runner, fault, why });
    }
    Ok(())
}

/// The one build-and-run path: hardware, the invocation path's stages,
/// then the shared finish.
fn run_stack(stack: &Stack, scenario: &Scenario) -> RunResult {
    let input = scenario.input_words();
    let expected = match stack.shape {
        // Host reference for the chain: AES-ECB, then raw-block SHA-256.
        Shape::Chain => Workload::Sha.reference_outputs(&Workload::Aes.reference_outputs(&input)),
        _ => scenario.workload.reference_outputs(&input),
    };
    let mut sys = build_system(stack, scenario);
    let verify = match stack.invocation {
        Invocation::Cohort => cohort_stages(&mut sys, stack, scenario, &input, &expected),
        Invocation::Mmio => {
            let core = sys.core;
            load(&mut sys, core, mmio_program(scenario, &input));
            Verify::Recorded
        }
        Invocation::Dma => dma_stages(&mut sys, stack, scenario, &input),
    };
    finish(
        sys,
        cycle_budget(scenario.queue_size),
        scenario.trace,
        &expected,
        verify,
    )
}

/// Instantiates the hardware the stack needs: the workload behind one
/// engine per binding (plus the failover spare), or behind MAPLE; and one
/// placeholder core per producer and extra core.
fn build_system(stack: &Stack, scenario: &Scenario) -> SimSystem {
    let workload = scenario.workload;
    let mut engine_accels: Vec<Box<dyn cohort_accel::Accelerator>> = Vec::new();
    let mut extra_cores = match stack.extra {
        Extra::None => 0,
        Extra::Interference => 1,
        Extra::Background(n) => n,
    };
    match (stack.invocation, stack.shape) {
        (Invocation::Mmio | Invocation::Dma, _) => {}
        (Invocation::Cohort, Shape::Single) => engine_accels.push(workload.make_accel()),
        (Invocation::Cohort, Shape::Sharded(spec)) => {
            engine_accels.extend((0..scenario.soc.engines).map(|_| workload.make_accel()));
            extra_cores += spec.shards;
        }
        (Invocation::Cohort, Shape::Chain) => {
            engine_accels.push(Box::new(Aes128Accel::new()));
            engine_accels.push(Box::new(Sha256Accel::new()));
            if matches!(stack.recovery, Recovery::Failover { .. }) {
                // The cold spare the victim's queues migrate onto.
                engine_accels.push(Box::new(Sha256Accel::new()));
            }
        }
    }
    let maple_accel = (stack.invocation != Invocation::Cohort).then(|| workload.make_accel());
    let spec = SystemSpec {
        cfg: scenario.soc.clone(),
        policy: scenario.policy,
        engine_accels,
        maple_accel,
        extra_core_programs: vec![Program::new(); extra_cores],
    };
    SimSystem::build(spec, Program::new())
}

/// One Cohort engine binding: the driver and the queues it bridges.
struct Binding {
    driver: CohortDriver,
    input: QueueDescriptor,
    output: QueueDescriptor,
    csr: Option<(u64, u64)>,
}

/// A stream shape laid out in guest memory: the engine bindings, the
/// shard producers' programs, how the finish verifies the run, and the
/// emitter of the benchmark core's ops between registration and teardown
/// (it writes straight into the core's program, so the largest op list
/// is never held twice).
struct Lanes<'a> {
    bindings: Vec<Binding>,
    body: Box<dyn FnOnce(&mut Program) + 'a>,
    producers: Vec<Program>,
    verify: Verify,
}

/// The Cohort invocation path. Guest allocation order is fixed, because
/// virtual and physical addresses decide cache and NoC timing:
/// interference buffer, queues, CSR, spill page, then (after the kernel
/// mm snapshot) the background buffer.
fn cohort_stages(
    sys: &mut SimSystem,
    stack: &Stack,
    scenario: &Scenario,
    input: &[u64],
    expected: &[u64],
) -> Verify {
    if stack.extra == Extra::Interference {
        load_interference_core(sys, scenario);
    }
    let lanes = match stack.shape {
        Shape::Single => single_lanes(sys, scenario, input),
        Shape::Chain => chain_lanes(sys, scenario, input),
        Shape::Sharded(spec) => sharded_lanes(sys, scenario, input, &spec, stack.recovery),
    };
    let spill_pa = match stack.recovery {
        Recovery::Failover { .. } => spill_page(sys),
        _ => 0,
    };
    let watchdog = match scenario.watchdog {
        0 => CHAOS_DEFAULT_WATCHDOG,
        w => w,
    };

    let root_pa = sys.space.root_pa();
    let mut program = Program::new();
    for b in &lanes.bindings {
        program.append(b.driver.register_ops(
            root_pa,
            &b.input,
            &b.output,
            b.csr,
            scenario.backoff,
        ));
    }
    match stack.recovery {
        Recovery::None => {}
        Recovery::Chaos => program.append(lanes.bindings[0].driver.watchdog_ops(watchdog)),
        // Only the victim is watchdogged: healthy engines legitimately sit
        // in waits the watchdog does not treat as benign (a producer
        // between batches, an AES stage spinning on a full hash queue).
        Recovery::Failover { victim } => {
            program.append(lanes.bindings[victim].driver.watchdog_ops(watchdog));
            program.append(lanes.bindings[victim].driver.spill_ops(spill_pa));
        }
    }
    (lanes.body)(&mut program);
    // Teardown: the failover spare (the engine after the last binding),
    // then every binding — the chain downstream first.
    let spare = matches!(stack.recovery, Recovery::Failover { .. })
        .then(|| sys.drivers[lanes.bindings.len()].clone());
    if let Some(spare) = &spare {
        program.append(spare.unregister_ops());
    }
    let mut teardown: Vec<&Binding> = lanes.bindings.iter().collect();
    if matches!(stack.shape, Shape::Chain) {
        teardown.reverse();
    }
    for b in teardown {
        program.append(b.driver.unregister_ops());
    }

    // One kernel mm view shared by every handler.
    let vm = CohortDriver::shared_vm(sys.space.clone(), sys.frames.clone());
    let core = sys.core;
    load(sys, core, program);
    let swap = (stack.recovery == Recovery::Chaos).then(swap_store);
    match stack.recovery {
        Recovery::None => {}
        Recovery::Chaos => {
            let swap = swap.clone().expect("chaos arms a swap store");
            arm_chaos(sys, &lanes.bindings[0], &vm, swap, expected);
        }
        Recovery::Failover { victim } => {
            let b = &lanes.bindings[victim];
            let cfg = FailoverConfig {
                spare: spare.expect("failover needs a spare engine"),
                vm: Arc::clone(&vm),
                root_pa,
                input: b.input,
                output: b.output,
                csr: b.csr,
                backoff: scenario.backoff,
                watchdog,
                spill_pa,
            };
            b.driver.install_failover_handler(core_mut(sys, core), cfg);
        }
    }
    for (i, p) in lanes.producers.into_iter().enumerate() {
        let id = sys.extra_cores[i];
        load(sys, id, p);
    }
    if let (Extra::Background(n), Shape::Sharded(spec)) = (stack.extra, stack.shape) {
        load_background_cores(sys, spec.shards, n);
    }
    if scenario.policy == MapPolicy::Lazy || swap.is_some() {
        arm_paging(sys, &vm, swap.as_ref());
    }
    lanes.verify
}

/// A single engine between one input and one output queue, driven by the
/// §5.3 push/pop batch loop.
fn single_lanes<'a>(sys: &mut SimSystem, scenario: &'a Scenario, input: &'a [u64]) -> Lanes<'a> {
    let in_q = sys.alloc_queue(8, scenario.queue_size as u32).descriptor;
    let out_q = sys
        .alloc_queue(8, scenario.output_words().max(1) as u32)
        .descriptor;
    let csr = stage_csr(sys, scenario.workload.csr());
    Lanes {
        body: Box::new(move |p| push_pop_body(p, scenario, input, &in_q, &out_q)),
        bindings: vec![Binding {
            driver: sys.drivers[0].clone(),
            input: in_q,
            output: out_q,
            csr,
        }],
        producers: Vec::new(),
        verify: Verify::Recorded,
    }
}

/// Fig. 5: `cohort_register(encrypt_acc, encrypt_fifo, hash_fifo);
/// cohort_register(hash_acc, hash_fifo, result_fifo);` — the core pushes
/// plaintext and pops digests, engine to engine in between.
fn chain_lanes<'a>(sys: &mut SimSystem, scenario: &'a Scenario, input: &'a [u64]) -> Lanes<'a> {
    let n = scenario.queue_size;
    let m = n / 2; // AES keeps the size; SHA turns 8 words into 4.
    let encrypt_q = sys.alloc_queue(8, n as u32).descriptor;
    let hash_q = sys.alloc_queue(8, n as u32).descriptor;
    let result_q = sys.alloc_queue(8, m as u32).descriptor;
    let key = stage_csr(sys, Workload::Aes.csr());

    let body = move |body: &mut Program| {
        for (i, &w) in input.iter().enumerate() {
            body.push(Op::Alu(scenario.costs.push_loop_alu));
            body.push(Op::Store {
                va: encrypt_q.element_va(i as u64),
                value: w,
            });
            if (i as u64 + 1).is_multiple_of(scenario.batch) || i as u64 + 1 == n {
                publish_index(body, encrypt_q.write_index_va, i as u64 + 1);
            }
        }
        for j in 0..m {
            body.push(Op::WaitGe {
                va: result_q.write_index_va,
                value: j + 1,
            });
            body.push(Op::Alu(scenario.costs.pop_loop_alu));
            body.push(Op::Load {
                va: result_q.element_va(j),
                record: true,
            });
        }
        body.push(Op::Store {
            va: result_q.read_index_va,
            value: m,
        });
        body.push(Op::Fence);
    };

    let binding = |driver: usize, input, output, csr| Binding {
        driver: sys.drivers[driver].clone(),
        input,
        output,
        csr,
    };
    Lanes {
        bindings: vec![
            binding(0, encrypt_q, hash_q, key),
            binding(1, hash_q, result_q, None),
        ],
        body: Box::new(body),
        producers: Vec::new(),
        verify: Verify::Recorded,
    }
}

/// Places the stream's element runs through a [`ShardPool`] and lays out
/// per-shard rings sized for the whole per-shard stream, so producers
/// never wrap or block and an outage confines loss to its shard. Each
/// shard's producer core streams its runs in shard-FIFO order; the
/// benchmark core pops in global sequence order — the merge, realised as
/// `WaitGe` gates against each shard's cumulative output index.
fn sharded_lanes<'a>(
    sys: &mut SimSystem,
    scenario: &'a Scenario,
    input: &[u64],
    spec: &ShardSpec,
    recovery: Recovery,
) -> Lanes<'a> {
    let wpb_in = scenario.workload.words_in_per_block();
    let wpb_out = scenario.workload.words_out_per_block();
    let spares = usize::from(matches!(recovery, Recovery::Failover { .. }));
    let mut pool = ShardPool::bind(&sys.drivers, spec.shards, spares, spec.placement)
        .expect("resolve sizes the engine pool for the shards and the spare");
    let shards = pool.shards();

    // Split, then place every run through the pool (this is where the
    // policies differ), accumulating per-shard ring offsets.
    let mut chunks = Vec::new();
    let mut in_totals = vec![0u64; shards];
    let mut out_totals = vec![0u64; shards];
    for blocks in shard_chunk_blocks(scenario, spec.skewed) {
        let in_words = blocks * wpb_in;
        let out_words = blocks * wpb_out;
        let s = pool.place(in_words).shard;
        chunks.push(ShardChunk {
            shard: s,
            in_off: in_totals[s],
            in_words,
            out_off: out_totals[s],
            out_words,
        });
        in_totals[s] += in_words;
        out_totals[s] += out_words;
    }
    let mut ring = |w: u64| sys.alloc_queue(8, w.max(1) as u32).descriptor;
    let in_qs: Vec<QueueDescriptor> = in_totals.iter().map(|&w| ring(w)).collect();
    let out: Vec<QueueDescriptor> = out_totals.iter().map(|&w| ring(w)).collect();
    let csr = stage_csr(sys, scenario.workload.csr());

    // Producers publish the write index every `batch` words and at end of
    // stream, data stores always before the index (the data-before-pointer
    // contract, per shard).
    let costs = scenario.costs;
    let mut producers: Vec<Program> = (0..shards).map(|_| Program::new()).collect();
    let mut pushed = vec![0u64; shards];
    let mut published = vec![0u64; shards];
    let mut words = input.iter();
    for c in &chunks {
        let p = &mut producers[c.shard];
        for w in 0..c.in_words {
            p.push(Op::Alu(costs.push_loop_alu));
            p.push(Op::Store {
                va: in_qs[c.shard].element_va(c.in_off + w),
                value: *words.next().expect("whole blocks"),
            });
        }
        pushed[c.shard] += c.in_words;
        if pushed[c.shard] - published[c.shard] >= scenario.batch {
            publish_index(p, in_qs[c.shard].write_index_va, pushed[c.shard]);
            published[c.shard] = pushed[c.shard];
        }
    }
    for (s, p) in producers.iter_mut().enumerate() {
        if published[s] < pushed[s] {
            publish_index(p, in_qs[s].write_index_va, pushed[s]);
        }
        p.push(Op::Fence);
    }

    let (merge_chunks, merge_out) = (chunks.clone(), out.clone());
    let body = move |body: &mut Program| {
        let mut popped = vec![0u64; merge_out.len()];
        for c in &merge_chunks {
            let oq = &merge_out[c.shard];
            body.push(Op::WaitGe {
                va: oq.write_index_va,
                value: c.out_off + c.out_words,
            });
            for w in 0..c.out_words {
                body.push(Op::Alu(costs.pop_loop_alu));
                body.push(Op::Load {
                    va: oq.element_va(c.out_off + w),
                    record: true,
                });
            }
            popped[c.shard] = c.out_off + c.out_words;
        }
        for (q, &n) in merge_out.iter().zip(&popped) {
            body.push(Op::Alu(1));
            body.push(Op::Store {
                va: q.read_index_va,
                value: n,
            });
        }
        body.push(Op::Fence);
    };

    let bindings = (0..shards)
        .map(|s| Binding {
            driver: pool.driver(s).clone(),
            input: in_qs[s],
            output: out[s],
            csr,
        })
        .collect();
    Lanes {
        bindings,
        body: Box::new(body),
        producers,
        verify: Verify::ShardMerge { chunks, out, pool },
    }
}

/// Fence + one-ALU index arithmetic + write-index store: the batched
/// publication idiom shared by every producer.
fn publish_index(p: &mut Program, write_index_va: u64, value: u64) {
    p.push(Op::Fence);
    p.push(Op::Alu(1));
    p.push(Op::Store {
        va: write_index_va,
        value,
    });
}

/// Emits the interleaved push/pop batch loop of the single-engine Cohort
/// benchmark (§5.3 structure).
fn push_pop_body(
    program: &mut Program,
    scenario: &Scenario,
    input: &[u64],
    in_q: &QueueDescriptor,
    out_q: &QueueDescriptor,
) {
    let n = scenario.queue_size;
    let m = scenario.output_words();
    let costs = scenario.costs;
    let wpb_out = scenario.workload.words_out_per_block();
    let wpb_in = scenario.workload.words_in_per_block();
    let mut i = 0u64;
    let mut j = 0u64;
    while i < n {
        let push_end = (i + scenario.batch).min(n);
        while i < push_end {
            program.push(Op::Alu(costs.push_loop_alu));
            program.push(Op::Store {
                va: in_q.element_va(i),
                value: input[i as usize],
            });
            i += 1;
        }
        publish_index(program, in_q.write_index_va, i);
        let pop_end = (i * wpb_out / wpb_in).min(m);
        while j < pop_end {
            let block_end = (j + wpb_out).min(pop_end);
            program.push(Op::WaitGe {
                va: out_q.write_index_va,
                value: block_end,
            });
            while j < block_end {
                program.push(Op::Alu(costs.pop_loop_alu));
                program.push(Op::Load {
                    va: out_q.element_va(j),
                    record: true,
                });
                j += 1;
            }
        }
        if pop_end > 0 {
            program.push(Op::Alu(1));
            program.push(Op::Store {
                va: out_q.read_index_va,
                value: pop_end,
            });
        }
    }
    program.push(Op::Fence);
}

/// Host-side prefault: maps every still-unmapped page of `[va, va + len)`
/// so the host can seed it (a no-op unless the mapping is lazy).
fn prefault(sys: &mut SimSystem, va: u64, len: u64) {
    let mut page = va & !(PAGE_BYTES - 1);
    while page < va + len {
        if sys.space.translate(&sys.soc.mem, page).is_none() {
            sys.space
                .handle_fault(&mut sys.soc.mem, &mut sys.frames, page);
        }
        page += PAGE_BYTES;
    }
}

/// Allocates the CSR buffer and seeds it from the host. Returns the
/// `(va, len)` pair the engine registration takes.
fn stage_csr(sys: &mut SimSystem, bytes: Option<Vec<u8>>) -> Option<(u64, u64)> {
    let bytes = bytes?;
    let va = sys.alloc_buffer(bytes.len() as u64, 64);
    prefault(sys, va, bytes.len() as u64);
    sys.write_guest(va, &bytes);
    Some((va, bytes.len() as u64))
}

/// The failover victim's checkpoint spill page. The engine addresses it
/// physically, so it is resolved (and prefaulted) up front.
fn spill_page(sys: &mut SimSystem) -> u64 {
    let va = sys.alloc_buffer(PAGE_BYTES, PAGE_BYTES);
    prefault(sys, va, PAGE_BYTES);
    sys.space
        .translate(&sys.soc.mem, va)
        .expect("spill page mapped")
}

/// The chaos recovery stack around binding `b`, beyond its watchdog:
///
/// * a storm hook that evicts the queues' data pages round-robin, parking
///   each page's frame in the swap store so the next fault maps the same
///   frame back in — writes racing the shootdown are never lost;
/// * the error-interrupt handler with bounded retry (2), a software
///   fallback that recomputes the entire output stream and publishes the
///   final write index (idempotent: partial hardware progress is simply
///   overwritten), and a forward-progress probe that resets the retry
///   budget after a recovery demonstrably succeeded.
fn arm_chaos(sys: &mut SimSystem, b: &Binding, vm: &SharedVm, swap: SwapStore, expected: &[u64]) {
    if let Some(inj_id) = sys.injector {
        let mut candidates: Vec<u64> = Vec::new();
        for d in [&b.input, &b.output] {
            let mut page = d.base_va & !(PAGE_BYTES - 1);
            while page < d.base_va + d.data_bytes() {
                candidates.push(page);
                page += PAGE_BYTES;
            }
        }
        let storm_vm = Arc::clone(vm);
        let storm_swap = swap.clone();
        let mut next = 0usize;
        let hook: StormHook = Box::new(move |mem, pages| {
            let mut evicted = 0u64;
            let mut g = storm_vm.lock().expect("vm lock");
            let (space, _frames) = &mut *g;
            for _ in 0..pages {
                if candidates.is_empty() {
                    break;
                }
                let va = candidates[next % candidates.len()];
                next += 1;
                if let Some(pa) = space.translate(mem, va) {
                    storm_swap
                        .lock()
                        .expect("swap lock")
                        .insert(va, pa & !(PAGE_BYTES - 1));
                    if space.unmap(mem, va) {
                        evicted += 1;
                    }
                }
            }
            evicted
        });
        sys.soc
            .component_mut::<FaultInjector>(inj_id)
            .expect("injector present")
            .set_storm_hook(hook);
    }

    let fb_vm = Arc::clone(vm);
    let out = b.output;
    let expected = expected.to_vec();
    let fallback: SoftwareFallback = Box::new(move |mem| {
        let writes = expected
            .iter()
            .enumerate()
            .map(|(j, &w)| (out.element_va(j as u64), w));
        for (va, w) in writes.chain([(out.write_index_va, expected.len() as u64)]) {
            fault_in(mem, &fb_vm, Some(&swap), va);
            let pa = fb_vm
                .lock()
                .expect("vm lock")
                .0
                .translate(mem, va)
                .expect("mapped");
            mem.write_u64(pa, w);
        }
    });

    let ec = sys.engine(0).engine_counters();
    let (consumed, produced, drained) = (
        ec.consumed.clone(),
        ec.produced.clone(),
        ec.drained_elems.clone(),
    );
    let probe: ProgressProbe = Box::new(move || consumed.get() + produced.get() + drained.get());
    let core = sys.core;
    b.driver
        .install_error_handler_with_probe(core_mut(sys, core), 2, Some(fallback), Some(probe));
}

/// Demand paging: every engine driver's page-fault interrupt handler and
/// the kernel fault path of every core, all sharing one mm view (and the
/// swap store, when a storm-evicting chaos stack is armed).
fn arm_paging(sys: &mut SimSystem, vm: &SharedVm, swap: Option<&SwapStore>) {
    let core = sys
        .soc
        .component_mut::<InOrderCore>(sys.core)
        .expect("core present");
    for d in &sys.drivers {
        match swap {
            Some(s) => d.install_fault_handler_with_swap(core, Arc::clone(vm), s.clone()),
            None => d.install_fault_handler(core, Arc::clone(vm)),
        }
    }
    for &id in &sys.extra_cores {
        let (vm, swap) = (Arc::clone(vm), swap.cloned());
        sys.soc
            .component_mut::<InOrderCore>(id)
            .expect("extra core present")
            .set_fault_hook(Box::new(move |mem, va| {
                fault_in(mem, &vm, swap.as_ref(), va);
                true
            }));
    }
}

/// The interference core: the platform's second Ariane streaming stores
/// over a 2x-L2 working set, `(queue / 64).max(2)` passes.
fn load_interference_core(sys: &mut SimSystem, scenario: &Scenario) {
    let footprint = 2 * sys.soc.config().l2.capacity_bytes;
    let buf = sys.alloc_buffer(footprint, 64);
    let mut noise = Program::new();
    for p in 0..(scenario.queue_size / 64).max(2) {
        for line in 0..footprint / 64 {
            noise.push(Op::Store {
                va: buf + line * 64,
                value: p ^ line,
            });
        }
    }
    noise.push(Op::Fence);
    let id = sys.extra_cores[0];
    load(sys, id, noise);
}

/// Background ("LITTLE") cores after the `first` producer cores: each
/// streams stores through its own slice of a 2x-L2 working set, twice
/// over — cache contention alongside the benchmark without feeding it.
fn load_background_cores(sys: &mut SimSystem, first: usize, n: usize) {
    if n == 0 {
        return;
    }
    let footprint = 2 * sys.soc.config().l2.capacity_bytes;
    let buf = sys.alloc_buffer(footprint, 64);
    let lines = footprint / 64;
    let span = lines / n as u64;
    for b in 0..n {
        let mut noise = Program::new();
        let start = b as u64 * span;
        for pass in 0..2u64 {
            for line in start..start + span.max(1) {
                noise.push(Op::Store {
                    va: buf + (line % lines) * 64,
                    value: (b as u64) << 32 | pass << 24 | line,
                });
            }
        }
        noise.push(Op::Fence);
        let id = sys.extra_cores[first + b];
        load(sys, id, noise);
    }
}

/// CSR configuration over MAPLE's MMIO registers: the bytes in 8-byte
/// words, then the commit.
fn mmio_csr(program: &mut Program, csr: Option<Vec<u8>>) {
    let Some(csr) = csr else { return };
    for chunk in csr.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        program.push(Op::MmioStore {
            pa: MAPLE_MMIO_BASE + maple_regs::CSR_DATA,
            value: u64::from_le_bytes(word),
        });
    }
    program.push(Op::MmioStore {
        pa: MAPLE_MMIO_BASE + maple_regs::CSR_COMMIT,
        value: csr.len() as u64,
    });
}

/// The MMIO path: every block's words pushed, then its outputs popped,
/// one blocking access at a time ("the core cannot achieve memory-level
/// parallelism").
fn mmio_program(scenario: &Scenario, input: &[u64]) -> Program {
    let mut program = Program::new();
    mmio_csr(&mut program, scenario.workload.csr());
    let alu = scenario.costs.mmio_loop_alu;
    for block in input.chunks(scenario.workload.words_in_per_block() as usize) {
        for &w in block {
            program.push(Op::Alu(alu));
            program.push(Op::MmioStore {
                pa: MAPLE_MMIO_BASE + maple_regs::PUSH,
                value: w,
            });
        }
        for _ in 0..scenario.workload.words_out_per_block() {
            program.push(Op::Alu(alu));
            program.push(Op::MmioLoad {
                pa: MAPLE_MMIO_BASE + maple_regs::POP,
                record: true,
            });
        }
    }
    program
}

/// The DMA path: stage the input with cached stores, then one programmed
/// transfer per DMA block (API software cost plus MMIO writes) and a
/// blocking wait on `DMA_DONE`. The plain baseline reads the results back
/// with loads; the `hardened` one records every completion word instead
/// and is verified by a post-run read-back.
fn dma_stages(sys: &mut SimSystem, stack: &Stack, scenario: &Scenario, input: &[u64]) -> Verify {
    let hardened = stack.recovery == Recovery::Chaos;
    let n = scenario.queue_size;
    let m = scenario.output_words();
    let in_va = sys.alloc_buffer(n * 8, 64);
    let out_va = sys.alloc_buffer(m.max(1) * 8, 64);
    let (costs, wl) = (scenario.costs, scenario.workload);

    let mut program = Program::new();
    program.push(Op::MmioStore {
        pa: MAPLE_MMIO_BASE + maple_regs::DMA_PTROOT,
        value: sys.space.root_pa(),
    });
    mmio_csr(&mut program, wl.csr());
    for (i, &w) in input.iter().enumerate() {
        program.push(Op::Alu(costs.push_loop_alu));
        program.push(Op::Store {
            va: in_va + (i as u64) * 8,
            value: w,
        });
    }
    program.push(Op::Fence);

    let in_bytes = n * 8;
    let (wpb_out, wpb_in) = (wl.words_out_per_block(), wl.words_in_per_block());
    let mut src_off = 0u64;
    let mut dst_off = 0u64;
    while src_off < in_bytes {
        let len = costs.dma_block_bytes.min(in_bytes - src_off);
        program.push(Op::KernelCost {
            cycles: u64::from(costs.dma_api_alu),
            insts: u64::from(costs.dma_api_alu) / 5,
        });
        for (reg, value) in [
            (maple_regs::DMA_SRC, in_va + src_off),
            (maple_regs::DMA_DST, out_va + dst_off),
            (maple_regs::DMA_LEN, len),
            (maple_regs::DMA_START, 1),
        ] {
            program.push(Op::MmioStore {
                pa: MAPLE_MMIO_BASE + reg,
                value,
            });
        }
        program.push(Op::MmioLoad {
            pa: MAPLE_MMIO_BASE + maple_regs::DMA_DONE,
            record: hardened,
        });
        src_off += len;
        dst_off += len * wpb_out / wpb_in;
    }

    let core = sys.core;
    if hardened {
        load(sys, core, program);
        return Verify::DmaReadBack {
            out_va,
            words: m.max(1),
        };
    }
    for j in 0..m {
        program.push(Op::Alu(costs.pop_loop_alu));
        program.push(Op::Load {
            va: out_va + j * 8,
            record: true,
        });
    }
    load(sys, core, program);
    Verify::Recorded
}

/// How the finish decides [`RunResult::verified`].
enum Verify {
    /// The recorded words equal the reference stream.
    Recorded,
    /// The recorded words equal the reference, and so does an explicit
    /// reassembly: every shard's FIFO output read back from guest memory
    /// and fed through the sequence-tagged merge
    /// ([`cohort_queue::merge`]) one run per shard in turn — maximal
    /// cross-shard interleaving with each shard's FIFO order kept. The
    /// pool's occupancy mirror is drained with each merged run and must
    /// return to zero.
    ShardMerge {
        chunks: Vec<ShardChunk>,
        out: Vec<QueueDescriptor>,
        pool: ShardPool,
    },
    /// The `words` outputs at `out_va`, read back from guest memory,
    /// equal the reference, and no recorded completion word is MAPLE's
    /// dead-unit sentinel.
    DmaReadBack { out_va: u64, words: u64 },
}

impl Verify {
    fn holds(self, sys: &SimSystem, recorded: &[u64], expected: &[u64]) -> bool {
        let read_word = |va: u64| u64::from_le_bytes(sys.read_guest(va, 8).try_into().expect("8B"));
        match self {
            Verify::Recorded => recorded == expected,
            Verify::ShardMerge {
                chunks,
                out,
                mut pool,
            } => {
                let mut per_shard: Vec<VecDeque<(u64, ShardChunk)>> =
                    vec![VecDeque::new(); out.len()];
                for (seq, c) in chunks.iter().enumerate() {
                    per_shard[c.shard].push_back((seq as u64, *c));
                }
                let mut merge = SeqMerge::new();
                let mut merged = Vec::new();
                while per_shard.iter().any(|q| !q.is_empty()) {
                    for (s, q) in per_shard.iter_mut().enumerate() {
                        if let Some((seq, c)) = q.pop_front() {
                            let words: Vec<u64> = (0..c.out_words)
                                .map(|w| read_word(out[s].element_va(c.out_off + w)))
                                .collect();
                            merge.push(seq, (s, c.in_words, words)).expect("unique seq");
                        }
                    }
                    for (_, (shard, in_words, words)) in merge.drain_ready() {
                        pool.complete(shard, in_words);
                        merged.extend(words);
                    }
                }
                let mirror_drained = (0..pool.shards()).all(|s| pool.occupancy(s) == 0);
                recorded == expected && merged == expected && merge.is_drained() && mirror_drained
            }
            Verify::DmaReadBack { out_va, words } => {
                let outputs: Vec<u64> = (0..words).map(|j| read_word(out_va + j * 8)).collect();
                !recorded.contains(&cohort_maple::DEAD_SENTINEL) && outputs == expected
            }
        }
    }
}

/// The shared finish: run to completion (a wedged run is a panic, never a
/// silent hang), verify, and snapshot every observable.
fn finish(
    mut sys: SimSystem,
    budget: u64,
    trace: bool,
    expected: &[u64],
    verify: Verify,
) -> RunResult {
    sys.soc.set_tracing(trace);
    let outcome = sys.soc.run(budget);
    let core = sys.core();
    assert!(
        core.is_done(),
        "benchmark did not complete: quiescent={} cycle={} core={core:?}",
        outcome.quiescent,
        outcome.cycle,
    );
    let recorded = core.recorded().to_vec();
    let (cycles, instret) = (
        core.core_counters().done_at,
        core.core_counters().instret.get(),
    );
    let verified = verify.holds(&sys, &recorded, expected);
    RunResult {
        cycles,
        instret,
        checksum: payload_checksum(cycles, &recorded),
        recorded,
        verified,
        counters: sys.soc.all_counters(),
        histograms: sys.soc.stats().histogram_summaries(),
        stats_json: sys.soc.stats_json(),
        barrier_activations: sys.soc.kernel_counter("kernel.barrier_activations"),
        ff_cycles: sys.soc.kernel_counter("kernel.ff_cycles"),
        trace_json: trace.then(|| sys.soc.trace_json()),
    }
}

fn core_mut(sys: &mut SimSystem, id: CompId) -> &mut InOrderCore {
    sys.soc
        .component_mut::<InOrderCore>(id)
        .expect("core present")
}

fn load(sys: &mut SimSystem, id: CompId, program: Program) {
    core_mut(sys, id).load_program(program);
}

/// A fully custom single-engine run: any accelerator, any input stream,
/// any expected output — used by the ablation benches and the STFT / null
/// accelerator experiments.
pub struct CustomRun {
    /// The accelerator to host behind the Cohort engine.
    pub accel: Box<dyn cohort_accel::Accelerator>,
    /// Optional CSR configuration buffer.
    pub csr: Option<Vec<u8>>,
    /// Input words the core pushes.
    pub input: Vec<u64>,
    /// Expected output words (verified against what the core pops).
    pub expected: Vec<u64>,
    /// Pointer-update batching factor.
    pub batch: u64,
    /// RCM backoff window.
    pub backoff: u64,
    /// SoC configuration.
    pub soc: SocConfig,
    /// Mapping policy.
    pub policy: MapPolicy,
    /// When true, the run records the structured event trace.
    pub trace: bool,
}

impl CustomRun {
    /// Builds a custom run with platform defaults.
    pub fn new(
        accel: Box<dyn cohort_accel::Accelerator>,
        input: Vec<u64>,
        expected: Vec<u64>,
    ) -> Self {
        Self {
            accel,
            csr: None,
            input,
            expected,
            batch: 64,
            backoff: 700,
            soc: SocConfig::default(),
            policy: MapPolicy::Eager,
            trace: false,
        }
    }

    /// Executes the run on the simulated SoC: its own push/pop program
    /// around the shared CSR, paging and finish stages.
    ///
    /// # Panics
    /// Panics if the benchmark does not complete within the cycle budget.
    pub fn run(self) -> RunResult {
        let CustomRun {
            accel,
            csr,
            input,
            expected,
            batch,
            backoff,
            soc,
            policy,
            trace,
        } = self;
        let spec = SystemSpec {
            cfg: soc,
            policy,
            engine_accels: vec![accel],
            ..SystemSpec::default()
        };
        let mut sys = SimSystem::build(spec, Program::new());
        let n = input.len() as u64;
        let m = expected.len() as u64;
        let in_q = sys.alloc_queue(8, n.max(1) as u32).descriptor;
        let out_q = sys.alloc_queue(8, m.max(1) as u32).descriptor;
        let csr = stage_csr(&mut sys, csr);
        let driver = sys.drivers[0].clone();
        let root_pa = sys.space.root_pa();
        let mut program = driver.register_ops(root_pa, &in_q, &out_q, csr, backoff);
        let batch = batch.max(1);
        for (i, &w) in input.iter().enumerate() {
            program.push(Op::Alu(2));
            program.push(Op::Store {
                va: in_q.element_va(i as u64),
                value: w,
            });
            if (i as u64 + 1).is_multiple_of(batch) || i as u64 + 1 == n {
                program.push(Op::Fence);
                program.push(Op::Store {
                    va: in_q.write_index_va,
                    value: i as u64 + 1,
                });
            }
        }
        let mut j = 0u64;
        while j < m {
            let end = (j + batch).min(m);
            program.push(Op::WaitGe {
                va: out_q.write_index_va,
                value: end,
            });
            while j < end {
                program.push(Op::Alu(2));
                program.push(Op::Load {
                    va: out_q.element_va(j),
                    record: true,
                });
                j += 1;
            }
            program.push(Op::Store {
                va: out_q.read_index_va,
                value: j,
            });
        }
        program.push(Op::Fence);
        program.append(driver.unregister_ops());
        let core = sys.core;
        load(&mut sys, core, program);
        if policy == MapPolicy::Lazy {
            let vm = CohortDriver::shared_vm(sys.space.clone(), sys.frames.clone());
            arm_paging(&mut sys, &vm, None);
        }
        finish(sys, 50_000_000, trace, &expected, Verify::Recorded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(runner: Runner, scenario: &Scenario) -> RunResult {
        run_scenario(runner, scenario, None).expect("valid scenario")
    }

    fn sharded(scenario: &Scenario, spec: ShardSpec) -> Result<RunResult, ScenarioError> {
        run_scenario(Runner::Sharded, scenario, Some(&spec))
    }

    #[test]
    fn cohort_sha_small_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 8);
        let r = run(Runner::Cohort, &scenario);
        assert!(r.verified, "digest mismatch");
        assert_eq!(r.recorded.len(), 32);
        assert!(r.cycles > 0);
    }

    #[test]
    fn cohort_aes_small_end_to_end() {
        let scenario = Scenario::new(Workload::Aes, 64, 4);
        let r = run(Runner::Cohort, &scenario);
        assert!(r.verified, "ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn mmio_sha_small_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 8);
        let r = run(Runner::Mmio, &scenario);
        assert!(r.verified, "digest mismatch");
    }

    #[test]
    fn dma_aes_small_end_to_end() {
        let scenario = Scenario::new(Workload::Aes, 64, 8);
        let r = run(Runner::Dma, &scenario);
        assert!(r.verified, "ciphertext mismatch");
    }

    #[test]
    fn chained_aes_sha_engines_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 16);
        let r = run(Runner::Chain, &scenario);
        assert!(r.verified, "chained digest mismatch");
        assert_eq!(r.recorded.len(), 32);
    }

    #[test]
    fn sharded_aes_small_end_to_end() {
        let scenario = Scenario::new(Workload::Aes, 64, 4);
        let r = sharded(&scenario, ShardSpec::new(2)).expect("valid scenario");
        assert!(r.verified, "sharded ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn sharded_sha_handles_non_unit_block_ratio() {
        let scenario = Scenario::new(Workload::Sha, 64, 8);
        let r = sharded(&scenario, ShardSpec::new(2)).expect("valid scenario");
        assert!(r.verified, "sharded digest mismatch");
        assert_eq!(r.recorded.len(), 32);
    }

    #[test]
    fn mesh16_big_little_end_to_end() {
        let r = run(Runner::Mesh16, &Scenario::new(Workload::Aes, 64, 4));
        assert!(r.verified, "mesh16 ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn sharded_run_rejects_zero_shards() {
        let scenario = Scenario::new(Workload::Aes, 64, 4);
        let err = sharded(&scenario, ShardSpec::new(0)).unwrap_err();
        assert_eq!(err, ScenarioError::NoShards);
    }

    #[test]
    fn runner_names_round_trip() {
        for r in Runner::ALL {
            assert_eq!(Runner::parse(r.name()), Some(r), "{r} must round-trip");
        }
        assert_eq!(Runner::parse("sharded"), Some(Runner::Sharded));
        assert_eq!(Runner::parse("nope"), None);
    }

    #[test]
    fn sharded_engines_add_a_spare_only_for_shard_kills() {
        let none = FaultPlan::default();
        assert_eq!(sharded_engines_for(&none, 4), 4);
        let shard_kill = FaultPlan::default().at(10_000, FaultKind::KillEngine { engine: 1 });
        assert_eq!(sharded_engines_for(&shard_kill, 4), 5);
        let off_pool = FaultPlan::default().at(10_000, FaultKind::KillEngine { engine: 9 });
        assert_eq!(sharded_engines_for(&off_pool, 4), 4);
    }

    #[test]
    fn cohort_beats_mmio_at_batch_64() {
        let scenario = Scenario::new(Workload::Sha, 256, 64);
        let c = run(Runner::Cohort, &scenario);
        let m = run(Runner::Mmio, &scenario);
        assert!(c.verified && m.verified);
        assert!(
            m.cycles > c.cycles,
            "MMIO ({}) should be slower than Cohort ({})",
            m.cycles,
            c.cycles
        );
    }

    #[test]
    fn batching_improves_cohort_latency() {
        let small = run(Runner::Cohort, &Scenario::new(Workload::Aes, 256, 2));
        let large = run(Runner::Cohort, &Scenario::new(Workload::Aes, 256, 64));
        assert!(small.verified && large.verified);
        assert!(
            small.cycles > large.cycles,
            "batch=2 ({}) should be slower than batch=64 ({})",
            small.cycles,
            large.cycles
        );
    }
}
