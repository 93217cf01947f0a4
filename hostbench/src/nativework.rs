//! The `native-pipeline` workload and the native-layer control probes.
//!
//! SHA-256 and AES-128 each run through `cohort_register` between two real
//! SPSC queues: this thread produces (a `BatchProducer`, batch 64) and
//! consumes; the accelerator thread is the second thread. A streaming
//! phase measures throughput; a closed-loop phase keeps one block in
//! flight and measures per-block latency.

use crate::pass::{Checked, Pins};
use crate::trace::Tracer;
use cohort::native::cohort_register;
use cohort::scenarios::Workload;
use cohort_accel::aes128::Aes128;
use cohort_accel::sha256::sha256_raw_block;
use cohort_queue::{spsc_channel, BatchProducer, Consumer};
use cohort_sim::faultinject::splitmix64;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Input words streamed per accelerator per pass.
const STREAM_WORDS: usize = 1 << 19;
/// Closed-loop blocks per accelerator per pass.
const LATENCY_BLOCKS: usize = 512;
/// Ring capacity of both queues.
const QUEUE_CAPACITY: usize = 1024;
/// Producer batching factor.
const BATCH: usize = 64;
/// A phase that has not finished after this long has lost or withheld
/// output; the run is failed rather than left to hang.
const PHASE_LIMIT: Duration = Duration::from_secs(60);

const WORKLOADS: [Workload; 2] = [Workload::Sha, Workload::Aes];

/// Inputs and host references for one accelerator.
pub struct Stream {
    workload: Workload,
    stream_in: Vec<u64>,
    stream_ref: Vec<u64>,
    blocks_in: Vec<u64>,
    blocks_ref: Vec<u64>,
}

/// Set-up: seeded inputs and their `Workload::reference_outputs`.
pub fn setup(seed: u64, tr: &mut Tracer) -> Vec<Stream> {
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, &wl)| {
            let mut state = seed ^ (0xa11c_e000 + i as u64);
            let mut words = |n: usize| (0..n).map(|_| splitmix64(&mut state)).collect::<Vec<_>>();
            let stream_in = words(STREAM_WORDS);
            let blocks_in = words(LATENCY_BLOCKS * wl.words_in_per_block() as usize);
            let span = tr.open("scenarios.reference_outputs", None);
            let stream_ref = wl.reference_outputs(&stream_in);
            let blocks_ref = wl.reference_outputs(&blocks_in);
            tr.close(span);
            Stream {
                workload: wl,
                stream_in,
                stream_ref,
                blocks_in,
                blocks_ref,
            }
        })
        .collect()
}

/// What one pass measured and checked.
#[derive(Default)]
pub struct PassOut {
    /// Wall (verification excluded), per-block times, checks and digests.
    pub core: Checked,
    /// Host seconds of the streaming phases.
    pub stream_s: f64,
    /// Bytes streamed in.
    pub stream_bytes: u64,
    /// Pushes refused by a full ring.
    pub full_retries: u64,
    /// Pops that found the ring empty.
    pub empty_polls: u64,
    /// Words the accelerator threads consumed.
    pub words_in: u64,
    /// Words the accelerator threads produced.
    pub words_out: u64,
    /// Host ms spent comparing outputs with the references.
    pub verify_ms: f64,
}

/// Ends the process: the accelerator thread stopped delivering output, and
/// a thread stuck in a queue cannot be joined.
fn stalled(what: &str) -> ! {
    eprintln!("hostbench: FAILED native {what}: no output for {PHASE_LIMIT:?}");
    std::process::exit(1);
}

fn pop_spin(rx: &mut Consumer<u64>, empty_polls: &mut u64, since: Instant) -> u64 {
    let mut spins = 0u32;
    loop {
        if let Some(v) = rx.pop() {
            return v;
        }
        *empty_polls += 1;
        spins += 1;
        if spins.is_multiple_of(64) {
            if since.elapsed() > PHASE_LIMIT {
                stalled("closed-loop phase");
            }
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Order-sensitive digest of an output stream.
fn digest(words: &[u64]) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    words.iter().fold(0, |acc, &w| {
        state ^= w;
        acc.rotate_left(7) ^ splitmix64(&mut state)
    })
}

/// One pass: for each accelerator, a streaming phase then a closed-loop
/// phase, each on a freshly registered accelerator thread. Outputs are
/// compared with the references after the timed window.
pub fn pass(streams: &[Stream], tr: &mut Tracer, pins: Pins<'_>, corrupt: bool) -> PassOut {
    let mut out = PassOut::default();
    out.core.force_failure = corrupt;
    let mut got_stream = Vec::with_capacity(STREAM_WORDS);
    let mut got_blocks = Vec::with_capacity(LATENCY_BLOCKS * 4);
    for (si, st) in streams.iter().enumerate() {
        let wl = st.workload;

        // Streaming phase.
        got_stream.clear();
        let t = Instant::now();
        let span = tr.open("native.stream", Some(si as u64));
        let (tx, acc_in) = spsc_channel::<u64>(QUEUE_CAPACITY);
        let (acc_out, mut rx) = spsc_channel::<u64>(QUEUE_CAPACITY);
        let handle = tr.span("native.cohort_register", None, || {
            cohort_register(wl.make_accel(), acc_in, acc_out, wl.csr())
        });
        let mut tx = BatchProducer::new(tx, BATCH);
        let mut next = 0;
        while got_stream.len() < st.stream_ref.len() {
            while next < st.stream_in.len() {
                if tx.push(st.stream_in[next]).is_err() {
                    out.full_retries += 1;
                    break;
                }
                next += 1;
            }
            if next == st.stream_in.len() {
                tx.flush();
            }
            let before = got_stream.len();
            while let Some(w) = rx.pop() {
                got_stream.push(w);
            }
            if got_stream.len() == before {
                out.empty_polls += 1;
                if t.elapsed() > PHASE_LIMIT {
                    stalled("streaming phase");
                }
                std::thread::yield_now();
            }
        }
        let stats = tr.span("native.unregister", None, || handle.unregister());
        tr.close(span);
        let stream_s = t.elapsed().as_secs_f64();
        out.stream_s += stream_s;
        out.core.wall_s += stream_s;
        out.stream_bytes += st.stream_in.len() as u64 * 8;
        out.words_in += stats.words_in;
        out.words_out += stats.words_out;

        // Closed-loop phase: one block in flight.
        got_blocks.clear();
        let t = Instant::now();
        let span = tr.open("native.latency", Some(si as u64));
        let (tx, acc_in) = spsc_channel::<u64>(QUEUE_CAPACITY);
        let (acc_out, mut rx) = spsc_channel::<u64>(QUEUE_CAPACITY);
        let handle = tr.span("native.cohort_register", None, || {
            cohort_register(wl.make_accel(), acc_in, acc_out, wl.csr())
        });
        let mut tx = BatchProducer::new(tx, BATCH);
        let win = wl.words_in_per_block() as usize;
        let wout = wl.words_out_per_block() as usize;
        for (b, block) in st.blocks_in.chunks_exact(win).enumerate() {
            let tb = Instant::now();
            let bspan = tr.open("native.block", Some(b as u64));
            let push = tr.open("queue.push_block", None);
            for &w in block {
                while tx.push(w).is_err() {
                    out.full_retries += 1;
                }
            }
            tx.flush();
            tr.close(push);
            let pop = tr.open("queue.pop_block", None);
            for _ in 0..wout {
                got_blocks.push(pop_spin(&mut rx, &mut out.empty_polls, t));
            }
            tr.close(pop);
            tr.close(bspan);
            out.core.push_call(si, tb.elapsed().as_secs_f64() * 1e3);
        }
        let stats = tr.span("native.unregister", None, || handle.unregister());
        tr.close(span);
        out.words_in += stats.words_in;
        out.words_out += stats.words_out;
        out.core.wall_s += t.elapsed().as_secs_f64();

        // Verification, outside the timed window.
        let t = Instant::now();
        let span = tr.open("scenarios.verify", Some(si as u64));
        for (phase, got, want) in [
            ("stream", &got_stream, &st.stream_ref),
            ("blocks", &got_blocks, &st.blocks_ref),
        ] {
            let ok = got == want;
            let key = format!("native-{wl:?}-{phase}");
            out.core.check_run(
                ok,
                "output does not match the host reference",
                pins,
                key,
                0,
                digest(got),
            );
        }
        tr.close(span);
        out.verify_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    out
}

/// Native-layer control probes, in nanoseconds: single-thread push+pop,
/// stage/publish per word, and the two block kernels. Each is the
/// median of five repetitions.
pub struct Probes {
    /// One `push` + one `pop` on a single thread.
    pub push_pop_ns: f64,
    /// `stage` ×64 + `publish` + `pop` ×64, per word.
    pub stage_publish_ns_per_word: f64,
    /// `sha256_raw_block` per 64-byte block.
    pub sha256_ns_per_block: f64,
    /// `Aes128::encrypt_block` per 16-byte block.
    pub aes128_ns_per_block: f64,
}

fn time_ns_per(reps: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Runs the control probes (each span lands in its layer).
pub fn probes(tr: &mut Tracer) -> Probes {
    const OPS: usize = 200_000;
    let (mut tx, mut rx) = spsc_channel::<u64>(256);
    let push_pop_ns = tr.span("queue.probe_push_pop", None, || {
        time_ns_per(5, OPS, || {
            for i in 0..OPS as u64 {
                tx.push(i).expect("room");
                black_box(rx.pop().expect("value"));
            }
        })
    });
    let stage_publish_ns_per_word = tr.span("queue.probe_stage_publish", None, || {
        time_ns_per(5, OPS, || {
            for _ in 0..OPS / 64 {
                for i in 0..64u64 {
                    tx.stage(i).expect("room");
                }
                tx.publish();
                for _ in 0..64 {
                    black_box(rx.pop().expect("value"));
                }
            }
        }) * (OPS as f64 / ((OPS / 64) * 64) as f64)
    });
    let mut block = [0x5au8; 64];
    let sha256_ns_per_block = tr.span("accel.probe_sha256", None, || {
        time_ns_per(5, 20_000, || {
            for i in 0..20_000u32 {
                block[..4].copy_from_slice(&i.to_le_bytes());
                black_box(sha256_raw_block(black_box(&block)));
            }
        })
    });
    let aes = Aes128::new(&cohort::scenarios::AES_KEY);
    let mut b16 = [0xa5u8; 16];
    let aes128_ns_per_block = tr.span("accel.probe_aes128", None, || {
        time_ns_per(5, 50_000, || {
            for i in 0..50_000u32 {
                b16[..4].copy_from_slice(&i.to_le_bytes());
                black_box(aes.encrypt_block(black_box(&b16)));
            }
        })
    });
    Probes {
        push_pop_ns,
        stage_publish_ns_per_word,
        sha256_ns_per_block,
        aes128_ns_per_block,
    }
}
