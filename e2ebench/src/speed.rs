//! Host-speed adjustment of measured times.
//!
//! The benchmark runs on shared hosts whose speed changes under it. On the
//! 2-vCPU VM it was built on, the same work ran up to 1.7 times slower for
//! stretches of a few seconds to several minutes, with no steal time
//! reported, and CPU time slowed exactly as much as wall time. A slow
//! stretch could cover a whole run, so no statistic taken within a run
//! could remove it: two sets of ten `council` runs spread by 0.13 and 0.52.
//!
//! So each measured unit of work (a search, a walk-forward, a tick, a
//! set-up) is followed at once by a fixed reference kernel, and the unit's
//! time is reported scaled by `REFERENCE_S / kernel time`: the time it
//! would have taken had the host been running at the speed at which the
//! kernel takes `REFERENCE_S`, about the kernel's time on that VM at full
//! speed. The kernel is the benchmark's own code and calls nothing of the
//! program, so a change to the program moves adjusted times as it moves
//! raw ones.
//!
//! The kernel mixes the kinds of work the workloads do: a small recurrent
//! matrix-vector product through `tanh`, like an LSTM step; sorting and
//! hash-counting 4096 keys, like the branchy work of the council's trees
//! and the serving engine's lookups; and a chase of dependent loads through
//! 128 KB, which slows less than arithmetic does, as the fused forwards of
//! `serve-shared` do. Of the kernels tried (these three and a 40x40 matrix
//! product), these three together kept the spread of ten runs' job times
//! lowest on every workload: at most 0.07, against up to 0.21 unadjusted.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::metrics::splitmix64;

/// The reference kernel's time at the speed adjusted times are quoted at.
pub const REFERENCE_S: f64 = 320e-6;

/// Times the reference kernel once and returns the factor that scales a
/// time measured just before it to reference speed.
pub fn factor() -> f64 {
    REFERENCE_S / kernel_s()
}

/// A line for the run's notes: the mean unit time as measured and as
/// adjusted, and how fast the host ran against reference speed while the
/// units behind `factors` were measured.
pub fn note(factors: &[f64], raw_s: &[f64]) -> String {
    let adjusted: Vec<f64> = raw_s.iter().zip(factors).map(|(t, f)| t * f).collect();
    format!(
        "job {:.6} s as measured, {:.6} s at reference speed: the host ran at {:.2} to {:.2} of it (p10-p90, median {:.2}) over {} units",
        crate::metrics::mean(raw_s),
        crate::metrics::mean(&adjusted),
        crate::metrics::percentile(factors, 100),
        crate::metrics::percentile(factors, 900),
        crate::metrics::median(factors),
        factors.len()
    )
}

/// One run of the reference kernel, in seconds. Inputs are built outside
/// the timed region, and every result passes through `black_box`.
fn kernel_s() -> f64 {
    const WIDTH: usize = 16;
    const STEPS: usize = 400;
    const KEYS: u64 = 4096;
    const SLOTS: usize = 32768;
    const LOADS: usize = 20000;
    let weights: Vec<f64> = (0..WIDTH * WIDTH)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 400.0)
        .collect();
    let mut state = vec![0.1; WIDTH];
    let mut next = vec![0.0; WIDTH];
    let mut keys: Vec<u64> = (0..KEYS).map(splitmix64).collect();
    let links: Vec<u32> = (0..SLOTS as u64)
        .map(|i| u32::try_from(splitmix64(i) % SLOTS as u64).expect("slot fits u32"))
        .collect();

    let start = Instant::now();
    for step in 0..STEPS {
        for (i, out) in next.iter_mut().enumerate() {
            let mut sum = black_box(step as f64 * 1e-3);
            for (w, x) in weights[i * WIDTH..(i + 1) * WIDTH].iter().zip(&state) {
                sum += w * x;
            }
            *out = sum.tanh();
        }
        std::mem::swap(&mut state, &mut next);
    }
    black_box(&state);
    keys.sort_unstable();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for key in &keys {
        *counts.entry(key % 1013).or_insert(0) += 1;
    }
    black_box(&counts);
    let mut slot = 0usize;
    let mut sum = 0u64;
    for _ in 0..LOADS {
        slot = links[slot] as usize;
        sum = sum.wrapping_add(slot as u64);
        if sum & 1 == 1 {
            slot = (slot + 7) % SLOTS;
        }
    }
    black_box(sum);
    start.elapsed().as_secs_f64()
}
