//! The host's speed, and how the time metrics leave it out.
//!
//! On a virtual machine that shares its host, the same work can take
//! twice as long from one second to the next, as neighbours come and go
//! on the same physical core. On a 2-vCPU guest the block path's own CPU
//! time was seen to flip between two levels 1.9× apart, for seconds to
//! minutes at a time, with the same transactions in each block. Raw
//! times then measure the neighbours as much as the program.
//!
//! So each thread runs a fixed probe in its own gaps — the miner between
//! blocks, the client between operations, the main thread between
//! set-ups — and every time is scaled by [`REFERENCE_NS`] over the median
//! of the nearest probes of the thread that did the work: metrics
//! are reported at the speed of a host on which the probe takes
//! `REFERENCE_NS`. The probe is Keccak-f[1600], as the block path's time
//! goes mostly to Keccak in state roots; it tracked the block path's two
//! levels to within about 10 %, where a map-and-allocation probe saw
//! barely half of the swing. It is the benchmark's own code, so no
//! change to the repository can speed it up or slow it down, and a change
//! to the program still moves every metric it would move on a quiet host.

use std::time::{Duration, Instant};

use crate::stats::quantile;

/// The probe time the metrics are scaled to, ns: about what the probe
/// takes on a quiet x86-64 core. It only fixes the unit; what matters is
/// that it never changes.
pub const REFERENCE_NS: f64 = 50_000.0;

/// Shortest gap between two probes on one thread: on a quiet core a
/// probe costs the miner about 1 % of its time.
const PROBE_EVERY: Duration = Duration::from_millis(5);

/// Least time to spare before a thread with a schedule probes: a probe
/// takes about 50 µs on a quiet core and 100 µs on a busy one.
pub const PROBE_ROOM: Duration = Duration::from_micros(300);

/// Probes around an instant whose median sets the scale there.
const NEAREST: usize = 9;

/// Keccak-f[1600] permutations run per probe.
const PROBE_ROUNDS: usize = 100;

/// Runs the probe: [`PROBE_ROUNDS`] Keccak-f[1600] permutations.
fn probe() -> Duration {
    const RC: [u64; 24] = [
        0x0000_0000_0000_0001,
        0x0000_0000_0000_8082,
        0x8000_0000_0000_808a,
        0x8000_0000_8000_8000,
        0x0000_0000_0000_808b,
        0x0000_0000_8000_0001,
        0x8000_0000_8000_8081,
        0x8000_0000_0000_8009,
        0x0000_0000_0000_008a,
        0x0000_0000_0000_0088,
        0x0000_0000_8000_8009,
        0x0000_0000_8000_000a,
        0x0000_0000_8000_808b,
        0x8000_0000_0000_008b,
        0x8000_0000_0000_8089,
        0x8000_0000_0000_8003,
        0x8000_0000_0000_8002,
        0x8000_0000_0000_0080,
        0x0000_0000_0000_800a,
        0x8000_0000_8000_000a,
        0x8000_0000_8000_8081,
        0x8000_0000_0000_8080,
        0x0000_0000_8000_0001,
        0x8000_0000_8000_8008,
    ];
    const ROTATE: [u32; 25] =
        [0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39, 41, 45, 15, 21, 8, 18, 2, 61, 56, 14];
    let start = Instant::now();
    let mut a = std::hint::black_box([0x0123_4567_89ab_cdefu64; 25]);
    for _ in 0..PROBE_ROUNDS {
        for rc in RC {
            let c: [u64; 5] = std::array::from_fn(|x| a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]);
            for x in 0..5 {
                let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
                for y in 0..5 {
                    a[x + 5 * y] ^= d;
                }
            }
            let mut b = [0u64; 25];
            for x in 0..5 {
                for y in 0..5 {
                    b[y + 5 * ((2 * x + 3 * y) % 5)] = a[x + 5 * y].rotate_left(ROTATE[x + 5 * y]);
                }
            }
            for x in 0..5 {
                for y in 0..5 {
                    a[x + 5 * y] = b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
                }
            }
            a[0] ^= rc;
        }
    }
    std::hint::black_box(a);
    start.elapsed()
}

/// One thread's probes: when each ran and how long it took, ns.
#[derive(Default)]
pub struct Probes {
    samples: Vec<(Instant, f64)>,
}

impl Probes {
    /// Runs the probe unless one started in the last [`PROBE_EVERY`].
    pub fn sample(&mut self) {
        let now = Instant::now();
        if self.samples.last().is_none_or(|&(last, _)| now - last >= PROBE_EVERY) {
            self.samples.push((now, probe().as_nanos() as f64));
        }
    }

    /// What a time measured around `t` is multiplied by to report it at
    /// reference speed: [`REFERENCE_NS`] over the median of the
    /// [`NEAREST`] probes closest to `t` (1 without probes).
    pub fn scale_at(&self, t: Instant) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let at = self.samples.partition_point(|&(start, _)| start <= t);
        let from = at.saturating_sub(NEAREST / 2).min(self.samples.len().saturating_sub(NEAREST));
        let to = (from + NEAREST).min(self.samples.len());
        let mut near: Vec<f64> = self.samples[from..to].iter().map(|&(_, ns)| ns).collect();
        REFERENCE_NS / quantile(&mut near, 0.5)
    }
}
