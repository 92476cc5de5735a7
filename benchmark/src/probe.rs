//! The host-speed probe. The sandbox's speed moves by 30–100 % for
//! seconds to minutes at a time (a busy sibling hyper-thread, a
//! time-sliced vCPU) — far more than any bound worth gating on — so every
//! wall-clock end-to-end number is corrected by a probe run right beside
//! it: a fixed piece of hashing work over a cache-sized table. The
//! benchmark owns it, so no engine change can move it, and it allocates
//! nothing, so the heap the engine leaves behind cannot either. A measured
//! time is scaled by `REFERENCE_MS ÷ the adjacent probe's time`: expressed
//! as if the host ran at the speed at which the probe takes `REFERENCE_MS`.

use std::hint::black_box;
use std::time::Instant;

/// The probe's duration on the 2-core 2.1 GHz sandbox when undisturbed.
/// Only a scale factor — both sides of a comparison use the same constant
/// — chosen so corrected and raw numbers agree on a quiet sandbox.
pub const REFERENCE_MS: f64 = 11.5;

/// 2 MiB of slots: beyond L1/L2, inside the last-level cache.
const SLOTS: usize = 1 << 18;
const KEYS: u64 = 150_000;
const LOOKUP_ROUNDS: u64 = 3;

pub struct Probe {
    slots: Vec<u64>,
}

/// SplitMix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            slots: vec![0; SLOTS],
        }
    }

    /// Fill an open-addressing table with `KEYS` keys, then look up
    /// `LOOKUP_ROUNDS × KEYS` keys, half of them absent. Returns
    /// `(wall ms, keys found)`; the count is the same on every call.
    pub fn run(&mut self) -> (f64, u64) {
        let t0 = Instant::now();
        let mask = SLOTS - 1;
        self.slots.fill(0);
        for i in 1..=KEYS {
            let key = mix(i) | 1;
            let mut at = mix(key) as usize & mask;
            while self.slots[at] != 0 && self.slots[at] != key {
                at = (at + 1) & mask;
            }
            self.slots[at] = key;
        }
        let mut found = 0;
        for round in 0..LOOKUP_ROUNDS {
            for i in 1..=KEYS {
                let key = mix(i + round * (KEYS / 2)) | 1;
                let mut at = mix(key) as usize & mask;
                while self.slots[at] != 0 {
                    if self.slots[at] == key {
                        found += 1;
                        break;
                    }
                    at = (at + 1) & mask;
                }
            }
        }
        (t0.elapsed().as_secs_f64() * 1e3, black_box(found))
    }

    /// Just the time of one probe.
    pub fn ms(&mut self) -> f64 {
        self.run().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_the_same_work_every_time() {
        let mut p = Probe::new();
        let (ms, found) = p.run();
        assert!(ms > 0.0);
        // Round 0 finds every key, round 1 half, round 2 none.
        assert_eq!(found, KEYS + KEYS / 2);
        assert_eq!(p.run().1, found);
    }
}
