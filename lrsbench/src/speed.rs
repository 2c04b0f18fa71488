//! Host-speed probe for the end-to-end host times.
//!
//! The benchmark host shares its cores' caches and memory with other
//! tenants, and its speed drifts by a quarter within minutes. Eight runs
//! of the identical `onehop-lossy` list (seed 1) took 15.1–21.2 s. A
//! seed-to-seed spread that large would hide any change to the program.
//!
//! The probe is a fixed unit of reference work built only from the
//! standard library. It mixes a binary heap (an event queue's pattern), a
//! hash map, short-lived 72-byte buffers and scattered reads over a
//! 1 MiB table. The benchmark runs a few units between jobs, or between
//! small campaign chunks, so the probe meets the host in the same state
//! the jobs do. Host times are then rescaled by the speed the probe saw
//! in the same run.
//!
//! Over those eight runs, the job time per probe time varied by 9 %
//! (70.5–77.0), against 33 % for the raw job time. A pure-ALU probe did
//! not track the drift (17 %): the drift is in the memory system, not in
//! the clock. The program cannot move the probe's code. What the probe
//! can share with the program is the cache state a job leaves behind.
//!
//! [`REFERENCE_UNIT_S`] is the probe unit's time on the reference host, a
//! 2-core 2.1 GHz Xeon KVM guest. A rescaled time is what the run would
//! have taken there at that unit time. The raw seconds are printed on
//! stderr beside it.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Probe-unit seconds on the reference host.
pub const REFERENCE_UNIT_S: f64 = 3.0e-4;

const TABLE_WORDS: usize = 1 << 17;

/// Runs probe units and accumulates their time.
pub struct SpeedProbe {
    table: Vec<u64>,
    seconds: f64,
    units: u64,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            seconds: 0.0,
            units: 0,
        }
    }
}

impl SpeedProbe {
    /// Runs `units` probe units.
    pub fn gap(&mut self, units: u32) {
        for _ in 0..units {
            let start = Instant::now();
            self.unit();
            self.seconds += start.elapsed().as_secs_f64();
            self.units += 1;
        }
    }

    /// Factor turning this run's host seconds into reference-host
    /// seconds: the reference unit time over the mean unit time seen.
    pub fn factor(&self) -> f64 {
        REFERENCE_UNIT_S * self.units as f64 / self.seconds
    }

    fn unit(&self) {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut heap = BinaryHeap::new();
        let mut map = HashMap::new();
        let mut acc = 0u64;
        for i in 0..1024u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push((x >> 40, i));
            map.insert(x & 0x3ff, i);
            let buf: Vec<u8> = (0..72).map(|b| (x >> (b % 8)) as u8).collect();
            acc = buf
                .iter()
                .fold(acc, |a, &b| (a ^ b as u64).wrapping_mul(0x100_0000_01b3));
            acc ^= self.table[(x as usize) & (TABLE_WORDS - 1)];
            if i % 2 == 1 {
                acc ^= heap.pop().map_or(0, |(k, _)| k);
            }
        }
        black_box((acc, map.len()));
    }
}
