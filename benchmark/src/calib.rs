//! How fast the host runs right now, measured next to every cell sample.
//!
//! The benchmark runs on one of two virtual CPUs of a shared machine. What
//! the neighbour on the same physical core does changes how fast code with
//! many instructions in flight and many branches runs here: the same cell
//! reads 2 300 to 5 500 ns per route within three minutes, in swings that
//! last five to fifteen seconds. It is not this process's heap (the first
//! sample of forty fresh processes spreads by 16 %, like the rest), not the
//! clock frequency (a dependent chain of shifts and adds moves by 3 %) and
//! not memory latency (a pointer chase over 32 MiB moves by 6 % and follows
//! the cells with a correlation of 0.2). A sort does follow them
//! (correlation 0.6 to 0.8), and so does formatting numbers: code that is
//! branchy and keeps many instructions in flight.
//!
//! So every cell sample is paired with a **reference**: sorting the same
//! 20 000 pseudo-random numbers and formatting them into a string, in
//! buffers allocated once. It calls no allocator and touches no memory of
//! the program, so no change to the program can move it, and an untimed
//! pass first brings it back into the caches whatever ran before (its
//! median reads the same within 4 % after a fir and after a wren cell,
//! where a kernel that allocates read 1.8 times slower after one than
//! after the other). The sample's [`host_factor`] is the mean of the
//! reference passes right before and right after it, over [`NOMINAL_NS`].

use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Wall ns of one reference pass when the host runs at its usual speed:
/// the median over the runs `out/repeat.txt` records. It only fixes the
/// scale, so that scaled and measured nanoseconds agree on a usual day.
pub const NOMINAL_NS: f64 = 1_200_000.0;

const KEYS: usize = 20_000;

/// Timed repeats per [`Reference::pass_ns`]; the pass is their median,
/// which a 60 ms stall of the virtual CPU cannot move.
const REPEATS: usize = 3;

pub struct Reference {
    keys: Vec<u64>,
    text: String,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        // 32 bytes hold the longest line `once` writes for one key.
        Reference { keys: vec![0; KEYS], text: String::with_capacity(KEYS * 32) }
    }

    /// The same keys every time, in the same order.
    fn fill(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
    }

    fn once(&mut self) -> f64 {
        self.fill();
        self.text.clear();
        let start = Instant::now();
        self.keys.sort_unstable();
        for k in &self.keys {
            let _ = write!(self.text, "{} {:x},", k % 100_000, k >> 40);
        }
        black_box(&self.text);
        start.elapsed().as_nanos() as f64
    }

    /// One reference pass in wall ns: an untimed repeat that brings
    /// buffers and code back into the caches, whatever ran before, then
    /// the median of [`REPEATS`] timed ones.
    pub fn pass_ns(&mut self) -> f64 {
        self.once();
        let timed: Vec<f64> = (0..REPEATS).map(|_| self.once()).collect();
        median(&timed).expect("REPEATS > 0")
    }
}

/// How many times slower than usual the host ran around a sample, from
/// the reference passes right before and right after it.
pub fn host_factor(before_ns: f64, after_ns: f64) -> f64 {
    (before_ns + after_ns) / 2.0 / NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_one_at_nominal_and_scales_with_the_reference() {
        assert_eq!(host_factor(NOMINAL_NS, NOMINAL_NS), 1.0);
        assert_eq!(host_factor(2.0 * NOMINAL_NS, NOMINAL_NS), 1.5);
        let mut reference = Reference::new();
        let capacity = reference.text.capacity();
        assert!(reference.pass_ns() > 0.0);
        // A pass allocates nothing: the string never outgrew its buffer.
        assert_eq!(reference.text.capacity(), capacity);
        // Sorting leaves the keys sorted; the next pass starts from the
        // same unsorted keys again.
        assert!(reference.keys.windows(2).all(|w| w[0] <= w[1]));
        reference.fill();
        assert!(reference.keys.windows(2).any(|w| w[0] > w[1]));
    }
}
