//! The interface every benchmark workload implements, and the seeded
//! generator its inputs come from.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// A closed-loop workload: the benchmark loop prepares query `q` (untimed),
/// runs it (timed), then checks the output (untimed), and only then
/// starts query `q + 1`.
pub trait Workload {
    /// The inputs of one query, generated from the run's seed.
    type Query;
    /// What one query returns to its caller.
    type Output;

    /// Generates query `q`.
    fn prepare(&mut self, q: u64) -> Self::Query;

    /// Runs one query through the library's top-level entry points.
    ///
    /// # Errors
    ///
    /// Returns a description when the library reports an error.
    fn run(&mut self, query: &Self::Query) -> Result<Self::Output, String>;

    /// Runs one query through the public calls one layer down, in the
    /// order the layer above makes them, with one span per call. The
    /// output must equal [`Workload::run`]'s.
    ///
    /// # Errors
    ///
    /// Returns a description when the library reports an error.
    fn run_traced(
        &mut self,
        query: &Self::Query,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> Result<Self::Output, String>;

    /// Work items the query completed (scenarios, requests or tokens).
    fn items(&self, out: &Self::Output) -> u64;

    /// Digest of the query's serialized output.
    fn digest(&self, out: &Self::Output) -> u64;

    /// Oracles cheap enough to run on every query.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated oracle.
    fn check(&mut self, query: &Self::Query, out: &Self::Output) -> Result<(), String>;

    /// Expensive oracles, run on a fixed sample of queries. By default:
    /// the repeated query returns byte-identical output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated oracle.
    fn deep_check(&mut self, query: &Self::Query, out: &Self::Output) -> Result<(), String> {
        let again = self.run(query)?;
        if self.digest(&again) == self.digest(out) {
            Ok(())
        } else {
            Err("the repeated query returned different output".to_owned())
        }
    }

    /// Adds the traced query's simulated counts to `counters`, and runs
    /// any probe whose spans belong beside the query rather than in it;
    /// the benchmark loop calls this outside the timed region.
    fn tally(
        &self,
        _query: &Self::Query,
        _out: &Self::Output,
        _tracer: &mut Tracer,
        _counters: &mut Counters,
    ) {
    }

    /// Oracles that run once after the timed loops; returns the failing
    /// query ids with the reason.
    fn finish(&mut self) -> Vec<(u64, String)> {
        Vec::new()
    }

    /// Returns the workload to the state before query 0, so a second
    /// pass over the same query ids produces the same outputs.
    fn restart(&mut self) {}
}

/// Named counters the traced run accumulates beside its spans.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Raises counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(v);
        *e = e.max(v);
    }

    /// The counter's value (0 when never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// SplitMix64: the benchmark's own input generator. Every query draws
/// from a stream derived from `(seed, stream)` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for stream `stream` of `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// One element of a non-empty slice.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    /// `k` distinct elements of `items` in their original order.
    pub fn subset<T: Clone>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        for i in (1..idx.len()).rev() {
            idx.swap(i, self.below(i + 1));
        }
        let mut chosen = idx[..k.min(items.len())].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| items[i].clone()).collect()
    }
}

/// The stratum query `q` draws from, out of `n`: every `n` consecutive
/// queries visit each stratum once, in an order seeded per pass, so runs
/// with different seeds see the same mix of strata.
#[must_use]
pub fn stratum(seed: u64, q: u64, n: usize) -> usize {
    let mut order: Vec<usize> = (0..n).collect();
    let mut shuffle = Rng::new(seed, q / n as u64);
    for i in (1..n).rev() {
        order.swap(i, shuffle.below(i + 1));
    }
    order[(q % n as u64) as usize]
}

/// Balanced draws for one query: its `i`-th draw takes option
/// [`stratum`]`(seed', q, options)` on a seeded order of its own for
/// each `i`, so over a run every option of every draw is taken equally
/// often, whatever the seed. Every query must make the same sequence of
/// draws.
#[derive(Debug)]
pub struct Strata {
    seed: u64,
    q: u64,
    draws: u64,
}

impl Strata {
    /// The draws of query `q` of `seed`.
    #[must_use]
    pub fn new(seed: u64, q: u64) -> Self {
        Strata { seed, q, draws: 0 }
    }

    /// The next draw: one of `options` (non-empty).
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        self.draws += 1;
        let seed = Rng::new(self.seed, self.draws).next_u64();
        options[stratum(seed, self.q, options.len())].clone()
    }
}
