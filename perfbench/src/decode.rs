//! The `functional_decode` workload: full-size TinyLlama-42M on 8 chips
//! through the value-level [`FunctionalSystem`]. Each query is one token
//! of a seeded greedy decode: embed the current token, run one
//! autoregressive step through every block, and take the argmax of the
//! logits over the TinyLlama vocabulary. A sequence runs until the
//! KV-cache is full, then the next one starts from a fresh seeded token.

use crate::trace::Tracer;
use crate::workload::{Counters, Rng, Workload};
use mtp_core::functional::FunctionalSystem;
use mtp_core::{slice_block, SlicedBlockWeights};
use mtp_model::{generate_greedy, Decoder, Embedding, ModelWeights, TokenId, TransformerConfig};
use mtp_tensor::{Shape, Tensor};

/// TinyLlama's vocabulary size.
const VOCAB: usize = 32_000;
/// Chips the model is partitioned over.
const N_CHIPS: usize = 8;
/// Tokens of the first sequence compared against the golden decoder
/// (a prefix, which bounds the oracle's cost).
const GOLDEN_TOKENS: usize = 24;

/// One decoded token.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    id: TokenId,
}

/// The decode workload's state: the partitioned model, its embedding,
/// and the position of the running greedy decode.
#[derive(Debug)]
pub struct FunctionalDecode {
    seed: u64,
    cfg: TransformerConfig,
    system: FunctionalSystem,
    embedding: Embedding,
    /// Chip 0's slice of block 0: the per-chip GEMV shapes the traced run
    /// times `Tensor::matmul` on.
    chip_slice: SlicedBlockWeights,
    x: Tensor,
    logits: Tensor,
    token: TokenId,
    sequence: u64,
    /// Tokens the first sequence produced, with their query ids.
    first_sequence: Vec<(u64, TokenId)>,
}

fn start_token(seed: u64, sequence: u64) -> TokenId {
    Rng::new(seed ^ 0x70CE, sequence).below(VOCAB) as TokenId
}

/// Row-0 argmax, first maximum wins (the tie-break `generate_greedy`
/// uses).
fn argmax(logits: &Tensor) -> TokenId {
    let row = logits.row(0);
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best as TokenId
}

impl FunctionalDecode {
    /// Synthesizes the seeded weights and embedding and partitions the
    /// model over the chips.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors.
    pub fn new(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let cfg = TransformerConfig::tiny_llama_42m();
        let weights = tracer.time("model.weights_seed", || ModelWeights::seeded(&cfg, seed));
        let system = tracer
            .time("core.functional.new", || FunctionalSystem::new(cfg.clone(), &weights, N_CHIPS))
            .map_err(|e| e.to_string())?;
        let embedding =
            tracer.time("model.embedding_seed", || Embedding::seeded(&cfg, VOCAB, seed ^ 0xE3B));
        let chip_slice =
            slice_block(weights.block(0), system.spec()).map_err(|e| e.to_string())?.swap_remove(0);
        Ok(FunctionalDecode {
            seed,
            cfg,
            system,
            embedding,
            chip_slice,
            x: Tensor::default(),
            logits: Tensor::default(),
            token: start_token(seed, 0),
            sequence: 0,
            first_sequence: Vec::new(),
        })
    }

    /// Starts the next sequence when the KV-cache is full.
    fn roll_sequence(&mut self) {
        if self.system.cached_len() == self.cfg.seq_len {
            self.system.reset();
            self.sequence += 1;
            self.token = start_token(self.seed, self.sequence);
        }
    }

    /// Times `Tensor::matmul` on chip 0's slice shapes with the step's
    /// own input row; returns the floating-point operations done. The
    /// probe runs beside the query, after it returned, so it adds no time
    /// to the traced query.
    fn gemv_probe(&self, t: &mut Tracer) -> f64 {
        let w = &self.chip_slice;
        let row = |cols: usize| Tensor::zeros(Shape::mat(1, cols));
        let (heads, ffn) = (row(w.wo.shape().rows()), row(w.w2.shape().rows()));
        let mut flops = 0.0;
        for (input, weight) in [
            (&self.x, &w.wq),
            (&self.x, &w.wk),
            (&self.x, &w.wv),
            (&heads, &w.wo),
            (&self.x, &w.w1),
            (&ffn, &w.w2),
        ] {
            let out = t.time("tensor.gemv", || input.matmul(weight));
            std::hint::black_box(out);
            flops += 2.0 * (weight.shape().rows() * weight.shape().cols()) as f64;
        }
        flops
    }
}

impl Workload for FunctionalDecode {
    type Query = u64;
    type Output = Token;

    fn prepare(&mut self, q: u64) -> u64 {
        self.roll_sequence();
        q
    }

    fn run(&mut self, &q: &u64) -> Result<Token, String> {
        self.embedding.embed_into(self.token, &mut self.x).map_err(|e| e.to_string())?;
        let h = self.system.step(&self.x).map_err(|e| e.to_string())?;
        self.embedding.logits_into(&h, &mut self.logits).map_err(|e| e.to_string())?;
        self.token = argmax(&self.logits);
        if self.sequence == 0 {
            self.first_sequence.push((q, self.token));
        }
        Ok(Token { id: self.token })
    }

    fn run_traced(
        &mut self,
        &q: &u64,
        t: &mut Tracer,
        _counters: &mut Counters,
    ) -> Result<Token, String> {
        // The calls `FunctionalSystem::step` makes, one block at a time,
        // between the embedding lookup and the LM head.
        let (embedding, x) = (&self.embedding, &mut self.x);
        t.time("model.embed", || embedding.embed_into(self.token, x)).map_err(|e| e.to_string())?;
        let mut h = self.x.clone();
        for layer in 0..self.cfg.n_layers {
            let system = &mut self.system;
            h = t
                .time("core.functional.block_forward", || system.block_forward(&h, layer, true))
                .map_err(|e| e.to_string())?;
        }
        let (embedding, logits) = (&self.embedding, &mut self.logits);
        t.time("model.logits", || embedding.logits_into(&h, logits)).map_err(|e| e.to_string())?;
        self.token = argmax(&self.logits);
        if self.sequence == 0 {
            self.first_sequence.push((q, self.token));
        }
        Ok(Token { id: self.token })
    }

    fn tally(&self, _query: &u64, _out: &Token, t: &mut Tracer, c: &mut Counters) {
        c.add("tensor.gemv_flops", self.gemv_probe(t));
    }

    fn items(&self, _out: &Token) -> u64 {
        1
    }

    fn digest(&self, out: &Token) -> u64 {
        u64::from(out.id)
    }

    fn check(&mut self, _query: &u64, out: &Token) -> Result<(), String> {
        if (out.id as usize) >= VOCAB {
            return Err(format!("token {} outside the vocabulary", out.id));
        }
        if !self.logits.as_slice().iter().all(|v| v.is_finite()) {
            return Err("non-finite logits".to_owned());
        }
        Ok(())
    }

    fn deep_check(&mut self, _query: &u64, _out: &Token) -> Result<(), String> {
        // The golden comparison in `finish` covers the decode; a query
        // cannot be repeated without rewinding the KV-cache.
        Ok(())
    }

    fn finish(&mut self) -> Vec<(u64, String)> {
        // Greedy tokens of the first sequence equal the golden
        // single-chip decoder's, token for token.
        let prefix: Vec<(u64, TokenId)> =
            self.first_sequence.iter().copied().take(GOLDEN_TOKENS).collect();
        // The seeded weights are regenerated rather than kept resident
        // through the timed run.
        let weights = ModelWeights::seeded(&self.cfg, self.seed);
        let mut golden = Decoder::new(self.cfg.clone(), weights);
        let start = start_token(self.seed, 0);
        // `generate_greedy` steps once more than it emits, so the prefix
        // stays below the KV-cache capacity.
        let n = prefix.len().min(self.cfg.seq_len - 1);
        match generate_greedy(&self.embedding, &[start], n, |x| golden.step(x)) {
            Ok(tokens) => prefix
                .iter()
                .zip(tokens)
                .filter(|((_, got), want)| got != want)
                .map(|(&(q, got), want)| (q, format!("token {got} != golden {want}")))
                .collect(),
            Err(e) => vec![(0, format!("golden decode failed: {e}"))],
        }
    }

    fn restart(&mut self) {
        self.system.reset();
        self.sequence = 0;
        self.token = start_token(self.seed, 0);
        self.first_sequence.clear();
    }
}
