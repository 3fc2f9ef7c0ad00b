//! The simulated results the benchmark reports beside its host timings,
//! with the paper's value for each claim.
//!
//! These are properties of the modelled system, not of the host: every
//! workload computes them once per run, outside the timed region, from
//! the same public entry points `mtp headline` and `mtp serve` use.

use crate::serve::ServeOpenLoop;
use mtp_core::SystemReport;
use mtp_harness::headline::{self, Headline};
use mtp_harness::serve::ServeRow;
use mtp_harness::sweep::Scenario;
use mtp_model::{InferenceMode, TransformerConfig};
use mtp_sim::ChipSpec;

/// Relative distance from the paper within which a claim counts as
/// reproduced; claims outside it are reported as known deviations and
/// are not gated.
const BAND: f64 = 0.25;

/// One paper claim next to the simulated value.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// What the paper claims.
    pub claim: &'static str,
    /// The end-to-end metric carrying it, if any.
    pub metric: Option<&'static str>,
    /// The paper's value.
    pub paper: f64,
    /// The simulated value.
    pub measured: f64,
    /// `true` for the calibration anchors of DESIGN.md §3, `false` for
    /// claims held out of calibration.
    pub anchor: bool,
}

impl Claim {
    /// Signed relative error against the paper.
    #[must_use]
    pub fn rel_err(&self) -> f64 {
        (self.measured - self.paper) / self.paper
    }

    /// One report line.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "# paper {:<44} metric={:<26} paper={:<7} measured={:<9.4} rel_err={:+6.1}% {} {}",
            self.claim,
            self.metric.unwrap_or("-"),
            self.paper,
            self.measured,
            100.0 * self.rel_err(),
            if self.anchor { "calibration-anchor" } else { "held-out" },
            if self.rel_err().abs() <= BAND { "within-band" } else { "known-deviation" },
        )
    }
}

/// The simulated reference points of one run.
#[derive(Debug)]
pub struct PaperPoints {
    headline: Headline,
    ar8: SystemReport,
    mb4: SystemReport,
    serve: ServeRow,
}

impl PaperPoints {
    /// Simulates the paper's headline points and the serving reference
    /// point.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors, and reports a headline that
    /// disagrees with the same point simulated on its own.
    pub fn compute(serve: &ServeOpenLoop) -> Result<Self, String> {
        let headline = headline::run().map_err(|e| e.to_string())?;
        let run = |cfg: TransformerConfig, mode, chips| {
            Scenario::new(cfg, mode, chips).run().map_err(|e| e.to_string())
        };
        let ar8 = run(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 8)?;
        let mb4 = run(TransformerConfig::mobile_bert(), InferenceMode::Prompt, 4)?;
        if ar8.runtime_ms() != headline.tinyllama_ar_latency_ms
            || mb4.runtime_ms() != headline.mobilebert_runtime_ms
        {
            return Err("headline points differ from the same scenarios run alone".to_owned());
        }
        Ok(PaperPoints { headline, ar8, mb4, serve: serve.reference_row()? })
    }

    /// The `sim_*` end-to-end metrics.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let h = &self.headline;
        let freq = ChipSpec::siracusa().freq_hz;
        vec![
            ("sim_ar_latency_ms", h.tinyllama_ar_latency_ms),
            ("sim_ar_energy_mj", h.tinyllama_ar_energy_mj),
            ("sim_ar_speedup_x", h.tinyllama_ar_speedup_8),
            ("sim_mobilebert_latency_ms", h.mobilebert_runtime_ms),
            ("sim_serve_ttft_p99_ms", self.serve.ttft.2 as f64 * 1e3 / freq),
            ("sim_serve_goodput_rps", self.serve.goodput_rps),
        ]
    }

    /// Every headline claim of the paper with its simulated value.
    #[must_use]
    pub fn claims(&self) -> Vec<Claim> {
        let h = &self.headline;
        let c = |claim, metric, paper, measured, anchor| Claim {
            claim,
            metric,
            paper,
            measured,
            anchor,
        };
        vec![
            c(
                "TinyLlama AR latency per block, 8 chips (ms)",
                Some("sim_ar_latency_ms"),
                0.54,
                h.tinyllama_ar_latency_ms,
                true,
            ),
            c(
                "TinyLlama AR energy per block, 8 chips (mJ)",
                Some("sim_ar_energy_mj"),
                0.64,
                h.tinyllama_ar_energy_mj,
                true,
            ),
            c(
                "TinyLlama AR speedup, 8 chips (x)",
                Some("sim_ar_speedup_x"),
                26.1,
                h.tinyllama_ar_speedup_8,
                true,
            ),
            c(
                "TinyLlama AR EDP improvement, 8 chips (x)",
                None,
                27.2,
                h.tinyllama_ar_edp_improvement,
                true,
            ),
            c(
                "MobileBERT runtime per block, 4 chips (ms)",
                Some("sim_mobilebert_latency_ms"),
                38.8,
                h.mobilebert_runtime_ms,
                true,
            ),
            c("MobileBERT speedup, 4 chips (x)", None, 4.7, h.mobilebert_speedup_4, true),
            c(
                "TinyLlama prompt speedup, 8 chips (x)",
                None,
                9.9,
                h.tinyllama_prompt_speedup_8,
                false,
            ),
            c("Scaled model AR speedup, 64 chips (x)", None, 60.1, h.scaled_ar_speedup_64, false),
            c(
                "Scaled model energy reduction, 64 chips (x)",
                None,
                1.3,
                h.scaled_ar_energy_reduction_64,
                false,
            ),
        ]
    }

    /// Critical-chip breakdowns of the TinyLlama 8-chip and MobileBERT
    /// 4-chip points (the `sim.ar8.*` and `sim.mb4.*` per-layer
    /// metrics).
    #[must_use]
    pub fn breakdowns(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (tag, r) in [("ar8", &self.ar8), ("mb4", &self.mb4)] {
            let b = r.stats.critical_breakdown();
            for (field, v) in [
                ("compute_cycles", b.compute),
                ("l3_l2_cycles", b.dma_l3_l2),
                ("l2_l1_cycles", b.dma_l2_l1),
                ("c2c_cycles", b.c2c),
                ("idle_cycles", b.idle),
                ("l3_bytes", r.stats.total_l3_l2_bytes()),
                ("c2c_bytes", r.stats.total_c2c_bytes()),
            ] {
                out.push((format!("sim.{tag}.{field}"), v as f64));
            }
        }
        out
    }
}
