//! The fault plan: which faults to inject, at what rates, from which seed.

use std::fmt;

/// A deterministic description of every fault the pipeline should inject.
///
/// `Copy` on purpose: the plan rides inside `VmConfig` and experiment
/// configs, and a plan plus its seed fully determines the injected fault
/// sequence. Probabilities are per-sampling-instant; rates are relative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed; subsystems derive independent streams from it.
    pub seed: u64,
    /// Probability a due DAQ sample is dropped (trigger misses the window).
    pub drop_sample: f64,
    /// Probability a due DAQ sample is double-clocked (counted twice).
    pub dup_sample: f64,
    /// Relative sigma of bounded Gaussian sensor noise on measured power
    /// (bounded to ±3σ; see `DetRng::gauss`).
    pub noise_sigma: f64,
    /// Inject 32-bit wraparound into HPM counters (consumers must unwrap).
    pub wrap32: bool,
    /// Probability a component-port read glitches to a stale/invalid ID.
    pub port_glitch: f64,
    /// Relative calibration drift per simulated second (sense-resistor
    /// thermal drift): measured power is scaled by `1 + drift * t`.
    pub calib_drift: f64,
    /// Force heap exhaustion at the Nth allocation (1-based).
    pub fail_alloc_at: Option<u64>,
    /// Abort the run once this many bytecodes have executed.
    pub step_budget: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5EED,
            drop_sample: 0.0,
            dup_sample: 0.0,
            noise_sigma: 0.0,
            wrap32: false,
            port_glitch: 0.0,
            calib_drift: 0.0,
            fail_alloc_at: None,
            step_budget: None,
        }
    }
}

/// Error from parsing a `--faults` spec string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// A plan that injects nothing (same as `default()`).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan perturbs the measurement path at all.
    pub fn is_none(&self) -> bool {
        self.drop_sample == 0.0
            && self.dup_sample == 0.0
            && self.noise_sigma == 0.0
            && !self.wrap32
            && self.port_glitch == 0.0
            && self.calib_drift == 0.0
            && self.fail_alloc_at.is_none()
            && self.step_budget.is_none()
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Clamp the plan's per-run step budget to at most `cap` bytecodes
    /// (`cap == 0` leaves the plan untouched). A plan without a budget
    /// gains one; a plan with a smaller budget keeps its own. This is the
    /// serving daemon's resource envelope: a tenant cannot request more
    /// execution than the operator allows.
    pub fn cap_step_budget(mut self, cap: u64) -> Self {
        if cap > 0 {
            self.step_budget = Some(self.step_budget.map_or(cap, |b| b.min(cap)));
        }
        self
    }

    /// Parse a comma-separated spec, e.g.
    /// `drop=0.05,dup=0.01,noise=0.02,wrap32,glitch=0.001,drift=1e-4,oom@1000,budget=5000000,seed=42`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if tok == "wrap32" {
                plan.wrap32 = true;
                continue;
            }
            if let Some(n) = tok.strip_prefix("oom@") {
                plan.fail_alloc_at = Some(parse_count(tok, n)?);
                continue;
            }
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("`{tok}` is not `key=value`")))?;
            match key {
                "drop" => plan.drop_sample = parse_prob(tok, value)?,
                "dup" => plan.dup_sample = parse_prob(tok, value)?,
                "noise" => plan.noise_sigma = parse_rate(tok, value)?,
                "glitch" => plan.port_glitch = parse_prob(tok, value)?,
                "drift" => plan.calib_drift = parse_rate(tok, value)?,
                "oom" => plan.fail_alloc_at = Some(parse_count(tok, value)?),
                "budget" => plan.step_budget = Some(parse_count(tok, value)?),
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| FaultSpecError(format!("`{tok}`: seed must be a u64")))?
                }
                other => {
                    return Err(FaultSpecError(format!(
                        "unknown key `{other}` (expected drop/dup/noise/wrap32/glitch/drift/oom/budget/seed)"
                    )))
                }
            }
        }
        Ok(plan)
    }
}

fn parse_prob(tok: &str, v: &str) -> Result<f64, FaultSpecError> {
    let p: f64 = v
        .parse()
        .map_err(|_| FaultSpecError(format!("`{tok}`: not a number")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultSpecError(format!(
            "`{tok}`: probability outside [0, 1]"
        )));
    }
    Ok(p)
}

fn parse_rate(tok: &str, v: &str) -> Result<f64, FaultSpecError> {
    let r: f64 = v
        .parse()
        .map_err(|_| FaultSpecError(format!("`{tok}`: not a number")))?;
    if !r.is_finite() || r < 0.0 {
        return Err(FaultSpecError(format!(
            "`{tok}`: rate must be finite and >= 0"
        )));
    }
    Ok(r)
}

fn parse_count(tok: &str, v: &str) -> Result<u64, FaultSpecError> {
    let n: u64 = v
        .parse()
        .map_err(|_| FaultSpecError(format!("`{tok}`: not a positive integer")))?;
    if n == 0 {
        return Err(FaultSpecError(format!("`{tok}`: count must be >= 1")));
    }
    Ok(n)
}

impl fmt::Display for FaultPlan {
    /// Canonical spec string; `FaultPlan::parse(plan.to_string())` round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.drop_sample > 0.0 {
            parts.push(format!("drop={}", self.drop_sample));
        }
        if self.dup_sample > 0.0 {
            parts.push(format!("dup={}", self.dup_sample));
        }
        if self.noise_sigma > 0.0 {
            parts.push(format!("noise={}", self.noise_sigma));
        }
        if self.wrap32 {
            parts.push("wrap32".into());
        }
        if self.port_glitch > 0.0 {
            parts.push(format!("glitch={}", self.port_glitch));
        }
        if self.calib_drift > 0.0 {
            parts.push(format!("drift={}", self.calib_drift));
        }
        if let Some(n) = self.fail_alloc_at {
            parts.push(format!("oom@{n}"));
        }
        if let Some(n) = self.step_budget {
            parts.push(format!("budget={n}"));
        }
        parts.push(format!("seed={}", self.seed));
        write!(f, "{}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_budget_cap_clamps_never_raises() {
        assert_eq!(FaultPlan::none().cap_step_budget(0).step_budget, None);
        assert_eq!(
            FaultPlan::none().cap_step_budget(100).step_budget,
            Some(100)
        );
        let small = FaultPlan::parse("budget=50").unwrap();
        assert_eq!(small.cap_step_budget(100).step_budget, Some(50));
        let big = FaultPlan::parse("budget=500").unwrap();
        assert_eq!(big.cap_step_budget(100).step_budget, Some(100));
    }

    #[test]
    fn parses_a_full_spec() {
        let p = FaultPlan::parse(
            "drop=0.05, dup=0.01, noise=0.02, wrap32, glitch=0.001, drift=1e-4, oom@1000, budget=5000000, seed=42",
        )
        .unwrap();
        assert_eq!(p.drop_sample, 0.05);
        assert_eq!(p.dup_sample, 0.01);
        assert_eq!(p.noise_sigma, 0.02);
        assert!(p.wrap32);
        assert_eq!(p.port_glitch, 0.001);
        assert_eq!(p.calib_drift, 1e-4);
        assert_eq!(p.fail_alloc_at, Some(1000));
        assert_eq!(p.step_budget, Some(5_000_000));
        assert_eq!(p.seed, 42);
    }

    #[test]
    fn empty_spec_is_no_faults() {
        assert!(FaultPlan::parse("").unwrap().is_none());
    }

    #[test]
    fn display_round_trips() {
        let p = FaultPlan::parse("drop=0.05,wrap32,oom@7,seed=9").unwrap();
        assert_eq!(FaultPlan::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("drop=x").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("wrap").is_err());
        assert!(FaultPlan::parse("oom@0").is_err());
        assert!(FaultPlan::parse("drift=-1").is_err());
    }
}
