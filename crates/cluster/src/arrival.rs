//! Open-loop arrival schedules.
//!
//! Arrivals are generated as a **pure function of the cluster seed**
//! before the simulation starts, not drawn from the per-process DES rngs:
//! two cluster runs with the same seed see byte-identical schedules no
//! matter how the process interleaving inside the runs differs. That is
//! what makes the same-seed trace-determinism tests possible.

use faaspipe_des::{SimDuration, SimTime};

/// One run submission: a tenant (index into the cluster's tenant list)
/// and the virtual time it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the run is submitted.
    pub at: SimTime,
    /// Which tenant submitted it (index into `ClusterConfig::tenants`).
    pub tenant: usize,
}

/// How run submissions are generated.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Seeded Poisson process: exponential inter-arrival times at
    /// `rate_per_sec` aggregate, each arrival assigned to a tenant by
    /// weighted draw, until `horizon`.
    Poisson {
        /// Aggregate submission rate across all tenants.
        rate_per_sec: f64,
        /// Submissions stop at this virtual time (runs may finish later).
        horizon: SimDuration,
    },
    /// An explicit schedule, e.g. parsed from a trace file.
    Trace(Vec<Arrival>),
}

/// Golden-ratio increment used by splitmix64.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// Decouples the arrival stream from the per-run dataset seeds, which
/// are derived from the same base seed.
const ARRIVAL_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// Arrival times, from a trace or up to a Poisson horizon, must lie below
/// 2^62 ns (about 146 years), which leaves over 400 years of virtual time
/// for the runs themselves before the clock's `u64` nanoseconds overflow.
pub const MAX_ARRIVAL_NS: u64 = 1 << 62;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` with 53 bits of entropy.
fn uniform01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl ArrivalProcess {
    /// Materializes the schedule. `weights` holds one relative arrival
    /// weight per tenant; for [`ArrivalProcess::Trace`] it is only used
    /// to bounds-check tenant indices.
    ///
    /// # Errors
    /// A message when the configuration is unusable (non-positive rate
    /// or weights, out-of-range tenant index, unsorted trace).
    pub fn generate(&self, seed: u64, weights: &[f64]) -> Result<Vec<Arrival>, String> {
        if weights.is_empty() {
            return Err("at least one tenant is required".to_string());
        }
        match self {
            ArrivalProcess::Poisson {
                rate_per_sec,
                horizon,
            } => {
                if !rate_per_sec.is_finite() || *rate_per_sec <= 0.0 {
                    return Err(format!("arrival rate must be positive, got {rate_per_sec}"));
                }
                if weights.iter().any(|w| w.is_nan() || *w < 0.0)
                    || weights.iter().sum::<f64>() <= 0.0
                {
                    return Err("tenant weights must be non-negative with a positive sum".into());
                }
                let total: f64 = weights.iter().sum();
                let mut state = seed ^ ARRIVAL_SALT;
                let mut out = Vec::new();
                let mut t = 0.0_f64;
                let horizon_s = horizon.as_secs_f64();
                loop {
                    // Exponential inter-arrival; 1 - u avoids ln(0).
                    let u = uniform01(&mut state);
                    t += -(1.0 - u).ln() / rate_per_sec;
                    if t >= horizon_s {
                        break;
                    }
                    let mut pick = uniform01(&mut state) * total;
                    let mut tenant = weights.len() - 1;
                    for (i, w) in weights.iter().enumerate() {
                        if pick < *w {
                            tenant = i;
                            break;
                        }
                        pick -= w;
                    }
                    out.push(Arrival {
                        at: SimTime::from_nanos((t * 1e9) as u64),
                        tenant,
                    });
                }
                Ok(out)
            }
            ArrivalProcess::Trace(rows) => {
                for (i, a) in rows.iter().enumerate() {
                    if a.tenant >= weights.len() {
                        return Err(format!(
                            "trace row {} names tenant {} but only {} tenants are configured",
                            i,
                            a.tenant,
                            weights.len()
                        ));
                    }
                    if i > 0 && a.at < rows[i - 1].at {
                        return Err(format!("trace rows must be sorted by time (row {i})"));
                    }
                }
                Ok(rows.clone())
            }
        }
    }

    /// Parses a trace file: one `t_seconds tenant_index` row per line
    /// (whitespace- or comma-separated), `#` comments and blank lines
    /// ignored.
    ///
    /// # Errors
    /// A message naming the first malformed line, including a time that is
    /// NaN, negative, infinite or not below 2^62 ns.
    pub fn from_trace_str(text: &str) -> Result<ArrivalProcess, String> {
        let mut rows = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(|c: char| c.is_whitespace() || c == ',');
            let time = parts.next().unwrap_or_default();
            let t = time
                .parse::<f64>()
                .map_err(|_| format!("line {}: bad time", lineno + 1))?;
            let tenant = parts
                .find(|s| !s.is_empty())
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| format!("line {}: bad tenant index", lineno + 1))?;
            if t.is_nan() {
                return Err(format!("line {}: time is not a number", lineno + 1));
            }
            if t < 0.0 {
                return Err(format!("line {}: negative time", lineno + 1));
            }
            if t * 1e9 >= MAX_ARRIVAL_NS as f64 {
                return Err(format!(
                    "line {}: time {} s is not below 2^62 ns (about 146 years)",
                    lineno + 1,
                    time
                ));
            }
            rows.push(Arrival {
                at: SimTime::from_nanos((t * 1e9) as u64),
                tenant,
            });
        }
        rows.sort_by_key(|a| a.at);
        Ok(ArrivalProcess::Trace(rows))
    }
}

/// The dataset seed for the run with global arrival index `seq`:
/// `seq == 0` keeps the base seed, so a single-arrival cluster run
/// reproduces the standalone pipeline's dataset bit-for-bit.
pub fn run_seed(base: u64, seq: usize) -> u64 {
    base ^ (seq as u64).wrapping_mul(SPLITMIX_GAMMA)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_a_pure_function_of_the_seed() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 0.5,
            horizon: SimDuration::from_secs(600),
        };
        let a = p.generate(42, &[1.0, 2.0]).expect("a");
        let b = p.generate(42, &[1.0, 2.0]).expect("b");
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = p.generate(43, &[1.0, 2.0]).expect("c");
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn poisson_rate_and_mix_are_roughly_respected() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 2.0,
            horizon: SimDuration::from_secs(10_000),
        };
        let arrivals = p.generate(7, &[3.0, 1.0]).expect("gen");
        let n = arrivals.len() as f64;
        // 2/s over 10 000 s: expect ~20 000 ± a few hundred.
        assert!((n - 20_000.0).abs() < 1_000.0, "got {n}");
        let t0 = arrivals.iter().filter(|a| a.tenant == 0).count() as f64;
        assert!((t0 / n - 0.75).abs() < 0.02, "tenant-0 share {}", t0 / n);
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn trace_parsing_and_validation() {
        let p = ArrivalProcess::from_trace_str("# demo\n0.5 1\n1.5, 0\n\n2.0\t1\n").expect("parse");
        let rows = p.generate(0, &[1.0, 1.0]).expect("gen");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].tenant, 1);
        assert_eq!(rows[1].at, SimTime::from_nanos(1_500_000_000));

        assert!(ArrivalProcess::from_trace_str("oops 1").is_err());
        assert!(p.generate(0, &[1.0]).is_err(), "tenant 1 out of range");
    }

    #[test]
    fn trace_times_must_be_numbers_in_range() {
        let err = |text: &str| ArrivalProcess::from_trace_str(text).expect_err(text);
        assert_eq!(err("0 0\nnan 0\n"), "line 2: time is not a number");
        assert_eq!(err("-1 0"), "line 1: negative time");
        for text in ["inf 0", "1e300 0", "4611686018.5 0"] {
            assert!(err(text).contains("not below 2^62 ns"), "{text}");
        }
        // Just below the bound still parses.
        let rows = ArrivalProcess::from_trace_str("4611686018 0")
            .expect("below the bound")
            .generate(0, &[1.0])
            .expect("gen");
        assert_eq!(rows[0].at, SimTime::from_nanos(4_611_686_018_000_000_000));
    }

    #[test]
    fn run_seed_zero_is_the_base_seed() {
        assert_eq!(run_seed(0xE0C0_FF88, 0), 0xE0C0_FF88);
        assert_ne!(run_seed(0xE0C0_FF88, 1), 0xE0C0_FF88);
        assert_ne!(run_seed(0xE0C0_FF88, 1), run_seed(0xE0C0_FF88, 2));
    }
}
