//! Sample statistics and metric naming rules.

use faaspipe_json::Json;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method). A single sample is its own quartiles; `None` when empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// The percentiles a timing may report beyond its median, highest
/// first, in tenths of a percent.
const PERCENTILE_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the percentile `permille`/10 among `n`.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000)
}

/// The highest percentile of [`PERCENTILE_LADDER`] (in tenths of a
/// percent) with at least [`MIN_BEYOND`] of `n` samples above its rank.
pub fn reportable_percentile(n: usize) -> Option<usize> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|&pm| n - rank(n, pm) >= MIN_BEYOND)
}

/// The nearest-rank percentile `permille`/10 of `xs` (`None` when
/// empty).
pub fn percentile(xs: &[f64], permille: usize) -> Option<f64> {
    let v = sorted(xs);
    let r = rank(v.len(), permille).max(1);
    v.get(r - 1).copied()
}

/// `p99.9`, `p99`, ... for a percentile in tenths of a percent.
pub fn percentile_label(permille: usize) -> String {
    format!("p{}", permille as f64 / 10.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One named metric's samples with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (checked by [`valid_name`]).
    pub name: &'static str,
    /// Unit, e.g. `s`, `1/s`, `MiB`, `count`.
    pub unit: &'static str,
    /// Every per-run sample, in measurement order.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric with the given samples.
    ///
    /// # Panics
    /// Panics on an invalid name: names are compile-time constants, so a
    /// bad one is a bug in this benchmark.
    pub fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        Metric {
            name,
            unit,
            samples,
        }
    }

    /// The reported value: the median of the samples (0 when none).
    pub fn value(&self) -> f64 {
        median(&self.samples).unwrap_or(0.0)
    }

    /// `{"value", "unit"}` as the result line carries it.
    pub fn to_value_json(&self) -> Json {
        Json::Object(vec![
            ("value".into(), Json::Float(self.value())),
            ("unit".into(), Json::Str(self.unit.into())),
        ])
    }

    /// Median, sample count, quartiles, the reportable percentile (if
    /// any) and every raw sample.
    pub fn to_summary_json(&self) -> Json {
        let mut fields = vec![
            ("unit".into(), Json::Str(self.unit.into())),
            ("median".into(), Json::Float(self.value())),
            ("n".into(), Json::UInt(self.samples.len() as u64)),
        ];
        if let Some([q1, _, q3]) = quartiles(&self.samples) {
            fields.push(("q1".into(), Json::Float(q1)));
            fields.push(("q3".into(), Json::Float(q3)));
        }
        if let Some(pm) = reportable_percentile(self.samples.len()) {
            let v = percentile(&self.samples, pm).unwrap_or(0.0);
            fields.push((percentile_label(pm), Json::Float(v)));
        }
        fields.push((
            "samples".into(),
            Json::Array(self.samples.iter().map(|&x| Json::Float(x)).collect()),
        ));
        Json::Object(fields)
    }

    /// One human-readable line: name, median, unit, count, percentile.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{:<28} {:>14.6} {:<6} n={}",
            self.name,
            self.value(),
            self.unit,
            self.samples.len()
        );
        if let Some(pm) = reportable_percentile(self.samples.len()) {
            let v = percentile(&self.samples, pm).unwrap_or(0.0);
            line.push_str(&format!(" {}={v:.6}", percentile_label(pm)));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_percentile(0), None);
        assert_eq!(reportable_percentile(39), None);
        assert_eq!(reportable_percentile(40), Some(750));
        assert_eq!(reportable_percentile(100), Some(900));
        assert_eq!(reportable_percentile(199), Some(900));
        assert_eq!(reportable_percentile(200), Some(950));
        assert_eq!(reportable_percentile(1000), Some(990));
        assert_eq!(reportable_percentile(10_000), Some(999));
        for n in 0..20_000 {
            if let Some(pm) = reportable_percentile(n) {
                assert!(n - rank(n, pm) >= MIN_BEYOND, "n={n} p={pm}");
            }
        }
        assert_eq!(percentile_label(999), "p99.9");
        assert_eq!(percentile_label(990), "p99");
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), Some(90.0));
        assert_eq!(percentile(&xs, 750), Some(75.0));
        assert_eq!(percentile(&xs, 0), Some(1.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "run_s",
            "des.us_per_event",
            "t1_pure_cost_err_pct",
            "a-b.c_9",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metric_rejects_an_invalid_name() {
        Metric::new("bad name", "s", vec![1.0]);
    }

    #[test]
    fn metric_reports_the_median() {
        let m = Metric::new("run_s", "s", vec![3.0, 1.0, 2.0]);
        assert_eq!(m.value(), 2.0);
        let j = m.to_value_json();
        assert_eq!(j.get("unit").and_then(Json::as_str), Some("s"));
    }
}
