//! Counter timeseries sampled on change.
//!
//! Counters capture scalar state over virtual time — aggregate store
//! bandwidth in use, in-flight flows, warm/cold container pool sizes,
//! queued invocations. A point is recorded only when the value actually
//! changes; several updates at the same instant coalesce into the final
//! value, so a series is a minimal step function.

use faaspipe_des::SimTime;

/// How a counter's updates combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// `set` semantics: each sample replaces the value.
    Gauge,
    /// `add` semantics: deltas accumulate (starting from zero).
    Cumulative,
}

impl CounterKind {
    /// Stable name used in the CSV dump.
    pub fn as_str(self) -> &'static str {
        match self {
            CounterKind::Gauge => "gauge",
            CounterKind::Cumulative => "cumulative",
        }
    }
}

/// One counter's recorded step function.
#[derive(Debug, Clone)]
pub struct CounterSeries {
    /// Counter name (e.g. `"store.bandwidth_in_use"`).
    pub name: String,
    /// Gauge or cumulative.
    pub kind: CounterKind,
    /// `(time, value)` points; strictly increasing times, no two
    /// consecutive points share a value.
    pub points: Vec<(SimTime, f64)>,
}

impl CounterSeries {
    pub(crate) fn new(name: &str, kind: CounterKind) -> CounterSeries {
        CounterSeries {
            name: name.to_string(),
            kind,
            points: Vec::new(),
        }
    }

    /// Latest recorded value (0.0 before the first sample).
    pub fn last_value(&self) -> f64 {
        self.points.last().map(|&(_, v)| v).unwrap_or(0.0)
    }

    /// The maximum value the counter ever held.
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    pub(crate) fn record(&mut self, at: SimTime, value: f64) {
        match self.points.last_mut() {
            Some((t, v)) if *t == at => {
                // Same-instant updates coalesce to the final value.
                *v = value;
                // Collapse if this made the point redundant.
                if self.points.len() >= 2 && self.points[self.points.len() - 2].1 == value {
                    self.points.pop();
                }
            }
            Some((_, v)) if *v == value => {} // unchanged: skip
            _ => self.points.push((at, value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    #[test]
    fn samples_only_on_change() {
        let mut c = CounterSeries::new("x", CounterKind::Gauge);
        c.record(t(1), 1.0);
        c.record(t(2), 1.0);
        c.record(t(3), 2.0);
        assert_eq!(c.points, vec![(t(1), 1.0), (t(3), 2.0)]);
        assert_eq!(c.max_value(), 2.0);
    }

    #[test]
    fn same_instant_updates_coalesce() {
        let mut c = CounterSeries::new("x", CounterKind::Gauge);
        c.record(t(1), 1.0);
        c.record(t(2), 5.0);
        c.record(t(2), 1.0); // back to previous value at the same instant
        assert_eq!(c.points, vec![(t(1), 1.0)]);
    }
}
