//! Experiment reports: Table-1 rendering and machine-readable emitters.

use faaspipe_des::Money;
use faaspipe_json::ToJson;

use crate::pipeline::PipelineOutcome;

/// One row of a Table-1-style report.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration name.
    pub configuration: String,
    /// End-to-end latency in seconds.
    pub latency_s: f64,
    /// Total cost in dollars.
    pub cost_dollars: f64,
    /// Whether outputs were verified.
    pub verified: bool,
}

faaspipe_json::json_object! {
    Table1Row { req configuration, req latency_s, req cost_dollars, req verified }
}

impl Table1Row {
    /// Builds a row from a pipeline outcome.
    pub fn from_outcome(outcome: &PipelineOutcome) -> Table1Row {
        let (configuration, latency_s, cost) = outcome.table1_row();
        Table1Row {
            configuration,
            latency_s,
            cost_dollars: cost.as_dollars(),
            verified: outcome.verified,
        }
    }
}

/// Renders rows as the paper's Table 1 (markdown-ish).
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("| Configuration        | Latency (s) | Cost ($) |\n");
    out.push_str("|----------------------|-------------|----------|\n");
    for r in rows {
        out.push_str(&format!(
            "| {:<20} | {:>11.2} | {:>8.4} |\n",
            r.configuration, r.latency_s, r.cost_dollars
        ));
    }
    out
}

/// Renders any serializable result set as a JSON document (for the
/// bench harness to archive).
pub fn to_json<T: ToJson + ?Sized>(value: &T) -> String {
    faaspipe_json::to_string_pretty(value)
}

/// Formats a money value for tables.
pub fn dollars(m: Money) -> String {
    format!("{:.4}", m.as_dollars())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_both_rows() {
        let rows = vec![
            Table1Row {
                configuration: "\"Purely\" serverless".into(),
                latency_s: 83.32,
                cost_dollars: 0.008,
                verified: true,
            },
            Table1Row {
                configuration: "VM-supported".into(),
                latency_s: 142.77,
                cost_dollars: 0.010,
                verified: true,
            },
        ];
        let table = render_table1(&rows);
        assert!(table.contains("83.32"));
        assert!(table.contains("142.77"));
        assert!(table.contains("0.0080"));
        assert!(table.lines().count() == 4);
    }

    #[test]
    fn json_emits() {
        let rows = vec![Table1Row {
            configuration: "x".into(),
            latency_s: 1.0,
            cost_dollars: 0.5,
            verified: false,
        }];
        let json = to_json(&rows);
        assert!(json.contains("\"latency_s\": 1.0"));
    }

    #[test]
    fn dollars_formats() {
        assert_eq!(dollars(Money::from_dollars(0.0123456)), "0.0123");
    }
}
