//! Tagged sweep results with lookup, table, and CSV helpers.

use chopim_core::SimReport;

use crate::scenario::ScenarioSpec;

/// One executed point: the spec and what it produced.
#[derive(Debug, Clone)]
pub struct SweepPoint<R> {
    pub spec: ScenarioSpec,
    pub result: R,
}

/// All points of one sweep, in grid order.
#[derive(Debug, Clone)]
pub struct SweepResult<R> {
    pub points: Vec<SweepPoint<R>>,
}

/// Named scalar metrics extracted from a result, for CSV emit.
pub trait Metrics {
    fn metrics(&self) -> Vec<(&'static str, f64)>;
}

impl Metrics for SimReport {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("cycles", self.cycles as f64),
            ("host_ipc", self.host_ipc),
            ("host_bw_gbs", self.host_bw_gbs),
            ("core_bw_gbs", self.core_bw_gbs),
            ("nda_bw_gbs", self.nda_bw_gbs),
            ("nda_bw_utilization", self.nda_bw_utilization),
            ("host_row_hit_rate", self.host_row_hit_rate),
            ("avg_read_latency", self.avg_read_latency),
            ("avg_power_w", self.energy.avg_power_w()),
            ("nda_power_w", self.energy.nda_power_w()),
            ("nda_instrs_completed", self.nda_instrs_completed as f64),
        ]
    }
}

impl<R> SweepResult<R> {
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &SweepPoint<R>> {
        self.points.iter()
    }

    /// Distinct value labels of axis `name`, in first-seen (grid) order.
    pub fn tag_values(&self, name: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if let Some(v) = p.spec.tag(name) {
                if !out.iter().any(|seen| seen == v) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }

    /// All points whose tags match every `(axis, label)` filter.
    pub fn select(&self, filters: &[(&str, &str)]) -> Vec<&SweepPoint<R>> {
        self.points
            .iter()
            .filter(|p| filters.iter().all(|(k, v)| p.spec.tag(k) == Some(v)))
            .collect()
    }

    /// The unique point matching the filters; panics on zero or many, so
    /// figure tables fail loudly when a sweep axis changes shape.
    pub fn get(&self, filters: &[(&str, &str)]) -> &SweepPoint<R> {
        let hits = self.select(filters);
        match hits.len() {
            1 => hits[0],
            0 => panic!("no sweep point matches {filters:?}"),
            n => panic!("{n} sweep points match {filters:?}; expected exactly one"),
        }
    }
}

impl<R: Metrics> SweepResult<R> {
    /// CSV: one row per point, axis columns then metric columns.
    pub fn to_csv(&self) -> String {
        let Some(first) = self.points.first() else {
            return String::new();
        };
        let axes: Vec<&str> = first.spec.tags.iter().map(|(k, _)| k.as_str()).collect();
        let metric_names: Vec<&str> = first.result.metrics().iter().map(|(k, _)| *k).collect();
        let mut out = String::new();
        for (i, a) in axes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&csv_escape(a));
        }
        for m in &metric_names {
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(&csv_escape(m));
        }
        out.push('\n');
        for p in &self.points {
            let mut cells: Vec<String> = p.spec.tags.iter().map(|(_, v)| csv_escape(v)).collect();
            for (_, v) in p.result.metrics() {
                cells.push(format_metric(v));
            }
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// CSV-encode an arbitrary header + rows table. For sweeps whose results
/// don't reduce to [`Metrics`] (e.g. optimizer traces), where the caller
/// shapes its own rows.
pub fn rows_to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|h| csv_escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in rows {
        out.push_str(
            &r.iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

fn format_metric(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{labeled, SweepBuilder};
    use crate::runner::SweepRunner;
    use crate::scenario::ScenarioSpec;

    struct Fake(f64);

    impl Metrics for Fake {
        fn metrics(&self) -> Vec<(&'static str, f64)> {
            vec![("value", self.0), ("twice", self.0 * 2.0)]
        }
    }

    fn fake_sweep() -> SweepResult<Fake> {
        let specs = SweepBuilder::new(ScenarioSpec::with_window(1))
            .axis("a", labeled([1u64, 2]), |s, &v| s.window = v)
            .axis("b", [("x", 0u64), ("y", 1)], |_, _| {})
            .build();
        SweepRunner::serial().run(&specs, |s| Fake(s.window as f64))
    }

    #[test]
    fn lookup_by_tags() {
        let r = fake_sweep();
        assert_eq!(r.len(), 4);
        assert_eq!(r.tag_values("b"), vec!["x", "y"]);
        assert_eq!(r.get(&[("a", "2"), ("b", "y")]).result.0, 2.0);
        assert_eq!(r.select(&[("a", "1")]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "no sweep point")]
    fn get_panics_on_miss() {
        fake_sweep().get(&[("a", "9")]);
    }

    #[test]
    fn csv_shape() {
        let csv = fake_sweep().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("a,b,value,twice"));
        assert_eq!(lines.next(), Some("1,x,1,2"));
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
