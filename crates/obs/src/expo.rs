//! Exposition: rendering a [`Snapshot`] as Prometheus text or compact
//! JSON, and parsing the JSON form back.
//!
//! The text format follows the Prometheus 0.0.4 conventions: `# HELP` /
//! `# TYPE` headers per family, label sets in `{k="v"}` form, and
//! histograms expanded into cumulative `_bucket{le="..."}` series plus
//! `_sum` / `_count`. Bucket bounds are this crate's power-of-two edges.
//! Families render in name order, so output is deterministic — which is
//! what makes the golden-file test possible.

use std::fmt::Write as _;

use crate::registry::{MetricKind, Snapshot};
use cpvr_types::json::JsonError;

/// Escapes a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(&v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn header(out: &mut String, emitted: &mut Vec<String>, s: &Snapshot, name: &str, kind: MetricKind) {
    if emitted.iter().any(|n| n == name) {
        return;
    }
    emitted.push(name.to_string());
    if let Some((_, help)) = s.help.iter().find(|(n, _)| n == name) {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
}

/// Renders the snapshot in the Prometheus text exposition format.
pub fn render_prometheus(s: &Snapshot) -> String {
    let mut out = String::new();
    let mut emitted: Vec<String> = Vec::new();
    for c in &s.counters {
        header(&mut out, &mut emitted, s, &c.name, MetricKind::Counter);
        let _ = writeln!(
            out,
            "{}{} {}",
            c.name,
            label_block(&c.labels, None),
            c.value
        );
    }
    for g in &s.gauges {
        header(&mut out, &mut emitted, s, &g.name, MetricKind::Gauge);
        let _ = writeln!(
            out,
            "{}{} {}",
            g.name,
            label_block(&g.labels, None),
            g.value
        );
    }
    for h in &s.histograms {
        header(&mut out, &mut emitted, s, &h.name, MetricKind::Histogram);
        let mut cum = 0u64;
        for &(upper, count) in &h.buckets {
            cum += count;
            let _ = writeln!(
                out,
                "{}_bucket{} {cum}",
                h.name,
                label_block(&h.labels, Some(("le", upper.to_string())))
            );
        }
        let _ = writeln!(
            out,
            "{}_bucket{} {cum}",
            h.name,
            label_block(&h.labels, Some(("le", "+Inf".to_string())))
        );
        let _ = writeln!(
            out,
            "{}_sum{} {}",
            h.name,
            label_block(&h.labels, None),
            h.sum
        );
        let _ = writeln!(
            out,
            "{}_count{} {}",
            h.name,
            label_block(&h.labels, None),
            h.count
        );
    }
    out
}

/// Renders the snapshot as one compact-JSON document (the `MetricsResp`
/// payload for [`crate::ExpoFormat::Json`]).
pub(crate) fn render_json(s: &Snapshot) -> String {
    s.to_json_string()
}

/// Parses a snapshot back out of `render_json` output.
pub fn parse_json(s: &str) -> Result<Snapshot, JsonError> {
    Snapshot::from_json_str(s)
}

/// The wire encoding a `MetricsReq` asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpoFormat {
    /// Compact JSON (machine-readable, round-trips through
    /// [`parse_json`]).
    Json,
    /// Prometheus text format (scrape-friendly).
    Prometheus,
}

impl ExpoFormat {
    /// The single-byte wire tag.
    pub fn as_byte(self) -> u8 {
        match self {
            ExpoFormat::Json => 0,
            ExpoFormat::Prometheus => 1,
        }
    }

    /// Decodes the wire tag.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ExpoFormat::Json),
            1 => Some(ExpoFormat::Prometheus),
            _ => None,
        }
    }

    /// Renders `s` in this format.
    pub fn render(self, s: &Snapshot) -> String {
        match self {
            ExpoFormat::Json => render_json(s),
            ExpoFormat::Prometheus => render_prometheus(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn prometheus_escapes_labels() {
        let r = MetricsRegistry::new();
        r.counter_with("c", "test", &[("path", "a\"b\\c\nd")]).inc();
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains(r#"c{path="a\"b\\c\nd"} 1"#), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat", "test");
        h.observe(1);
        h.observe(3);
        h.observe(3);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("lat_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_sum 7"), "{text}");
        assert!(text.contains("lat_count 3"), "{text}");
    }
}
