//! The result: named metrics with units, printed as the last line of
//! standard output.

use std::fmt::Write as _;

/// Metrics of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name, value, unit)),
        }
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.0
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
/// Non-finite values are written as 0 and make the result incorrect.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let finite = metrics.entries().iter().all(|(_, v, _)| v.is_finite());
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, (name, value, unit)) in metrics.entries().iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("latency_p50_s", 0.25, "s");
        m.set("setup_s", 1.5, "s");
        m.set("setup_s", 1.75, "s");
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_p50_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 1.75, \"unit\": \"s\"}}}"
        );
        m.set("bad", f64::NAN, "s");
        assert!(result_line(true, 1, 0, &m).starts_with("{\"correct\": false"));
    }
}
