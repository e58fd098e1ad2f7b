//! The result line and the small statistics both modes share.

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (lifecycles driven).
    pub attempted: u64,
    /// Operations in passes that failed an output check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a checked pass of `ops` lifecycles; a failed check counts
    /// every one of them as failed.
    pub fn check(&mut self, ops: u64, result: Result<(), String>) {
        self.attempted += ops;
        if let Err(why) = result {
            eprintln!("perfbench: check failed: {why}");
            self.failed += ops;
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result as one JSON object.
    ///
    /// # Errors
    ///
    /// Fails if a metric is not a finite number.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is {}", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The nearest-rank `q` quantile (`0 < q <= 1`) of sorted `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
