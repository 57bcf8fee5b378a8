//! Medians and the JSON lines a run prints.

use serde::{Serialize, Value};

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A JSON object with its keys in the given order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    )
}

/// A value tree as one line of compact JSON; floats keep every digit
/// (`serde_json` writes the shortest string that round-trips).
pub fn json_line(value: Value) -> String {
    struct Tree(Value);
    impl Serialize for Tree {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Tree(value)).expect("a value tree always serializes")
}

/// Named metrics with units, in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics = self
            .0
            .iter()
            .map(|&(name, value, unit)| {
                let entry = object(vec![("value", value.to_value()), ("unit", unit.to_value())]);
                (name, entry)
            })
            .collect();
        json_line(object(vec![
            ("correct", correct.to_value()),
            ("attempted", attempted.to_value()),
            ("failed", failed.to_value()),
            ("metrics", object(metrics)),
        ]))
    }
}
