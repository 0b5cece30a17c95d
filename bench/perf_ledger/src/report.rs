//! What a run reports: named metrics with units, and the tally of
//! operations attempted and failed that decides `correct`.

use std::fmt::Write as _;

/// Operations attempted and how they failed. Anything but a verified
/// output is a failure: a refusal, an error, a time-out, or an output
/// that is missing, short or wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub refused: u64,
    pub errored: u64,
    pub timed_out: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.timed_out + self.wrong
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.errored += other.errored;
        self.timed_out += other.timed_out;
        self.wrong += other.wrong;
    }
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(entry) => *entry = (name.to_owned(), value, unit),
            None => self.entries.push((name.to_owned(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries.iter().find(|e| e.0 == name).map_or(0.0, |e| e.1)
    }

    /// Keeps only `names`, in that order (the set `BENCHMARK.json` lists);
    /// a name never set reads 0: the layer does no work on this workload.
    pub fn select(&self, names: &[(&str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for (name, unit) in names {
            out.set(name, self.get(name), unit);
        }
        out
    }

    pub fn print(&self, heading: &str) {
        println!("# {heading}");
        for (name, value, unit) in &self.entries {
            println!("{name:<34} {value:>16.6} {unit}");
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let mut json = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push('}');
        json
    }
}

/// The last line of standard output: the contract's result object.
pub fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed(),
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_sums_every_kind_of_failure() {
        let mut t = Tally { attempted: 10, refused: 1, ..Tally::default() };
        t.add(&Tally { attempted: 5, errored: 1, timed_out: 1, wrong: 2, ..Tally::default() });
        assert_eq!((t.attempted, t.failed()), (15, 5));
    }

    #[test]
    fn result_line_is_the_contracts_object() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.2034, "ms");
        m.set("setup_s", 0.5, "s");
        m.set("latency_ms", 1.25, "ms");
        m.set("broken", f64::NAN, "s");
        let picked =
            m.select(&[("setup_s", "s"), ("latency_ms", "ms"), ("net.tax_frac", "fraction")]);
        let line = result_line(true, &Tally { attempted: 7, ..Tally::default() }, &picked);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"net.tax_frac\": {\"value\": 0, \"unit\": \"fraction\"}}}"
        );
        assert_eq!(m.get("broken"), 0.0);
    }
}
