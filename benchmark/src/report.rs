//! The metric catalogue and the output format: `name value unit` lines
//! for people, then one JSON line for tools.

use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable dotted name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the simulator sees, from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
];

/// One layer each, from the traced run (`--trace`).
pub const PER_LAYER: &[MetricDef] = &[
    def("simcore.queue.schedule_pop_ns", "ns"),
    def("simcore.queue.cancel_ns", "ns"),
    def("memsim.cache.access_range_ns_per_kb", "ns/KB"),
    def("memsim.copy.copy_ns_per_kb", "ns/KB"),
    def("memsim.dma.issue_ns", "ns"),
    def("netsim.stack.pump_ns_per_mb", "ns/MB"),
    def("netsim.retransmit_ratio", "ratio"),
    def("fabric.build_ms", "ms"),
    def("fabric.route.port_ns", "ns"),
    def("fabric.faults.install_ms", "ms"),
    def("fabric.tail_drops", "count"),
    def("fabric.route_blackholes", "count"),
    def("parsim.round.inline_ns", "ns"),
    def("parsim.round.threads2_ns", "ns"),
    def("parsim.rounds", "count"),
    def("parsim.mean_window_ns", "sim_ns"),
    def("parsim.fabric_event_share", "ratio"),
    def("datacenter.zipf.draw_ns", "ns"),
    def("datacenter.lru.op_ns", "ns"),
    def("datacenter.scale.cell_s", "s"),
    def("datacenter.scale.setup_s", "s"),
    def("datacenter.tps", "1/sim_s"),
    def("datacenter.p99_us", "sim_us"),
    def("datacenter.cache_hit_rate", "ratio"),
    def("datacenter.hedge_ratio", "ratio"),
    def("core.bandwidth.cell_ms", "ms"),
    def("core.bidirectional.cell_ms", "ms"),
    def("core.multistream.cell_ms", "ms"),
    def("core.splitup.cell_ms", "ms"),
    def("pvfs.read.cell_ms", "ms"),
    def("pvfs.write.cell_ms", "ms"),
    def("pvfs.multistream.cell_ms", "ms"),
    def("datacenter.tiers.cell_ms", "ms"),
    def("datacenter.emulated.cell_ms", "ms"),
    def("core.bandwidth.retained_mb", "MB"),
    def("pvfs.read.retained_mb", "MB"),
    def("datacenter.scale.retained_mb", "MB"),
    def("guard.audit_overhead_pct", "%"),
    def("trace.overhead_pct", "%"),
    def("trace.self_sum_pct", "%"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// A number as JSON: shortest round-trip digits, `null` if not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed and every cell succeeded.
    pub correct: bool,
    /// Cell runs attempted (set-up, audited, timed and traced passes).
    pub attempted: u64,
    /// Cell runs that failed.
    pub failed: u64,
    /// The catalogued metrics of this run, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Further readings, printed but not part of the JSON line:
    /// `(name, value, unit)`.
    pub info: Vec<(String, String, &'static str)>,
    /// Explanations: failed cells, broken claims, paper comparisons.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds an informational reading.
    pub fn info(&mut self, name: impl Into<String>, value: impl ToString, unit: &'static str) {
        self.info.push((name.into(), value.to_string(), unit));
    }

    /// The human-readable lines: notes as `#` comments, then every
    /// reading as `name value unit`.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for (name, value, unit) in &self.info {
            let _ = writeln!(out, "{name} {value} {unit}");
        }
        for (name, value) in &self.metrics {
            let unit = unit_of(name).expect("catalogued metric");
            let _ = writeln!(out, "{name} {} {unit}", num(*value));
        }
        out
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("catalogued metric");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.25), ("setup_s", f64::NAN)],
            ..Report::default()
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        assert!(r.text().contains("wall_s 1.25 s\n"));
    }
}
