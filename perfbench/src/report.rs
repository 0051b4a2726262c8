//! The metric catalog, the human-readable report, and the one JSON line
//! the run ends with.

use std::collections::BTreeMap;

use lintra_bench::json::Json;

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("energy_gain", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports in its traced run.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("trace.p50_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("opt.single.ms", "ms"),
    ("opt.multi.ms", "ms"),
    ("opt.asic.ms", "ms"),
    ("opt.egraph.ms", "ms"),
    ("opt.egraph.ellip.ms", "ms"),
    ("opt.egraph.iir5.ms", "ms"),
    ("opt.egraph.iir6.ms", "ms"),
    ("opt.egraph.iir10.ms", "ms"),
    ("opt.egraph.iir12.ms", "ms"),
    ("opt.egraph.steam.ms", "ms"),
    ("opt.egraph.dist.ms", "ms"),
    ("opt.egraph.chemical.ms", "ms"),
    ("tables.ms", "ms"),
    ("opt.coverage", "ratio"),
    ("egraph.search.ms", "ms"),
    ("egraph.match.ms", "ms"),
    ("egraph.apply.ms", "ms"),
    ("egraph.rebuild.ms", "ms"),
    ("egraph.other.ms", "ms"),
    ("egraph.enodes", "count"),
    ("egraph.enodes_over_cap", "count"),
    ("egraph.budget_stops", "count"),
    ("matrix.mults", "count"),
    ("matrix.allocs_saved", "count"),
    ("linsys.unfold.us", "us"),
    ("transform.horner.us", "us"),
    ("transform.mcm.us", "us"),
    ("sched.list.us", "us"),
    ("power.voltage.us", "us"),
    ("serve.ping_fresh.ms", "ms"),
    ("serve.ping_reused.ms", "ms"),
    ("serve.connect.ms", "ms"),
    ("router.ping_fresh.ms", "ms"),
    ("router.hop.ms", "ms"),
    ("wire.parse.us", "us"),
    ("wire.render.us", "us"),
    ("journal.append.p50_ms", "ms"),
    ("journal.append.p99_ms", "ms"),
    ("exec.ms", "ms"),
    ("serve.overhead.ms", "ms"),
    ("serve.connections_per_request", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.dedup_hit_ratio", "ratio"),
    ("router.retry_ratio", "ratio"),
    ("router.hedge_ratio", "ratio"),
    ("router.hedge_win_ratio", "ratio"),
    ("replicate.lag_records.max", "count"),
    ("replicate.catchup_ms", "ms"),
    ("engine.cache.hit_rate", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("loadgen.late_ms.p99", "ms"),
];

/// One measured value with the note the report prints beside it
/// (sample count, which percentile, where it came from).
#[derive(Debug, Clone)]
pub struct Value {
    /// The number, as measured.
    pub value: f64,
    /// Free-form detail for the human-readable report.
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the final JSON line, by name.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Extra lines for the human-readable report only.
    pub lines: Vec<String>,
    /// Requests (or passes) attempted.
    pub attempted: u64,
    /// Requests (or passes) that failed.
    pub failed: u64,
    /// Output-check failures; any one makes the run fail.
    pub check_failures: Vec<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Report {
    /// Records a metric from the catalog.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        debug_assert!(unit_of(name).is_some(), "{name} is not in the catalog");
        self.metrics.insert(
            name,
            Value {
                value,
                note: note.into(),
            },
        );
    }

    /// Adds a report-only line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// Prints the report and the final JSON line with exactly the
    /// catalog's metrics for this mode; returns whether the run passed.
    /// A catalog metric that was not measured, or is not finite, fails
    /// the run.
    pub fn finish(mut self, workload: &str, traced: bool, baseline: &Json) -> bool {
        let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (name, _) in catalog {
            match self.metrics.get(name) {
                None => self
                    .check_failures
                    .push(format!("metric {name} was not measured")),
                Some(v) if !v.value.is_finite() => self
                    .check_failures
                    .push(format!("metric {name} is not finite ({})", v.value)),
                Some(_) => {}
            }
        }
        let correct = self.check_failures.is_empty() && self.attempted > 0;
        println!(
            "workload {workload} ({})",
            if traced { "traced" } else { "untraced" }
        );
        for line in &self.lines {
            println!("  {line}");
        }
        println!(
            "  {:<34} {:>14} {:<6} seed baseline: median [q1, q3]",
            "metric", "value", "unit"
        );
        let mut json = BTreeMap::new();
        for (name, unit) in catalog {
            let Some(v) = self.metrics.get(name) else {
                continue;
            };
            let base = baseline
                .get(workload)
                .and_then(|w| w.get(name))
                .map_or_else(String::new, |b| {
                    let num = |k| b.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
                    format!("{:.4} [{:.4}, {:.4}]", num("median"), num("q1"), num("q3"))
                });
            println!(
                "  {name:<34} {:>14.4} {unit:<6} {base}  {}",
                v.value, v.note
            );
            json.insert(
                (*name).to_string(),
                Json::obj([
                    ("value", Json::Num(v.value)),
                    ("unit", Json::Str((*unit).to_string())),
                ]),
            );
        }
        for f in &self.check_failures {
            println!("  CHECK FAILED: {f}");
        }
        let line = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(json)),
        ]);
        println!("{}", line.render_compact());
        correct
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn the_catalog_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
