//! Comparing two result files (`bench --out`): one row per (metric,
//! workload), judged against the bound and direction `BENCHMARK.json`
//! declares. Every ratio is printed with its base.

use std::collections::BTreeMap;

use gbtl_util::json::Value;

use crate::stats::{median, spread};

/// Metrics that must repeat exactly between two runs of one commit on one
/// seed: modeled device time and the counts the program makes.
pub const EXACT: [&str; 8] = [
    "cuda_model_ms",
    "gpu-sim.kernel_launches",
    "gpu-sim.mem_txns",
    "gpu-sim.h2d_bytes",
    "gpu-sim.d2h_bytes",
    "algorithms.bfs_levels",
    "algorithms.sssp_rounds",
    "algorithms.pagerank_iters",
];

/// How far two readings of `cuda_model_ms` may sit apart and still count as
/// equal, ms: a server states its device clock in whole microseconds
/// (`stats` prints `modeled_ms` to three decimals), so a round's delta read
/// over the wire is exact only to one unit either side. Counts get no slack.
pub const MODEL_MS_RESOLUTION: f64 = 0.002;

/// How a pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Run-to-run quartile spread wider than the bound: cannot tell.
    Unresolved,
    /// An exact metric differs.
    Differs,
    /// A per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    /// Row label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "",
        }
    }
}

/// A declared metric as `BENCHMARK.json` states it.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_better: bool,
    /// Bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Read names, directions and bounds out of a parsed `BENCHMARK.json`.
pub fn declared(manifest: &Value) -> Result<BTreeMap<String, Declared>, String> {
    let mut out = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = manifest
            .get(section)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks {section}"))?;
        for m in list {
            let name = m.str_field("name").ok_or("metric without a name")?;
            out.insert(
                name.to_string(),
                Declared {
                    unit: m.str_field("unit").unwrap_or_default().to_string(),
                    higher_better: m.str_field("better") == Some("higher"),
                    bound: if bounded { m.f64_field("bound") } else { None },
                },
            );
        }
    }
    Ok(out)
}

/// `(workload, metric) → one value per run`, end-to-end and traced runs
/// alike, from a parsed result file.
pub fn values(result: &Value) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let runs = result
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("result file lacks \"runs\"")?;
    for run in runs {
        let workload = run.str_field("workload").ok_or("run without a workload")?;
        let Some(Value::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("run of {workload} lacks result.metrics"));
        };
        for (name, m) in metrics {
            if let Some(v) = m.f64_field("value") {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// One compared pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Median of A's runs (the base of every ratio in the row).
    pub a: f64,
    /// Median of B's runs.
    pub b: f64,
    /// B's change over A as a share of A, signed so that positive is
    /// *worse* in the metric's declared direction.
    pub worse_by: f64,
    /// Quartile spread of A's and B's runs (0 with a single run).
    pub spreads: (f64, f64),
    /// The bound, when the metric has one.
    pub bound: Option<f64>,
    /// Judgement.
    pub verdict: Verdict,
}

/// Compare every pair both files have. `aa` = the two files are the same
/// commit on the same seeds: exact metrics must be equal, and a move
/// beyond the bound in *either* direction is a failure.
pub fn compare(
    decl: &BTreeMap<String, Declared>,
    a: &BTreeMap<(String, String), Vec<f64>>,
    b: &BTreeMap<(String, String), Vec<f64>>,
    aa: bool,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), va) in a {
        let (Some(vb), Some(d)) = (b.get(&(workload.clone(), metric.clone())), decl.get(metric))
        else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
        let worse_by = if d.higher_better { -change } else { change };
        let spreads = (spread(va), spread(vb));
        let exact = EXACT.contains(&metric.as_str());
        let verdict = match d.bound {
            _ if aa && exact => {
                let slack = if metric == "cuda_model_ms" {
                    MODEL_MS_RESOLUTION
                } else {
                    0.0
                };
                if (ma - mb).abs() <= slack {
                    Verdict::Unchanged
                } else {
                    Verdict::Differs
                }
            }
            None => Verdict::Info,
            Some(bound) if spreads.0 > bound || spreads.1 > bound => Verdict::Unresolved,
            Some(bound) if worse_by > bound => Verdict::Regressed,
            Some(bound) if worse_by < -bound => {
                if aa {
                    Verdict::Differs
                } else {
                    Verdict::Improved
                }
            }
            Some(_) => Verdict::Unchanged,
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: ma,
            b: mb,
            worse_by,
            spreads,
            bound: d.bound,
            verdict,
        });
    }
    rows
}

/// Whether the comparison fails the gate.
pub fn fails(rows: &[Row]) -> bool {
    rows.iter()
        .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Differs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl() -> BTreeMap<String, Declared> {
        declared(&gbtl_util::json::parse(&crate::catalogue::manifest_json()).unwrap()).unwrap()
    }

    fn file(qps: &[f64], model: f64, launches: f64) -> BTreeMap<(String, String), Vec<f64>> {
        let runs: Vec<String> = qps
            .iter()
            .map(|q| {
                format!(
                    "{{\"workload\":\"w\",\"trace\":false,\"result\":{{\"metrics\":{{\
                     \"qps\":{{\"value\":{q},\"unit\":\"1/s\"}},\
                     \"cuda_model_ms\":{{\"value\":{model},\"unit\":\"ms\"}},\
                     \"gpu-sim.kernel_launches\":{{\"value\":{launches},\"unit\":\"count\"}}}}}}}}"
                )
            })
            .collect();
        let doc = format!("{{\"runs\":[{}]}}", runs.join(","));
        values(&gbtl_util::json::parse(&doc).unwrap()).unwrap()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn direction_bound_and_spread_decide_the_verdict() {
        let d = decl();
        let base = file(&[100.0, 101.0, 99.0], 5.0, 7.0);
        // qps is higher-better with a 25 % bound
        let rows = compare(&d, &base, &file(&[70.0, 71.0, 69.0], 5.0, 7.0), false);
        assert_eq!(verdict(&rows, "qps"), Verdict::Regressed);
        assert!(fails(&rows));
        let rows = compare(&d, &base, &file(&[140.0, 141.0, 139.0], 5.0, 7.0), false);
        assert_eq!(verdict(&rows, "qps"), Verdict::Improved);
        assert!(!fails(&rows));
        let rows = compare(&d, &base, &file(&[95.0, 96.0, 94.0], 5.0, 7.0), false);
        assert_eq!(verdict(&rows, "qps"), Verdict::Unchanged);
        // a spread wider than the bound cannot be called either way
        let rows = compare(
            &d,
            &base,
            &file(&[60.0, 100.0, 140.0, 180.0], 5.0, 7.0),
            false,
        );
        assert_eq!(verdict(&rows, "qps"), Verdict::Unresolved);
        // per-layer metrics are reported, not judged
        assert_eq!(verdict(&rows, "gpu-sim.kernel_launches"), Verdict::Info);
        let row = rows.iter().find(|r| r.metric == "qps").unwrap();
        assert_eq!((row.a, row.bound), (100.0, Some(0.25)));
    }

    #[test]
    fn an_aa_pair_must_agree_exactly_on_counts_and_within_bounds_elsewhere() {
        let d = decl();
        let base = file(&[100.0], 5.0, 7.0);
        assert!(!fails(&compare(&d, &base, &file(&[104.0], 5.0, 7.0), true)));
        let rows = compare(&d, &base, &file(&[100.0], 5.0, 8.0), true);
        assert_eq!(verdict(&rows, "gpu-sim.kernel_launches"), Verdict::Differs);
        let rows = compare(&d, &base, &file(&[100.0], 5.003, 7.0), true);
        assert_eq!(verdict(&rows, "cuda_model_ms"), Verdict::Differs);
        // one microsecond is the wire's own resolution, not a difference
        let rows = compare(&d, &base, &file(&[100.0], 5.001, 7.0), true);
        assert_eq!(verdict(&rows, "cuda_model_ms"), Verdict::Unchanged);
        // the same commit "improving" by more than the bound is a failure too
        let rows = compare(&d, &base, &file(&[140.0], 5.0, 7.0), true);
        assert_eq!(verdict(&rows, "qps"), Verdict::Differs);
    }
}
