//! `bench-diff [--aa] A.json B.json` — compare two result files written
//! by `bench --out`. One row per (metric, workload): both medians (A is
//! the base of every ratio), the change signed so that positive is worse,
//! the bound and direction from `BENCHMARK.json`, the run-to-run quartile
//! spreads, and the verdict. Exits non-zero on a regression.
//!
//! `--aa`: A and B are the same commit on the same seeds. Modeled time
//! and program counts must then be exactly equal, and a move beyond a
//! bound in either direction fails.

use std::process::ExitCode;

use perfbench::diff::{compare, declared, fails, values, Verdict};

fn load(path: &str) -> Result<gbtl_util::json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    gbtl_util::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<bool, String> {
    let mut aa = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--aa" => aa = true,
            f if !f.starts_with("--") => files.push(arg),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("usage: bench-diff [--aa] A.json B.json".into());
    };
    let manifest = perfbench::repo_root().join("BENCHMARK.json");
    let decl = declared(&load(&manifest.display().to_string())?)?;
    let rows = compare(&decl, &values(&load(a)?)?, &values(&load(b)?)?, aa);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    println!(
        "{:<13} {:<32} {:>14} {:>14} {:>9} {:>6}  {:<10} spread A / B",
        "workload", "metric", "A (base)", "B", "worse by", "bound", "verdict"
    );
    for r in &rows {
        if r.verdict == Verdict::Info && r.a == r.b {
            continue; // an unchanged per-layer metric: nothing to say
        }
        let unit = decl.get(&r.metric).map_or("", |d| d.unit.as_str());
        println!(
            "{:<13} {:<32} {:>14.4} {:>14.4} {:>+8.1}% {:>6}  {:<10} {:.3} / {:.3}  {unit}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            r.verdict.as_str(),
            r.spreads.0,
            r.spreads.1,
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved, {} differ",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Differs)
    );
    Ok(fails(&rows))
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}
