//! `bench` — run the benchmark.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1      one run (the driver's form)
//! bench [--workload NAME]... [--seed N] [--seconds S] [--pass e2e|traced|both]
//!       [--repeat K] [--smoke] [--out FILE]                    the suite: every metric
//! bench --trace                                                the suite's traced pass only
//! bench --smoke                                                all five, tiny, under 20 s
//! bench manifest                                               print BENCHMARK.json
//! ```
//!
//! One run prints every metric by name and unit and, as its last line,
//! the JSON object the driver reads. The suite runs each workload in a
//! child process of its own (fresh allocator, its own peak RSS), prints
//! the children's output, and writes `perfbench/out/result.json` for
//! `bench-diff`.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::catalogue::{manifest_json, RUN_SECONDS, WORKLOADS};
use perfbench::run::RunConfig;
use perfbench::runner::{print_metrics, run, Extra};

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `--trace 0|1`: the single-run form.
    trace: Option<bool>,
    pass: String,
    repeat: usize,
    smoke: bool,
    out: Option<PathBuf>,
    extra: Extra,
}

const USAGE: &str = "usage: bench --workload NAME --seed N --seconds S --trace 0|1\n       \
bench [--workload NAME]... [--seed N] [--seconds S] [--pass e2e|traced|both] [--repeat K] \
[--smoke] [--out FILE]\n       bench manifest";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: None,
        pass: "both".into(),
        repeat: 1,
        smoke: false,
        out: None,
        extra: Extra::default(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workloads.push(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside [0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--pass" => a.pass = value("e2e|traced|both")?,
            "--out" => a.out = Some(value("a path")?.into()),
            "--snap-dir" => a.extra.snap_dir = Some(value("a path")?.into()),
            "--smoke" => a.smoke = true,
            "--setup-only" => a.extra.setup_only = true,
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") => {
                    a.trace = Some(false);
                    it.next();
                }
                Some("1") => {
                    a.trace = Some(true);
                    it.next();
                }
                // bare `--trace`: the suite's traced pass
                _ => a.pass = "traced".into(),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !matches!(a.pass.as_str(), "e2e" | "traced" | "both") {
        return Err(format!("--pass {:?}: expected e2e|traced|both", a.pass));
    }
    for w in &a.workloads {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {w:?} (expected one of {names:?})"
            ));
        }
    }
    Ok(a)
}

/// One workload, in this process: the driver's form.
fn single(args: &Args, trace: bool) -> ExitCode {
    let name = &args.workloads[0];
    let cfg = RunConfig {
        seed: args.seed,
        seconds: if args.smoke {
            0.0
        } else {
            args.seconds.unwrap_or(RUN_SECONDS as f64)
        },
        trace,
        smoke: args.smoke,
    };
    match run(name, &cfg, &args.extra) {
        Ok(outcome) if args.extra.setup_only => {
            println!("{}", outcome.detail); // {"setup_s":…}, for the parent
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            print_metrics(name, &cfg, &outcome);
            println!("#detail {}", outcome.detail);
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every selected workload and pass, each run a child process; collects
/// their result lines into one file.
fn suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<String> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.0.to_string()).collect()
    } else {
        args.workloads.clone()
    };
    let passes: &[bool] = match args.pass.as_str() {
        "e2e" => &[false],
        "traced" => &[true],
        _ => &[false, true],
    };
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let mut entries = Vec::new();
    let mut all_ok = true;
    for &trace in passes {
        for rep in 0..args.repeat.max(1) {
            for name in &workloads {
                let seed = args.seed + rep as u64;
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit());
                if args.smoke {
                    cmd.arg("--smoke");
                }
                // `output` waits for the child to end
                let out = match cmd.output() {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("bench: cannot start {name}: {e}");
                        all_ok = false;
                        continue;
                    }
                };
                let text = String::from_utf8_lossy(&out.stdout);
                let mut detail = "null".to_string();
                let mut result = None;
                for line in text.lines() {
                    if let Some(d) = line.strip_prefix("#detail ") {
                        detail = d.to_string();
                    } else if line.starts_with("{\"correct\":") {
                        result = Some(line.to_string());
                    } else {
                        println!("{line}");
                    }
                }
                match result {
                    Some(r) if out.status.success() => entries.push(format!(
                        "{{\"workload\":\"{name}\",\"trace\":{trace},\"seed\":{seed},\
                         \"result\":{r},\"detail\":{detail}}}"
                    )),
                    _ => {
                        eprintln!("bench: {name} (trace {trace}) failed: {}", out.status);
                        all_ok = false;
                    }
                }
            }
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| perfbench::out_dir().join("result.json"));
    let doc = format!(
        "{{\"env\":{},\"seconds\":{seconds},\"smoke\":{},\"runs\":[\n{}\n]}}\n",
        perfbench::host::env_json(args.seed),
        args.smoke,
        entries.join(",\n")
    );
    match std::fs::write(&path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("bench: write {}: {e}", path.display());
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("manifest") {
        print!("{}", manifest_json());
        return ExitCode::SUCCESS;
    }
    // one CPU for everything this process starts (see `pin_to_one_cpu`)
    if perfbench::host::pin_to_one_cpu().is_none() {
        eprintln!("bench: could not pin to one CPU; thread placement will add run-to-run spread");
    }
    perfbench::host::keep_freed_memory();
    // the program under test reads GBTL_* knobs; a run must not depend on
    // whatever the caller's shell happens to export
    let inherited: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GBTL_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.trace, args.workloads.len()) {
        (Some(trace), 1) => single(&args, trace),
        (Some(_), _) => {
            eprintln!("bench: --trace 0|1 runs exactly one --workload\n{USAGE}");
            ExitCode::from(2)
        }
        (None, _) => suite(&args),
    }
}
