//! The repo's benchmark: five closed-loop workloads driven from outside
//! through `faasm`'s public API. See README.md beside this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! faasm-benchmark --workload W [--seed N] [--trace [0|1]] [--smoke]
//! ```
//!
//! One process runs one workload. Untraced, it prints every end-to-end
//! metric; with `--trace`, it runs the probes of the layers the workload
//! stresses, then the workload for a quarter of the window with the
//! benchmark's spans on and the program's public counters snapshotted
//! around it, and prints every per-layer metric. The last line of standard
//! output is the result object the driver reads.
//!
//! The run length is the benchmark's (`metrics::RUN_SECONDS`, or
//! `SMOKE_SECONDS`), not the user's. The driver states it on every run as
//! `--seconds <run_seconds>`; that is the only use of the flag.

mod counters;
mod json;
mod loadgen;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use loadgen::{GENERATOR_THREADS, MAX_CLIENT_BUSY_SHARE};
use spans::Spans;
use workloads::{Measured, Sizing, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The window under `--smoke`, beside `Sizing::SMOKE` and `Scale::SMOKE`.
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: faasm-benchmark --workload <{}> [--seed N] [--trace [0|1]] \
         [--smoke] [--out-dir DIR] | --manifest",
        metrics::WORKLOADS.map(|w| w.0).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--manifest" => {
                print!("{}", metrics::manifest().pretty());
                std::process::exit(0);
            }
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--out-dir" => args.out_dir = PathBuf::from(value()),
            "--smoke" => args.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => usage(),
        }
    }
    if !metrics::WORKLOADS.iter().any(|w| w.0 == args.workload) || args.seconds <= 0.0 {
        usage();
    }
    if args.smoke {
        args.seconds = SMOKE_SECONDS;
    }
    args
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    assert!(
        GENERATOR_THREADS <= nproc,
        "the generator needs {GENERATOR_THREADS} thread and connection, the box has {nproc} cores"
    );
    let sizing = if args.smoke {
        Sizing::SMOKE
    } else {
        Sizing::FULL
    };

    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mut spans = Spans::new(args.trace);
    let (workload, measured, mut errors) = if args.trace {
        let scale = if args.smoke {
            probes::Scale::SMOKE
        } else {
            probes::Scale::FULL
        };
        values.extend(probes::of(&args.workload, scale, args.seed));
        let mut workload = setup(&args, sizing);
        let before = counters::snapshot(workload.cluster(), workload.gateway());
        // A quarter of the window: enough for the counters, and the traced
        // set never supplies an end-to-end number.
        let secs = args.seconds / 4.0;
        let measured = workload.measure(secs, &mut spans);
        let after = counters::snapshot(workload.cluster(), workload.gateway());
        values.extend(counters::derive(&before, &after, measured.ok()));
        values.extend(measured.extras.iter().copied());
        let (extras, errors) = workload.side_run(secs);
        values.extend(extras);
        (workload, measured, errors)
    } else {
        // Set-up is timed from process start the first time, and repeated:
        // one boot is too few to put a bound on.
        let reps = if args.smoke { 1 } else { SETUP_REPS };
        let mut setups = Vec::new();
        let mut workload = None;
        for rep in 0..reps {
            drop(workload.take());
            let at = if rep == 0 { started } else { Instant::now() };
            workload = Some(setup(&args, sizing));
            setups.push(at.elapsed().as_secs_f64());
        }
        let mut workload = workload.expect("at least one set-up");
        let measured = workload.measure(args.seconds, &mut spans);
        values.insert("setup_s", stats::median(&mut setups));
        values.insert("rps", measured.rps);
        values.insert("p50_ms", measured.p50_ms);
        values.insert("mem_mb", measured.mem_mb);
        values.insert("net_kb_per_call", measured.net_kb_per_call);
        (workload, measured, Vec::new())
    };
    let busy = measured
        .phases
        .iter()
        .map(|p| p.client_busy_share)
        .fold(0.0, f64::max);
    values.insert("benchmark.client_busy_share", busy);

    errors.extend(measured.errors.iter().cloned());
    if busy > MAX_CLIENT_BUSY_SHARE {
        errors.push(format!(
            "the generator spent {busy:.2} of a window inside submit (limit {MAX_CLIENT_BUSY_SHARE})"
        ));
    }
    let correct = errors.is_empty() && measured.failed() == 0 && measured.ok() > 0;

    // Every metric of the set by name, in manifest order, with its unit.
    // A per-layer metric this workload has no value for (a probe that runs
    // in another workload's traced process, a counter of a tier it does
    // not use) is 0 in the result object and has no line.
    let reported: Vec<(&str, &str, f64)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| (name, unit, values[name]))
            .collect()
    };
    let w = &args.workload;
    for &(name, unit, value) in &reported {
        if !args.trace || values.contains_key(name) {
            println!("{w} {name} {value} {unit}");
        }
    }
    if args.trace {
        if values.contains_key("gateway.remote_call_us") {
            print_ladder(w, &values);
        }
    } else {
        // The end-to-end numbers only this workload has, over the full
        // untraced window. They carry no bound: the driver bounds only what
        // every workload reports.
        for &(name, value) in &measured.extras {
            let unit = metrics::PER_LAYER
                .iter()
                .find(|m| m.0 == name)
                .map_or("", |m| m.1);
            println!("{w} {name} {value} {unit}");
        }
    }
    for p in &measured.phases {
        println!(
            "{w} phase {} window {} seconds {:.2}: sent {} ok {} failed {} shed {} fail_share {} client_busy_share {:.3}",
            p.name,
            p.window,
            p.elapsed_s,
            p.sent,
            p.ok,
            p.failed,
            p.shed,
            p.failed as f64 / p.sent.max(1) as f64,
            p.client_busy_share
        );
    }
    for e in &errors {
        println!("{w} INCORRECT {e}");
    }

    let metrics_json = Json::obj(reported.iter().map(|&(name, unit, value)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(measured.attempted().max(1))),
        ("failed", Json::Int(measured.failed())),
        ("metrics", metrics_json),
    ]);
    write_files(
        &args,
        nproc,
        workload.as_ref(),
        &measured,
        &errors,
        &result,
        spans,
    );
    // Tear the cluster down before the result line: the driver may stop
    // waiting once it has read it.
    drop(workload);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn setup(args: &Args, sizing: Sizing) -> Box<dyn Workload> {
    workloads::setup(&args.workload, args.seed, sizing).expect("workload name was checked")
}

/// What each rung of the call ladder adds to the rung it stands on. Both
/// front doors stand on the instance: the gateway places its batches on
/// instances directly and does not pass through `Cluster::invoke`.
fn print_ladder(workload: &str, values: &HashMap<&'static str, f64>) {
    let us = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let vm = us("fvm.null_invoke_ns") / 1e3;
    let instance = us("core.instance.warm_call_us");
    let inproc = us("gateway.inproc_call_us");
    let rungs = [
        ("fvm: Faaslet::run", vm, 0.0),
        (
            "core.instance: run queue, warm acquire, reset",
            instance,
            vm,
        ),
        (
            "core.bus: Cluster front door, bus, pending map (beside the gateway)",
            us("core.bus.call_us"),
            instance,
        ),
        (
            "gateway in-process: admission, fair queue, batch dispatch",
            inproc,
            instance,
        ),
        (
            "gateway remote: codec, stream, server loop",
            us("gateway.remote_call_us"),
            inproc,
        ),
    ];
    for (layer, total, below) in rungs {
        println!(
            "{workload} ladder {layer}: {total:.2} us, adds {:.2} us",
            total - below
        );
    }
}

/// The stamped result file, `<workload>.json`; for a traced run
/// `<workload>-trace.json`, which also holds the spans.
fn write_files(
    args: &Args,
    nproc: usize,
    workload: &dyn Workload,
    measured: &Measured,
    errors: &[String],
    result: &Json,
    spans: Spans,
) {
    let env = |name: &str| Json::str(std::env::var(name).unwrap_or_else(|_| "unknown".into()));
    let mut fields = vec![
        ("workload".to_string(), Json::str(args.workload.as_str())),
        ("seed".to_string(), Json::Int(args.seed)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        ("commit".to_string(), env("BENCH_COMMIT")),
        ("rustc".to_string(), env("BENCH_RUSTC")),
        ("nproc".to_string(), Json::Int(nproc as u64)),
        ("config".to_string(), Json::str(workload.config())),
        ("window_seconds".to_string(), Json::Num(args.seconds)),
        (
            "setup_reps".to_string(),
            Json::Int(if args.smoke || args.trace {
                1
            } else {
                SETUP_REPS as u64
            }),
        ),
    ];
    fields.push((
        "phases".into(),
        Json::Arr(
            measured
                .phases
                .iter()
                .map(|p| {
                    Json::obj([
                        ("name", Json::str(p.name)),
                        ("window", Json::Int(p.window as u64)),
                        ("seconds", Json::Num(p.elapsed_s)),
                        ("sent", Json::Int(p.sent)),
                        ("ok", Json::Int(p.ok)),
                        ("failed", Json::Int(p.failed)),
                        ("shed", Json::Int(p.shed)),
                        ("client_busy_share", Json::Num(p.client_busy_share)),
                        (
                            "slice_rps",
                            Json::Arr(p.slice_rps().into_iter().map(Json::Num).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    if !args.trace {
        fields.push((
            "workload_metrics".into(),
            Json::obj(measured.extras.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ));
    }
    fields.push((
        "errors".into(),
        Json::Arr(errors.iter().map(|e| Json::str(e.as_str())).collect()),
    ));
    fields.push(("result".into(), result.clone()));
    let text = if args.trace {
        fields.extend(spans::trace_fields(spans.into_spans()));
        // Tens of thousands of spans: one line, not one line per field.
        format!("{}\n", Json::Obj(fields))
    } else {
        Json::Obj(fields).pretty()
    };
    let suffix = if args.trace { "-trace" } else { "" };
    let path = args.out_dir.join(format!("{}{suffix}.json", args.workload));
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
