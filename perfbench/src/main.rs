//! Command-line entry point: `socc-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> [--trace-dir <dir>]`.
//!
//! Untraced (`--trace 0`), it repeats set-up plus one batch of the
//! workload until the time is used (at least three times) and prints the
//! end-to-end metrics from each unit's best time over the batches and
//! from the fastest set-up. Traced (`--trace 1`), it alternates
//! untraced and traced batches, writes the last traced batch's spans to
//! the trace directory, and prints the per-layer metrics, the span
//! coverage and the tracing overhead. Everything runs on the main thread.
//! The last line of standard output is the result object; the line
//! before it carries the run's details (host facts, digest, percentile).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use socc_perfbench::{
    best_units, median, quantile_sorted, set_counting, tail_quantile, units_beyond, Batch,
    CountingAlloc, LayerTrace, Metric, Recorder, Workload,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Batches every run makes at least.
const MIN_BATCHES: usize = 3;
/// Traced runs make at least this many untraced/traced pairs.
const MIN_PAIRS: usize = 2;
/// Share of a traced batch's wall time its spans must cover.
const MIN_COVERAGE_PCT: f64 = 90.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("socc-perfbench: {msg}");
    eprintln!(
        "usage: socc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-dir <dir>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut trace_dir = PathBuf::from(".bench_build/perfbench-traces");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes an unsigned integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a non-negative number")),
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
        trace_dir,
    }
}

/// A field of `/proc/self/status` (first number after the key).
fn proc_status(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// A fixed integer loop timed in milliseconds: a host-speed reading kept
/// as a diagnostic only, never used to scale a metric.
fn host_reference_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

// The result must be one line with every digit of each value, which the
// harness's `JsonBuilder` (indented, three decimals) does not produce.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_list(v: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", v.into_iter().collect::<Vec<_>>().join(","))
}

/// Runs batches while fewer than `min` ran or the next one is expected to
/// end within the time budget.
fn keep_going(started: Instant, seconds: f64, durations: &[f64], min: usize) -> bool {
    if durations.len() < min {
        return true;
    }
    let mut d = durations.to_vec();
    started.elapsed().as_secs_f64() + median(&mut d) <= seconds
}

fn main() {
    let args = parse_args();
    let host_ref_before = host_reference_ms();
    let started = Instant::now();
    let mut untraced: Vec<Batch> = Vec::new();
    let mut traces: Vec<LayerTrace> = Vec::new();
    let mut last_spans = Vec::new();
    let mut rec = Recorder::new(false);
    let mut traced_rec = Recorder::new(true);
    let mut round_s: Vec<f64> = Vec::new();
    let min = if args.traced { MIN_PAIRS } else { MIN_BATCHES };
    while keep_going(started, args.seconds, &round_s, min) {
        let round = Instant::now();
        rec.reset();
        untraced.push(args.workload.batch(args.seed, &mut rec));
        if args.traced {
            traced_rec.reset();
            set_counting(true);
            let batch = args.workload.batch(args.seed, &mut traced_rec);
            set_counting(false);
            traces.push(args.workload.trace(traced_rec.spans(), batch));
            last_spans = traced_rec.spans().to_vec();
        }
        round_s.push(round.elapsed().as_secs_f64());
    }
    let measured_s = started.elapsed().as_secs_f64();
    let host_ref_after = host_reference_ms();
    let threads = proc_status("Threads:").unwrap_or(0.0);
    let peak_rss_mb = proc_status("VmHWM:").unwrap_or(0.0) / 1024.0;

    // Correctness: per-unit checks, batch-level checks, one digest for
    // every batch of this seed, and a single thread.
    let all: Vec<&Batch> = untraced
        .iter()
        .chain(traces.iter().map(|t| &t.batch))
        .collect();
    let attempted: u64 = all.iter().map(|b| b.units.len() as u64).sum();
    let failed: u64 = all.iter().map(|b| b.failed).sum();
    let mut errors: Vec<String> = all
        .iter()
        .flat_map(|b| b.failures.iter().chain(&b.batch_errors).cloned())
        .take(10)
        .collect();
    let digest = all[0].digest;
    if all.iter().any(|b| b.digest != digest) {
        errors.push("digest differs between batches of one seed".into());
    }
    if threads != 1.0 {
        errors.push(format!("ran on {threads} threads, expected 1"));
    }

    let per_batch = args.workload.units_per_batch();
    let tail_q = tail_quantile(per_batch).expect("every workload's batch holds ≥ 20 units");
    let units: usize = untraced.iter().map(|b| b.units.len()).sum();
    let mut best = best_units(&untraced);
    let wall_s = best.iter().sum::<u64>() as f64 / 1e9;
    best.sort_unstable();
    let unit_ms = |q: f64| quantile_sorted(&best, q).unwrap_or(0.0) / 1e6;
    // Set-up is not split into units: take the fastest round's.
    let setup_s = untraced.iter().map(|b| b.setup_ns).min().unwrap_or(0) as f64 / 1e9;

    let metrics: Vec<Metric> = if args.traced {
        trace_metrics(&args, &untraced, &traces)
    } else {
        vec![
            Metric::new("wall_s", "s", wall_s),
            Metric::new("unit_p50_ms", "ms", unit_ms(0.5)),
            Metric::new("unit_tail_ms", "ms", unit_ms(tail_q)),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
        ]
    };

    if args.traced {
        let coverage = socc_perfbench::median_of(&traces, LayerTrace::coverage_pct);
        if coverage < MIN_COVERAGE_PCT {
            errors.push(format!(
                "spans cover {coverage:.1}% of the traced wall time, below {MIN_COVERAGE_PCT}%"
            ));
        }
    }

    let trace_file = if args.traced {
        match write_trace(&args, &last_spans) {
            Ok(p) => p.display().to_string(),
            Err(e) => {
                errors.push(format!("writing the trace: {e}"));
                String::new()
            }
        }
    } else {
        String::new()
    };

    let per_batch_s =
        |f: &dyn Fn(&Batch) -> u64| json_list(untraced.iter().map(|b| json_f64(f(b) as f64 / 1e9)));
    let details = format!(
        concat!(
            "{{\"perfbench\":{{\"workload\":{},\"seed\":{},\"trace\":{},",
            "\"host\":{{\"available_parallelism\":{},\"threads\":{},\"profile\":{},",
            "\"rustc\":{},\"revision\":{},",
            "\"host_ref_ms_before\":{},\"host_ref_ms_after\":{}}},",
            "\"measured_s\":{},\"batches\":{},\"traced_batches\":{},\"units_per_batch\":{},",
            "\"units\":{},\"tail_percentile\":{},\"units_beyond_tail\":{},",
            "\"digest\":\"{:016x}\",\"setup_s\":{},\"wall_s\":{},\"errors\":{},",
            "\"trace_file\":{}}}}}"
        ),
        json_str(args.workload.name()),
        args.seed,
        args.traced,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        threads,
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        json_str(&std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into())),
        json_f64(host_ref_before),
        json_f64(host_ref_after),
        json_f64(measured_s),
        untraced.len(),
        traces.len(),
        per_batch,
        units,
        json_f64(tail_q * 100.0),
        units_beyond(per_batch, tail_q),
        digest,
        per_batch_s(&|b| b.setup_ns),
        per_batch_s(&|b| b.wall_ns),
        json_list(errors.iter().map(|e| json_str(e))),
        json_str(&trace_file),
    );
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0 && errors.is_empty(),
        attempted,
        failed,
        metrics
            .iter()
            .map(|m| format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_f64(m.value),
                json_str(m.unit)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut out = std::io::stdout().lock();
    writeln!(out, "{details}").expect("stdout is writable");
    writeln!(out, "{result}").expect("stdout is writable");
    out.flush().expect("stdout is writable");
}

/// Per-layer metrics of a traced run: every workload's layer metrics
/// (zero for layers this workload does not reach), each layer's self
/// time, span coverage and tracing overhead.
fn trace_metrics(args: &Args, untraced: &[Batch], traces: &[LayerTrace]) -> Vec<Metric> {
    let mut m = Vec::new();
    for w in Workload::ALL {
        m.extend(w.layer_metrics(if w == args.workload { traces } else { &[] }));
    }
    let self_s = |layer: &str| {
        socc_perfbench::median_of(traces, |t| {
            t.layer_self_s().get(layer).copied().unwrap_or(0.0)
        })
    };
    for (name, layer) in [
        ("fleet.self_s", "fleet"),
        ("recovery.self_s", "recovery"),
        ("faults.self_s", "faults"),
        ("net.self_s", "net"),
        ("bench.self_s", "bench"),
    ] {
        m.push(Metric::new(name, "s", self_s(layer)));
    }
    let mut plain: Vec<f64> = untraced.iter().map(|b| b.wall_ns as f64).collect();
    let plain = median(&mut plain);
    let traced = socc_perfbench::median_of(traces, |t| t.batch.wall_ns as f64);
    m.push(Metric::new(
        "trace.overhead_pct",
        "%",
        100.0 * (traced - plain) / plain.max(1.0),
    ));
    m.push(Metric::new(
        "trace.coverage_pct",
        "%",
        socc_perfbench::median_of(traces, LayerTrace::coverage_pct),
    ));
    m.push(Metric::new(
        "trace.spans_per_unit",
        "count",
        socc_perfbench::median_of(traces, |t| {
            let spans: u64 = t.stats.values().map(|s| s.count).sum();
            spans as f64 / t.batch.units.len().max(1) as f64
        }),
    ));
    m
}

/// Writes one traced batch's spans as JSON lines: name, start, end,
/// parent index, unit id and allocations.
fn write_trace(args: &Args, spans: &[socc_perfbench::Span]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.trace_dir)?;
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{},\"allocs\":{}}}",
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.unit),
            s.allocs
        )?;
    }
    w.flush()?;
    Ok(path)
}
