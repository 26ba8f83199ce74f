//! Socket-level benchmark of the webreason server at LUBM scale.
//!
//! ```text
//! perfbench --workload <lubm4-query|lubm4-update|lubm1-update> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Generates the workload's data from the seed, starts the server in its
//! own process, replays fixed scripts over loopback, checks every answer
//! and prints the metrics; the last line of standard output is one JSON
//! object. `--trace 1` adds an in-process replay that times each layer.
//! See `README.md` beside this crate.

mod client;
mod drive;
mod json;
mod serve;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use webreason_core::Store;
use workload::{Class, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Linear-interpolated quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// An ordered metric list: name → (value, unit).
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    fn json(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = value()? == "1",
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("serve") {
        serve::main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|a| run(&a))
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn filesystem_of(path: &Path) -> String {
    let Ok(dir) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && dir.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} ({})", f[2], f[1])))
        })
        .max()
        .map_or("unknown".into(), |(_, s)| s)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn ms(d: &Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run(a: &Args) -> Result<(), String> {
    let w = Workload::by_name(&a.workload, a.seed, a.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", a.workload))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root =
        PathBuf::from(".bench_run").join(format!("{}-{}-{}", w.name, a.seed, std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let result = run_in(a, &w, threads, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_run");
    let (correct, attempted, failed, metrics) = result?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    Ok(())
}

fn run_in(
    a: &Args,
    w: &Workload,
    threads: usize,
    root: &Path,
) -> Result<(bool, usize, usize, Metrics), String> {
    // Inputs: the benchmark's own work, outside every metric.
    let ds = ::workload::lubm::generate(&w.lubm);
    let nt_text = rdf_io::write_ntriples(&ds.graph, &ds.dict);
    let base_triples = ds.graph.len();
    drop(ds);
    let nt = root.join("data.nt");
    std::fs::write(&nt, &nt_text).map_err(|e| e.to_string())?;

    println!("workload    {}", w.name);
    println!("git         {}", git_describe());
    println!("nproc       {threads}");
    println!(
        "scale       {} universities, {base_triples} base triples{}",
        w.lubm.universities,
        if a.smoke { " (smoke)" } else { "" }
    );
    println!("seeds       data {0}, scripts derived from {0}", a.seed);
    println!("store       {}, {} server query workers", w.config, threads);
    println!(
        "flush       fsync always; journal on {}",
        filesystem_of(root)
    );

    // Set-up, several times; the last server stays up for the run.
    let setups = if a.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let dir = root.join(format!("journal{i}"));
        let (mut server, views, secs) = drive::setup(&nt, &dir, w, threads)?;
        setup_s.push(secs);
        if i + 1 == setups {
            kept = Some((server, views));
        } else {
            server.kill();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (server, mut views) = kept.expect("at least one set-up");
    println!("setup_s     {setup_s:.3?}");

    let pass = drive::run(&server, w, &mut views, a.seconds)?;
    let rss = server.rss_peak_mb();
    let cpu = server.cpu_s();
    let mut errors = drive::check(w, &pass, &mut views, server.addr);
    let dir = server.dir.clone();
    let live_sat = server.stop()?;
    let store_mb = dir_bytes(&dir) as f64 / 1e6;

    // The recovered store must equal the live one.
    let recovered = Store::recover(&dir).map_err(|e| e.to_string())?;
    let live_nt =
        std::fs::read_to_string(format!("{}.live.nt", dir.display())).map_err(|e| e.to_string())?;
    if recovered.export_ntriples() != live_nt {
        errors.push("recovered base graph differs from the live one".into());
    }
    if recovered.stats().saturated_triples.unwrap_or(0) != live_sat {
        errors.push("recovered G∞ size differs from the live one".into());
    }
    drop(recovered);

    // Per-class figures.
    let mut by_class: BTreeMap<Class, (Vec<f64>, usize, usize)> = BTreeMap::new();
    for q in &pass.queries {
        let class = pass.query_ops[q.conn][q.index].tpl.class();
        let e = by_class.entry(class).or_default();
        e.1 += 1;
        if q.ok {
            e.0.push(ms(&q.latency));
        } else {
            e.2 += 1;
        }
    }
    for u in &pass.updates {
        let e = by_class.entry(Class::Update).or_default();
        e.1 += 1;
        if u.ok {
            e.0.push(ms(&u.latency));
        } else {
            e.2 += 1;
        }
    }
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (pass.polls, pass.polls_failed);
    for class in [Class::Lookup, Class::Scan, Class::Update] {
        let (lat, att, fail) = by_class.remove(&class).unwrap_or_default();
        attempted += att;
        failed += fail;
        let q = w.tail(class);
        println!(
            "class       {:<7} attempted {att:>6} failed {fail:>3}  p50 {:>9.3} ms  p{:.0} {:>9.3} ms",
            class.name(),
            quantile(&lat, 0.5),
            q * 100.0,
            quantile(&lat, q)
        );
        println!(
            "            {:<7} p90 {:.3} p95 {:.3} p98 {:.3} p99 {:.3} ms",
            class.name(),
            quantile(&lat, 0.90),
            quantile(&lat, 0.95),
            quantile(&lat, 0.98),
            quantile(&lat, 0.99)
        );
        m.set(
            format!("{}_p50_ms", class.name()),
            quantile(&lat, 0.5),
            "ms",
        );
        m.set(format!("{}_tail_ms", class.name()), quantile(&lat, q), "ms");
    }
    let mut by_op: BTreeMap<(workload::Tpl, &str), Vec<f64>> = BTreeMap::new();
    for q in pass.queries.iter().filter(|q| q.ok) {
        let op = &pass.query_ops[q.conn][q.index];
        by_op
            .entry((op.tpl, op.strategy.unwrap_or("default")))
            .or_default()
            .push(ms(&q.latency));
    }
    for ((tpl, strategy), lat) in &by_op {
        println!(
            "template    {:<4} {strategy:<18} n {:>6}  p50 {:>9.3} ms  max {:>9.3} ms",
            format!("{tpl:?}"),
            lat.len(),
            quantile(lat, 0.5),
            quantile(lat, 1.0)
        );
    }
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for u in pass.updates.iter().filter(|u| u.ok) {
        by_kind
            .entry(u.kind.name())
            .or_default()
            .push(ms(&u.latency));
    }
    for (kind, lat) in &by_kind {
        println!(
            "update      {kind:<23} n {:>6}  p50 {:>9.3} ms  max {:>9.3} ms",
            lat.len(),
            quantile(lat, 0.5),
            quantile(lat, 1.0)
        );
    }
    println!(
        "class       poll    attempted {:>6} failed {:>3}",
        pass.polls, pass.polls_failed
    );
    let queries_ok = pass.queries.iter().filter(|q| q.ok).count() as f64;
    let updates_ok = pass.updates.iter().filter(|u| u.ok).count() as f64;
    m.set(
        "query_per_s",
        queries_ok / pass.query_wall.as_secs_f64(),
        "1/s",
    );
    m.set(
        "update_per_s",
        updates_ok / pass.update_wall.as_secs_f64(),
        "1/s",
    );
    m.set("setup_s", quantile(&setup_s, 0.5), "s");
    m.set("rss_peak_mb", rss, "MB");
    m.set("store_mb", store_mb, "MB");
    println!("server cpu  {cpu:.2} s");
    println!(
        "writes      {} fsyncs, {} checkpoints over {} updates",
        pass.fsyncs,
        pass.checkpoints,
        pass.updates.len()
    );
    // Every operation of every workload is expected to succeed.
    if failed > 0 {
        errors.push(format!("{failed} of {attempted} operations failed"));
    }
    for e in errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    if errors.len() > 20 {
        eprintln!("check failed: {} more", errors.len() - 20);
    }
    let correct = errors.is_empty();
    println!(
        "checks      {}",
        if correct {
            "passed".to_owned()
        } else {
            format!("{} failed", errors.len())
        }
    );

    let out = if a.trace {
        let mut t = trace::run(w, &nt_text, &root.join("trace"), &pass)?;
        t.set(
            "durability.fsyncs_per_update",
            pass.fsyncs / pass.updates.len().max(1) as f64,
            "count",
        );
        for (k, (v, u)) in &m.0 {
            println!("e2e         {k:<32} {v:>12.4} {u}");
        }
        for (k, (v, u)) in &t.0 {
            println!("layer       {k:<32} {v:>12.4} {u}");
        }
        t
    } else {
        for (k, (v, u)) in &m.0 {
            println!("e2e         {k:<32} {v:>12.4} {u}");
        }
        m
    };
    Ok((correct, attempted, failed, out))
}
