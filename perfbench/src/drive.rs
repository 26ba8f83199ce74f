//! The socket pass: starts the server in its own process, replays the
//! workload's scripts over loopback from closed-loop connections, and
//! checks every answer.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::{Conn, Reply};
use crate::json::{self, Value};
use crate::workload::{
    query_round, update_round, views, Class, Constant, Ledger, QueryOp, Tpl, UpdateKind, Workload,
};

/// A running server process.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub dir: PathBuf,
}

impl ServerProc {
    pub fn spawn(
        nt: &Path,
        dir: &Path,
        w: &Workload,
        threads: usize,
    ) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(nt)
            .arg(dir)
            .arg(w.config)
            .arg(threads.to_string())
            .arg(checkpoint_every(w).to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let mut proc = ServerProc {
            child,
            stdin,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            dir: dir.to_owned(),
        };
        match addr {
            Some(a) => {
                proc.addr = a;
                Ok(proc)
            }
            None => {
                proc.kill();
                Err(format!("server did not start: {line:?}"))
            }
        }
    }

    fn status_field(&self, key: &str) -> Option<f64> {
        let s = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = s.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Peak resident set of the server process, MB.
    pub fn rss_peak_mb(&self) -> f64 {
        self.status_field("VmHWM:").unwrap_or(0.0) / 1024.0
    }

    /// User plus system CPU seconds of the server process.
    pub fn cpu_s(&self) -> f64 {
        let Ok(s) = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())) else {
            return 0.0;
        };
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line, in clock ticks.
        let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks: f64 = f.get(11).and_then(|v| v.parse().ok()).unwrap_or(0.0)
            + f.get(12).and_then(|v| v.parse().ok()).unwrap_or(0.0);
        ticks / 100.0
    }

    /// Graceful stop: the server drains, then writes its live base graph
    /// next to the journal directory. Returns the live `G∞` size.
    pub fn stop(mut self) -> Result<usize, String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"stop\n");
        }
        let mut line = String::new();
        let _ = self.stdout.read_line(&mut line);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        line.trim()
            .strip_prefix("stopped ")
            .and_then(|r| r.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad stop line {line:?}"))
    }

    pub fn kill(&mut self) {
        self.stdin.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Checkpoint cadence: one per update round, so every run holds several
/// checkpoints at the same script position.
pub fn checkpoint_every(w: &Workload) -> usize {
    update_round(w).len()
}

/// A registered view: its id and the rows its deltas have accumulated.
pub struct View {
    pub name: &'static str,
    pub sparql: String,
    pub id: u64,
    pub epoch: u64,
    pub rows: HashMap<Vec<String>, i64>,
}

impl View {
    fn apply(&mut self, batch: &Value) -> Result<(), String> {
        if batch.get("reset").and_then(Value::as_bool) == Some(true) {
            self.rows.clear();
        }
        for ev in batch.get("events").and_then(Value::as_arr).unwrap_or(&[]) {
            let row: Vec<String> = ev
                .get("row")
                .and_then(Value::as_arr)
                .ok_or("event without row")?
                .iter()
                .map(|t| t.as_str().unwrap_or("").to_owned())
                .collect();
            let d = ev
                .get("delta")
                .and_then(Value::as_f64)
                .ok_or("event without delta")? as i64;
            let n = self.rows.entry(row.clone()).or_insert(0);
            *n += d;
            if *n == 0 {
                self.rows.remove(&row);
            }
        }
        if let Some(e) = batch.get("epoch").and_then(Value::as_u64) {
            self.epoch = self.epoch.max(e);
        }
        Ok(())
    }
}

/// The set-up every run pays: server spawn on the generated N-Triples up
/// to the first answer under every strategy the workload uses, plus the
/// view registrations.
pub fn setup(
    nt: &Path,
    dir: &Path,
    w: &Workload,
    threads: usize,
) -> Result<(ServerProc, Vec<View>, f64), String> {
    let start = Instant::now();
    let server = ServerProc::spawn(nt, dir, w, threads)?;
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let warm = Tpl::Q5.sparql(&Constant::Dept { u: 0, d: 0 }.iri());
    for s in &w.strategies {
        let r = post_query(&mut conn, &warm, *s)?;
        if r.status != 200 {
            return Err(format!(
                "warm-up query under {s:?}: {} {}",
                r.status,
                r.text()
            ));
        }
    }
    let mut out = Vec::new();
    if w.views {
        for (name, sparql) in views() {
            let r = conn
                .send("POST", "/subscribe", &[], sparql.as_bytes())
                .map_err(|e| e.to_string())?;
            if r.status != 200 {
                return Err(format!("subscribe {name}: {} {}", r.status, r.text()));
            }
            // Frames: registration header, initial batch, `next` link.
            let frames: Vec<Value> = r
                .text()
                .lines()
                .map(json::parse)
                .collect::<Result<_, _>>()?;
            let id = frames[0].get("id").and_then(Value::as_u64).ok_or("no id")?;
            let mut v = View {
                name,
                sparql,
                id,
                epoch: 0,
                rows: HashMap::new(),
            };
            v.apply(&frames[1])?;
            out.push(v);
        }
    }
    Ok((server, out, start.elapsed().as_secs_f64()))
}

pub fn post_query(conn: &mut Conn, sparql: &str, strategy: Option<&str>) -> Result<Reply, String> {
    let headers: Vec<(&str, &str)> = strategy
        .map(|s| vec![("X-Webreason-Strategy", s)])
        .unwrap_or_default();
    conn.send("POST", "/query", &headers, sparql.as_bytes())
        .map_err(|e| e.to_string())
}

/// What one query reply said, reduced to what the checks compare.
#[derive(Debug, Clone)]
pub struct QuerySample {
    pub conn: usize,
    pub round: usize,
    pub index: usize,
    pub latency: Duration,
    pub ok: bool,
    pub rows: usize,
    pub digest: u64,
    pub epoch: u64,
}

/// One update reply.
#[derive(Debug, Clone)]
pub struct UpdateSample {
    pub round: usize,
    pub index: usize,
    pub kind: UpdateKind,
    pub latency: Duration,
    pub ok: bool,
    pub epoch: u64,
}

/// Everything the socket pass measured.
pub struct Pass {
    pub queries: Vec<QuerySample>,
    pub query_ops: Vec<Vec<QueryOp>>,
    pub query_wall: Duration,
    pub updates: Vec<UpdateSample>,
    pub update_wall: Duration,
    pub polls: usize,
    pub polls_failed: usize,
    pub fsyncs: f64,
    pub checkpoints: f64,
}

/// Update rounds from round number `first`: exactly one without a
/// deadline, else whole rounds until `deadline`.
fn run_updates(
    addr: SocketAddr,
    w: &Workload,
    first: usize,
    deadline: Option<Instant>,
) -> Result<Vec<UpdateSample>, String> {
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let script = update_round(w);
    let bodies: Vec<String> = script.iter().map(|k| k.body()).collect();
    let mut out = Vec::new();
    for round in first.. {
        if round > first && deadline.is_none_or(|d| Instant::now() >= d) {
            break;
        }
        for (index, (kind, body)) in script.iter().zip(&bodies).enumerate() {
            let r = conn
                .send("POST", "/update", &[], body.as_bytes())
                .map_err(|e| e.to_string())?;
            let epoch = if r.status == 200 {
                json::parse(r.text())?
                    .get("epoch")
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            } else {
                0
            };
            out.push(UpdateSample {
                round,
                index,
                kind: *kind,
                latency: r.latency,
                ok: r.status == 200,
                epoch,
            });
        }
    }
    Ok(out)
}

/// What one query connection did.
struct ConnRun {
    samples: Vec<QuerySample>,
    polls: usize,
    polls_failed: usize,
}

/// Query rounds of one connection from round number `first`, as
/// [`run_updates`] runs update rounds; the reader of an update workload
/// also polls each view's catch-up once per scan.
fn run_queries(
    addr: SocketAddr,
    ops: &[QueryOp],
    conn_no: usize,
    first: usize,
    deadline: Option<Instant>,
    views: &mut [View],
) -> Result<ConnRun, String> {
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let (mut polls, mut polls_failed) = (0, 0);
    for round in first.. {
        if round > first && deadline.is_none_or(|d| Instant::now() >= d) {
            break;
        }
        for (index, op) in ops.iter().enumerate() {
            let r = post_query(&mut conn, &op.sparql, op.strategy)?;
            let (rows, digest, epoch) = if r.status == 200 {
                json::query_digest(r.text())?
            } else {
                (0, 0, 0)
            };
            out.push(QuerySample {
                conn: conn_no,
                round,
                index,
                latency: r.latency,
                ok: r.status == 200,
                rows,
                digest,
                epoch,
            });
            if op.tpl.class() == Class::Scan {
                for v in views.iter_mut() {
                    polls += 1;
                    if !poll_view(&mut conn, v)? {
                        polls_failed += 1;
                    }
                }
            }
        }
    }
    Ok(ConnRun {
        samples: out,
        polls,
        polls_failed,
    })
}

fn poll_view(conn: &mut Conn, v: &mut View) -> Result<bool, String> {
    let path = format!("/subscribe/{}?from={}", v.id, v.epoch);
    let r = conn
        .send("GET", &path, &[], b"")
        .map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Ok(false);
    }
    let body = json::parse(r.text())?;
    for b in body.get("batches").and_then(Value::as_arr).unwrap_or(&[]) {
        v.apply(b)?;
    }
    Ok(true)
}

/// Reads one counter from the server's Prometheus text.
pub fn metric(addr: SocketAddr, name: &str) -> Result<f64, String> {
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let r = conn
        .send("GET", "/metrics", &[], b"")
        .map_err(|e| e.to_string())?;
    Ok(r.text()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            k.ends_with(name).then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0.0))
}

/// Runs the workload's phases against a started server.
pub fn run(
    server: &ServerProc,
    w: &Workload,
    views: &mut [View],
    seconds: f64,
) -> Result<Pass, String> {
    let addr = server.addr;
    let fsyncs0 = metric(addr, "durability_journal_fsyncs_total")?;
    let checkpoints0 = metric(addr, "server_checkpoint_count_total")?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let query_ops: Vec<Vec<QueryOp>> = (0..w.query_conns).map(|c| query_round(w, c)).collect();
    let (updates, update_wall, results, query_wall) = if w.alternate {
        // Cycles of one update round alone, then one query round on every
        // connection, until the deadline.
        let (mut updates, mut results) = (Vec::new(), Vec::new());
        let (mut update_wall, mut query_wall) = (Duration::ZERO, Duration::ZERO);
        for cycle in 0.. {
            if cycle > 0 && Instant::now() >= deadline {
                break;
            }
            let t = Instant::now();
            updates.extend(run_updates(addr, w, cycle, None)?);
            let t2 = Instant::now();
            update_wall += t2 - t;
            std::thread::scope(|s| {
                let handles: Vec<_> = query_ops
                    .iter()
                    .enumerate()
                    .map(|(c, ops)| {
                        s.spawn(move || run_queries(addr, ops, c, cycle, None, &mut []))
                    })
                    .collect();
                for h in handles {
                    results.push(h.join().expect("query thread panicked"));
                }
            });
            query_wall += t2.elapsed();
        }
        (updates, update_wall, results, query_wall)
    } else {
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let t = Instant::now();
                run_updates(addr, w, 0, Some(deadline)).map(|u| (u, t.elapsed()))
            });
            let reader = run_queries(addr, &query_ops[0], 0, 0, Some(deadline), views);
            let query_wall = start.elapsed();
            match writer.join().expect("writer thread panicked") {
                Ok((updates, wall)) => (updates, wall, vec![reader], query_wall),
                Err(e) => (Vec::new(), Duration::ZERO, vec![Err(e)], query_wall),
            }
        })
    };
    let mut pass = Pass {
        queries: Vec::new(),
        query_ops,
        query_wall,
        updates,
        update_wall,
        polls: 0,
        polls_failed: 0,
        fsyncs: 0.0,
        checkpoints: 0.0,
    };
    for r in results {
        let r = r?;
        pass.queries.extend(r.samples);
        pass.polls += r.polls;
        pass.polls_failed += r.polls_failed;
    }
    pass.fsyncs = metric(addr, "durability_journal_fsyncs_total")? - fsyncs0;
    pass.checkpoints = metric(addr, "server_checkpoint_count_total")? - checkpoints0;
    Ok(pass)
}

/// The answer checks. Returns one message per mismatch.
pub fn check(w: &Workload, pass: &Pass, views: &mut [View], addr: SocketAddr) -> Vec<String> {
    let mut errors = Vec::new();
    // The ledger state at each acknowledged epoch.
    let mut acked: Vec<(u64, UpdateKind)> = pass
        .updates
        .iter()
        .filter(|u| u.ok)
        .map(|u| (u.epoch, u.kind))
        .collect();
    acked.sort_by_key(|a| a.0);
    for pair in acked.windows(2) {
        if pair[0].0 >= pair[1].0 {
            errors.push(format!(
                "updates acknowledged at the same epoch {}",
                pair[0].0
            ));
        }
    }
    let mut states: Vec<(u64, Ledger)> = Vec::new();
    let mut ledger = Ledger::default();
    for (e, k) in &acked {
        ledger.apply(*k);
        states.push((*e, ledger.clone()));
    }
    if !ledger.is_empty() {
        errors.push("update rounds did not net to no change".into());
    }
    let at = |epoch: u64| -> Ledger {
        let i = states.partition_point(|(e, _)| *e <= epoch);
        if i == 0 {
            Ledger::default()
        } else {
            states[i - 1].1.clone()
        }
    };
    // Closed-form counts and empty answers for absent constants.
    let mut groups: BTreeMap<(usize, usize, usize), Vec<&QuerySample>> = BTreeMap::new();
    for q in pass.queries.iter().filter(|q| q.ok) {
        let op = &pass.query_ops[q.conn][q.index];
        if let Some(n) = at(q.epoch).expected(&w.lubm, op.tpl, &op.constant) {
            if n != q.rows {
                errors.push(format!(
                    "{:?} on {} under {:?} at epoch {}: {} rows, expected {n}",
                    op.tpl,
                    op.constant.iri(),
                    op.strategy,
                    q.epoch,
                    q.rows
                ));
            }
        }
        // Consecutive ops of a round asking one pair under each strategy.
        let first = q.index - q.index % w.strategies.len();
        groups.entry((q.conn, q.round, first)).or_default().push(q);
    }
    // q(G∞) = q_ref(G) = q_int(G) = backward chaining, pair by pair.
    for ((conn, _, first), g) in &groups {
        if g.windows(2).any(|p| p[0].digest != p[1].digest) {
            let op = &pass.query_ops[*conn][*first];
            let got: Vec<usize> = g.iter().map(|q| q.rows).collect();
            errors.push(format!(
                "{:?} on {}: strategies disagree (rows {got:?})",
                op.tpl,
                op.constant.iri()
            ));
        }
    }
    // Each view's accumulated deltas equal a from-scratch answer.
    if let Ok(mut conn) = Conn::open(addr) {
        for v in views.iter_mut() {
            match poll_view(&mut conn, v).and_then(|_| post_query(&mut conn, &v.sparql, None)) {
                Ok(r) if r.status == 200 => match json::parse(r.text()) {
                    Ok(body) => {
                        let fresh: HashMap<Vec<String>, i64> = body
                            .get("rows")
                            .and_then(Value::as_arr)
                            .unwrap_or(&[])
                            .iter()
                            .map(|row| {
                                let r: Vec<String> = row
                                    .as_arr()
                                    .unwrap_or(&[])
                                    .iter()
                                    .map(|t| t.as_str().unwrap_or("").to_owned())
                                    .collect();
                                (r, 1)
                            })
                            .collect();
                        if fresh != v.rows {
                            errors.push(format!(
                                "view {}: {} accumulated rows, {} from scratch",
                                v.name,
                                v.rows.len(),
                                fresh.len()
                            ));
                        }
                    }
                    Err(e) => errors.push(format!("view {}: {e}", v.name)),
                },
                Ok(r) => errors.push(format!("view {}: status {}", v.name, r.status)),
                Err(e) => errors.push(format!("view {}: {e}", v.name)),
            }
        }
    } else {
        errors.push("cannot reconnect for the view check".into());
    }
    errors
}
