//! The traced pass: replays the first round of each script in process,
//! against a store of the same configuration, timing each call into a
//! crate's public functions from here. Nothing inside the program is
//! instrumented. Each operation's residual is its socket latency from the
//! socket pass minus the layers timed for the same script position.

use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use durability::{Journal, JournalRecord, ScriptedOp};
use obs::CancelToken;
use rdf_model::{Dictionary, Graph, Triple, Vocab};
use rdfs::incremental::MaintenanceAlgorithm;
use rdfs::Schema;
use reformulation::{reformulate, reformulate_intervals};
use sparql::{IntervalQuery, Query, Solutions};
use webreason_core::{evaluate_backward, DurableStore, FsyncPolicy, ReasoningConfig, ScriptOp};
use webreason_incremental::{HubConfig, SubscriptionHub};
use webreason_server::http::{parse_request, write_response, Limits, ParseOutcome};
use webreason_server::proto::{decode_update_body, QueryResponse};

use crate::client::request_bytes;
use crate::drive::{checkpoint_every, Pass};
use crate::workload::{update_round, views, Class, QueryOp, UpdateKind, Workload, STRATEGIES};
use crate::{quantile, Metrics};

/// Per-metric samples, reduced to medians at the end.
#[derive(Default)]
struct Samples(BTreeMap<String, (Vec<f64>, &'static str)>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, v: f64, unit: &'static str) {
        self.0
            .entry(name.into())
            .or_insert((Vec::new(), unit))
            .0
            .push(v);
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn class_key(class: Class, base: &str) -> (String, f64) {
    // Lookups are reported in µs, scans and updates in ms.
    match class {
        Class::Lookup => (format!("{base}_us.lookup"), 1.0),
        Class::Scan => (format!("{base}_ms.scan"), 1e-3),
        Class::Update => (format!("{base}_ms.update"), 1e-3),
    }
}

/// The in-process world the query layers run in: the parsed base graph,
/// its saturation, schema and interval dictionary.
struct World {
    dict: Dictionary,
    vocab: Vocab,
    base: Graph,
    saturated: Graph,
    schema: Schema,
    idict: Arc<rdf_model::IntervalDict>,
}

pub fn run(w: &Workload, nt: &str, dir: &Path, pass: &Pass) -> Result<Metrics, String> {
    let mut s = Samples::default();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;

    // Set-up layers.
    let mut dict = Dictionary::new();
    let vocab = Vocab::intern(&mut dict);
    let mut base = Graph::new();
    let t = Instant::now();
    rdf_io::parse_ntriples(nt, &mut dict, &mut base).map_err(|e| e.to_string())?;
    s.push("rdf_io.parse_ms", us(t) / 1e3, "ms");
    let t = Instant::now();
    let saturated = rdfs::saturate(&base, &vocab).graph;
    s.push("rdfs.saturate_ms", us(t) / 1e3, "ms");
    let schema = Schema::extract(&base, &vocab);
    let t = Instant::now();
    let idict = Arc::new(schema.interval_dict());
    s.push("rdf_model.interval_encode_us", us(t), "us");
    // The store's own maintainer: a saturation store's algorithm, counting
    // for the adaptive store (as `Store` builds it).
    let config = ReasoningConfig::from_name(w.config).ok_or("unknown config")?;
    let algorithm = match config {
        ReasoningConfig::Saturation(a) => a,
        _ => MaintenanceAlgorithm::Counting,
    };
    let mut maintainer = algorithm.build(base.clone(), vocab);
    let mut world = World {
        dict,
        vocab,
        base,
        saturated,
        schema,
        idict,
    };

    // The store, configured as the server's.
    let store_dir = dir.join("store");
    let mut ds = DurableStore::create(&store_dir, config, NonZeroUsize::MIN, FsyncPolicy::Always)
        .map_err(|e| e.to_string())?;
    ds.load_ntriples(nt).map_err(|e| e.to_string())?;
    ds.set_delta_tracking(true);
    let reader = ds.reader();
    let hub = SubscriptionHub::new(HubConfig::default());
    let mut view_ids = Vec::new();
    if w.views {
        for (_, sparql) in views() {
            let ok = hub
                .subscribe(&reader, &sparql, false, &CancelToken::none())
                .map_err(|e| format!("{e:?}"))?;
            view_ids.push(ok.id);
        }
    }
    let mut prev = reader.snapshot();
    let mut probe = Journal::open(dir.join("append-probe.wal"), FsyncPolicy::Always)
        .map_err(|e| e.to_string())?;
    let journal = store_dir.join(webreason_core::durable::JOURNAL_FILE);
    let fsize = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len()) as f64;

    // Update replay: the first round, as the writer sent it, on a thread
    // of its own as the server's writer is (see the query replay below).
    let mut residual: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    std::thread::scope(|scope| {
        scope
            .spawn(|| -> Result<(), String> {
                let limits = Limits::default();
                let round = update_round(w);
                let first: Vec<&crate::drive::UpdateSample> =
                    pass.updates.iter().filter(|u| u.round == 0).collect();
                let mut applied = 0usize;
                for (index, kind) in round.iter().enumerate() {
                    let body = kind.body();
                    let mut layers = 0.0;
                    let req = request_bytes("POST", "/update", &[], body.as_bytes());
                    let t = Instant::now();
                    let parsed =
                        matches!(parse_request(&req, &limits), ParseOutcome::Complete { .. });
                    let parse_us = us(t);
                    layers += parse_us;
                    if !parsed {
                        return Err("update request did not parse".into());
                    }
                    s.push("server.http_parse_us", parse_us, "us");
                    let t = Instant::now();
                    let ops = decode_update_body(&body).map_err(|e| e.to_string())?;
                    let d = us(t);
                    layers += d;
                    s.push("server.update_decode_us", d, "us");

                    // Journal append of the same script, on a side journal.
                    let encoded: Vec<ScriptedOp> = ops
                        .iter()
                        .map(|op| match op {
                            ScriptOp::Insert(t) => ScriptedOp::Insert(encode(&mut world.dict, t)),
                            ScriptOp::Delete(t) => ScriptedOp::Delete(encode(&mut world.dict, t)),
                        })
                        .collect();
                    let record = JournalRecord::UpdateScript {
                        new_terms: Vec::new(),
                        ops: encoded.clone(),
                    };
                    let t = Instant::now();
                    probe.append_deferred(&record).map_err(|e| e.to_string())?;
                    s.push("durability.append_us", us(t), "us");

                    // RDFS maintenance of the same triples.
                    let triples: Vec<Triple> = encoded
                        .iter()
                        .map(|o| match o {
                            ScriptedOp::Insert(t) | ScriptedOp::Delete(t) => *t,
                        })
                        .collect();
                    let t = Instant::now();
                    let st = match kind {
                        UpdateKind::InstanceInsert(_) | UpdateKind::SchemaInsert => {
                            maintainer.insert_batch(&triples)
                        }
                        _ => maintainer.delete_batch(&triples),
                    };
                    let m = us(t);
                    match kind {
                        UpdateKind::InstanceInsert(_) | UpdateKind::InstanceDelete(_) => {
                            s.push(format!("rdfs.maintain_us.{}", kind.name()), m, "us")
                        }
                        _ => s.push(format!("rdfs.maintain_ms.{}", kind.name()), m / 1e3, "ms"),
                    }
                    s.push(
                        "rdfs.entailed_per_update",
                        (st.added + st.removed) as f64,
                        "count",
                    );

                    // The writer's path: journal + apply, group fsync, publish, views.
                    let before = fsize(&journal);
                    let t = Instant::now();
                    ds.apply_script_deferred(&ops).map_err(|e| e.to_string())?;
                    layers += us(t);
                    let t = Instant::now();
                    ds.sync_group().map_err(|e| e.to_string())?;
                    let f = us(t);
                    layers += f;
                    s.push("durability.fsync_us", f, "us");
                    s.push("durability.bytes_per_update", fsize(&journal) - before, "B");
                    let t = Instant::now();
                    let delta = ds.take_delta();
                    layers += us(t);
                    let t = Instant::now();
                    ds.publish();
                    let p = us(t);
                    layers += p;
                    s.push("core.publish_ms", p / 1e3, "ms");
                    let next = reader.snapshot();
                    let t = Instant::now();
                    hub.publish(&prev, &next, &delta);
                    let h = us(t);
                    layers += h;
                    match kind {
                        UpdateKind::SchemaInsert | UpdateKind::SchemaDelete => {
                            s.push("incremental.reset_ms", h / 1e3, "ms")
                        }
                        _ => s.push("incremental.publish_us", h, "us"),
                    }
                    let rows: usize = view_ids
                        .iter()
                        .filter_map(|id| hub.catch_up(*id, prev.epoch()))
                        .flat_map(|c| c.batches)
                        .map(|b| b.events.len())
                        .sum();
                    s.push("incremental.delta_rows_per_update", rows as f64, "count");
                    prev = next;
                    applied += 1;
                    if applied.is_multiple_of(checkpoint_every(w)) {
                        let t = Instant::now();
                        let path = ds.checkpoint().map_err(|e| e.to_string())?;
                        s.push("durability.checkpoint_ms", us(t) / 1e3, "ms");
                        s.push("durability.checkpoint_mb", fsize(&path) / 1e6, "MB");
                    }
                    if let Some(u) = first.iter().find(|u| u.index == index && u.ok) {
                        residual
                            .entry(Class::Update)
                            .or_default()
                            .push(u.latency.as_secs_f64() * 1e6 - layers);
                    }
                }
                Ok(())
            })
            .join()
            .expect("update replay panicked")
    })?;

    // Query replay: the first round of every connection, on a thread of
    // its own as the server's workers are (the main thread's allocator
    // arena holds every graph built above, which slows small allocations).
    let dict_before = reader.dictionary().len();
    let mut ratio = Ratios::default();
    std::thread::scope(|scope| {
        scope
            .spawn(|| replay_queries(pass, &mut world, &reader, &mut ratio, &mut s, &mut residual))
            .join()
            .expect("query replay panicked")
    })?;
    s.push(
        "core.dict_terms_added",
        (reader.dictionary().len() - dict_before) as f64,
        "count",
    );

    let mut out = Metrics::default();
    for (name, (v, unit)) in &s.0 {
        out.set(name.clone(), quantile(v, 0.5), unit);
    }
    for (class, v) in &residual {
        let (name, scale) = class_key(*class, "server.residual");
        let unit = if *class == Class::Lookup { "us" } else { "ms" };
        out.set(name, quantile(v, 0.5) * scale, unit);
    }
    out.set(
        "sparql.union.branches",
        ratio.union_branches as f64 / ratio.union_runs.max(1) as f64,
        "count",
    );
    out.set(
        "sparql.union.scan_cache_hit_ratio",
        ratio.cache_hits as f64 / (ratio.cache_hits + ratio.cache_misses).max(1) as f64,
        "ratio",
    );
    out.set(
        "sparql.range.branches_collapsed_ratio",
        ratio.collapsed as f64 / (ratio.collapsed + ratio.range_branches).max(1) as f64,
        "ratio",
    );
    out.set(
        "sparql.range.range_scans",
        ratio.range_scans as f64 / ratio.range_runs.max(1) as f64,
        "count",
    );
    out.set(
        "reformulation.branches",
        ratio.rewrite_branches as f64 / ratio.rewrites.max(1) as f64,
        "count",
    );
    Ok(out)
}

fn replay_queries(
    pass: &Pass,
    world: &mut World,
    reader: &webreason_core::StoreReader,
    ratio: &mut Ratios,
    s: &mut Samples,
    residual: &mut BTreeMap<Class, Vec<f64>>,
) -> Result<(), String> {
    let mut rewrites: HashMap<(String, &'static str), Rewrite> = HashMap::new();
    for (conn, ops) in pass.query_ops.iter().enumerate() {
        for (index, op) in ops.iter().enumerate() {
            let layers = replay_query(op, world, reader, &mut rewrites, ratio, s)?;
            let sample = pass
                .queries
                .iter()
                .find(|q| q.conn == conn && q.round == 0 && q.index == index && q.ok);
            if let Some(q) = sample {
                residual
                    .entry(op.tpl.class())
                    .or_default()
                    .push(q.latency.as_secs_f64() * 1e6 - layers);
            }
        }
    }
    Ok(())
}

fn encode(dict: &mut Dictionary, t: &[rdf_model::Term; 3]) -> Triple {
    Triple::new(dict.encode(&t[0]), dict.encode(&t[1]), dict.encode(&t[2]))
}

/// A compiled rewriting, cached per query text and strategy as the store
/// caches it per schema version.
enum Rewrite {
    Union(Query),
    Interval(IntervalQuery),
}

#[derive(Default)]
struct Ratios {
    union_runs: u64,
    union_branches: u64,
    cache_hits: u64,
    cache_misses: u64,
    range_runs: u64,
    range_branches: u64,
    collapsed: u64,
    range_scans: u64,
    rewrites: u64,
    rewrite_branches: u64,
}

/// Times one query's layers. Every strategy's evaluation is timed, so
/// each workload measures every path; only the path the socket pass took
/// counts towards the residual. Returns that path's layer sum, µs.
fn replay_query(
    op: &QueryOp,
    world: &mut World,
    reader: &webreason_core::StoreReader,
    rewrites: &mut HashMap<(String, &'static str), Rewrite>,
    ratio: &mut Ratios,
    s: &mut Samples,
) -> Result<f64, String> {
    let class = op.tpl.class();
    let headers: Vec<(&str, &str)> = op
        .strategy
        .map(|st| vec![("X-Webreason-Strategy", st)])
        .unwrap_or_default();
    let req = request_bytes("POST", "/query", &headers, op.sparql.as_bytes());
    let limits = Limits::default();
    let t = Instant::now();
    let parsed = matches!(parse_request(&req, &limits), ParseOutcome::Complete { .. });
    let mut layers = us(t);
    if !parsed {
        return Err("query request did not parse".into());
    }
    s.push("server.http_parse_us", layers, "us");
    let t = Instant::now();
    reader.prepare(&op.sparql).map_err(|e| e.to_string())?;
    let p = us(t);
    layers += p;
    s.push("core.prepare_us", p, "us");
    let t = Instant::now();
    let q = sparql::parse_query(&op.sparql, &mut world.dict).map_err(|e| e.to_string())?;
    s.push("sparql.parse_us", us(t), "us");

    let taken = op.strategy.unwrap_or("saturation");
    let threads = NonZeroUsize::MIN;
    let mut answer: Option<Solutions> = None;
    for strategy in STRATEGIES {
        let mut cost = 0.0;
        let key = (op.sparql.clone(), strategy);
        let sols = match strategy {
            "saturation" => {
                let t = Instant::now();
                let sols = sparql::evaluate(&world.saturated, &q);
                cost += record(s, class, "sparql.eval", us(t));
                sols
            }
            "reformulation" => {
                if !rewrites.contains_key(&key) {
                    let t = Instant::now();
                    let r =
                        reformulate(&q, &world.schema, &world.vocab).map_err(|e| e.to_string())?;
                    let d = us(t);
                    cost += d;
                    s.push("reformulation.rewrite_us", d, "us");
                    ratio.rewrites += 1;
                    ratio.rewrite_branches += r.query.bgps.len() as u64;
                    rewrites.insert(key.clone(), Rewrite::Union(r.query));
                }
                let Some(Rewrite::Union(qr)) = rewrites.get(&key) else {
                    unreachable!("union rewrite cached above")
                };
                let t = Instant::now();
                let (sols, st) = sparql::evaluate_union(&world.base, qr, threads);
                cost += record(s, class, "sparql.union", us(t));
                ratio.union_runs += 1;
                ratio.union_branches += st.branches_total as u64;
                ratio.cache_hits += st.scan_cache_hits;
                ratio.cache_misses += st.scan_cache_misses;
                sols
            }
            "interval" => {
                if !rewrites.contains_key(&key) {
                    let t = Instant::now();
                    let iq =
                        reformulate_intervals(&q, &world.schema, &world.vocab, world.idict.clone())
                            .map_err(|e| e.to_string())?;
                    let d = us(t);
                    cost += d;
                    s.push("reformulation.interval_rewrite_us", d, "us");
                    rewrites.insert(key.clone(), Rewrite::Interval(iq));
                }
                let Some(Rewrite::Interval(iq)) = rewrites.get(&key) else {
                    unreachable!("interval rewrite cached above")
                };
                let t = Instant::now();
                let (sols, st) = sparql::evaluate_interval(&world.base, iq, threads);
                cost += record(s, class, "sparql.range", us(t));
                ratio.range_runs += 1;
                ratio.range_branches += st.branches_total as u64;
                ratio.collapsed += st.branches_collapsed as u64;
                ratio.range_scans += st.range_scans;
                sols
            }
            _ => {
                let t = Instant::now();
                let sols = evaluate_backward(&world.base, &world.schema, &world.vocab, &q);
                cost += record(s, class, "core.backward", us(t));
                sols
            }
        };
        if strategy == taken {
            layers += cost;
            answer = Some(sols);
        }
    }
    let sols = answer.ok_or("strategy not replayed")?;
    let t = Instant::now();
    let sols = sparql::finalize(sols, &q, &mut world.dict);
    let f = us(t);
    layers += f;
    record(s, class, "sparql.finalize", f);

    // The server's reply: decode rows, serialise, frame.
    let t = Instant::now();
    let rows: Vec<Vec<String>> = sols
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|id| {
                    world
                        .dict
                        .decode(*id)
                        .map_or_else(|| id.to_string(), |t| t.to_string())
                })
                .collect()
        })
        .collect();
    let body = serde_json::to_string(&QueryResponse {
        vars: sols.var_names.clone(),
        rows,
        epoch: 0,
        stats: None,
    })
    .map_err(|_| "serialise")?;
    let resp = write_response(200, "OK", "application/json", &[], body.as_bytes());
    let e = us(t);
    layers += e;
    record(s, class, "server.encode", e);
    if class == Class::Scan {
        s.push("server.response_kb.scan", resp.len() as f64 / 1024.0, "KB");
    }
    Ok(layers)
}

/// Records a per-class timing under `<base>_us.lookup` or `<base>_ms.scan`
/// and returns it, µs.
fn record(s: &mut Samples, class: Class, base: &str, micros: f64) -> f64 {
    let (name, scale) = class_key(class, base);
    let unit = if class == Class::Lookup { "us" } else { "ms" };
    s.push(name, micros * scale, unit);
    micros
}
