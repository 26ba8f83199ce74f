//! The server process: loads the generated N-Triples into a journaled
//! store, serves it over loopback, and on `stop` (or end of stdin) shuts
//! down and writes the live state for the recovery check.
//!
//! `perfbench serve <nt-file> <journal-dir> <config> <threads> <checkpoint-every>`

use std::io::{BufRead, Write};
use std::num::NonZeroUsize;

use webreason_core::{DurableStore, FsyncPolicy, ReasoningConfig};
use webreason_server::{Server, ServerConfig};

pub fn main(args: &[String]) -> Result<(), String> {
    let [nt, dir, config, threads, checkpoint_every] = args else {
        return Err(
            "usage: perfbench serve <nt> <dir> <config> <threads> <checkpoint-every>".into(),
        );
    };
    let config = ReasoningConfig::from_name(config).ok_or("unknown config")?;
    let threads: usize = threads.parse().map_err(|_| "bad threads")?;
    let checkpoint_every: usize = checkpoint_every.parse().map_err(|_| "bad checkpoint")?;
    let text = std::fs::read_to_string(nt).map_err(|e| format!("{nt}: {e}"))?;
    let mut store = DurableStore::create(dir, config, NonZeroUsize::MIN, FsyncPolicy::Always)
        .map_err(|e| e.to_string())?;
    store.load_ntriples(&text).map_err(|e| e.to_string())?;
    drop(text);
    let server = Server::start(
        store,
        ServerConfig {
            threads,
            checkpoint_every,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let mut line = String::new();
    while std::io::stdin()
        .lock()
        .read_line(&mut line)
        .map_err(|e| e.to_string())?
        > 0
    {
        if line.trim() == "stop" {
            break;
        }
        line.clear();
    }
    let store = server.shutdown();
    let live = store.store();
    std::fs::write(format!("{dir}.live.nt"), live.export_ntriples()).map_err(|e| e.to_string())?;
    let sat = live.stats().saturated_triples.unwrap_or(0);
    writeln!(out, "stopped {} {}", live.stats().base_triples, sat).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}
