//! A blocking HTTP/1.1 keep-alive client: one request in flight per
//! connection, which is what makes the load closed-loop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One reply, with the socket latency from the first byte written to the
/// last byte read.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub latency: Duration,
}

impl Reply {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Serialises a request exactly as [`Conn::send`] writes it, so the traced
/// pass can hand the same bytes to the server's parser.
pub fn request_bytes(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    for (k, v) in headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, s.try_clone()?),
            writer: s,
        })
    }

    /// Sends one request and reads the whole reply (Content-Length or
    /// chunked). Requests are never retried: an update sent twice would
    /// break the ledger the answer checks rely on.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Reply> {
        let req = request_bytes(method, path, headers, body);
        let start = Instant::now();
        self.writer.write_all(&req)?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            line.clear();
            self.read_line(&mut line)?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                let k = k.trim().to_ascii_lowercase();
                if k == "content-length" {
                    length = v.trim().parse::<usize>().ok();
                } else if k == "transfer-encoding" && v.trim().eq_ignore_ascii_case("chunked") {
                    chunked = true;
                }
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                line.clear();
                self.read_line(&mut line)?;
                let size = usize::from_str_radix(line.trim(), 16)
                    .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
                let mut part = vec![0; size + 2];
                self.reader.read_exact(&mut part)?;
                if size == 0 {
                    break;
                }
                part.truncate(size);
                // Frames are separate JSON documents: keep one per line.
                body.extend_from_slice(&part);
                body.push(b'\n');
            }
        } else {
            body.resize(length.unwrap_or(0), 0);
            self.reader.read_exact(&mut body)?;
        }
        Ok(Reply {
            status,
            body,
            latency: start.elapsed(),
        })
    }

    fn read_line(&mut self, line: &mut String) -> std::io::Result<()> {
        if self.reader.read_line(line)? == 0 {
            return Err(bad("connection closed".into()));
        }
        Ok(())
    }
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}
