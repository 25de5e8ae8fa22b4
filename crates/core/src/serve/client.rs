//! A small blocking client for the serving protocol, used by the
//! integration tests; the repository benchmark builds its requests with
//! [`submit_payload`]. One [`Client`] wraps one TCP connection and mirrors
//! the protocol's synchronous, one-request-at-a-time shape.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use std::fmt::Write as _;

use cfl_graph::{Graph, VertexId};

use super::json::{escape, Json};
use super::proto::{read_frame, write_frame};
use crate::result::EmbeddingChecksum;

/// Serializes a `submit` request for `query` against the named graph.
/// `limit`/`deadline_ms` override the engine defaults; `count_only`
/// suppresses batch streaming. Strategy fields are left at the protocol
/// defaults (static ordering, plain pruning) — callers needing them can
/// build the payload by hand.
#[must_use]
pub fn submit_payload(
    graph: &str,
    query: &Graph,
    limit: Option<u64>,
    deadline_ms: Option<u64>,
    count_only: bool,
) -> String {
    let mut s = format!("{{\"op\":\"submit\",\"graph\":\"{}\",", escape(graph));
    s.push_str("\"query\":{\"labels\":[");
    for (i, &l) in query.labels().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{l}");
    }
    s.push_str("],\"edges\":[");
    for (i, (u, v)) in query.edges().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{u},{v}]");
    }
    s.push_str("]}");
    if let Some(n) = limit {
        let _ = write!(s, ",\"limit\":{n}");
    }
    if let Some(ms) = deadline_ms {
        let _ = write!(s, ",\"deadline_ms\":{ms}");
    }
    if count_only {
        s.push_str(",\"count_only\":true");
    }
    s.push('}');
    s
}

/// Client-side summary of one streamed query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Engine-assigned query id.
    pub id: u64,
    /// Outcome tag from the terminal frame (`"complete"`, `"limit"`,
    /// `"deadline"`, `"cancelled"`).
    pub outcome: String,
    /// Embedding count reported by the server.
    pub embeddings: u64,
    /// Whether the run stopped before exhausting the search.
    pub truncated: bool,
    /// Server-computed checksum (hex string, e.g. `"0x00ab…"`).
    pub checksum: String,
    /// Checksum recomputed client-side over the received batches; equals
    /// `checksum` whenever the full stream arrived (it stays at the
    /// empty-digest value for `count_only` queries, which stream nothing).
    pub received_checksum: String,
    /// Embeddings actually received in batches (≤ `embeddings`; 0 for
    /// `count_only` queries).
    pub received: u64,
    /// Search-tree nodes explored, from the terminal frame.
    pub search_nodes: u64,
    /// Server-side execution time in milliseconds.
    pub elapsed_ms: f64,
}

/// One connection to a serving endpoint.
pub struct Client {
    stream: TcpStream,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Sets a read timeout on the underlying socket (useful in tests so a
    /// wedged server fails fast instead of hanging the suite).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one raw JSON payload as a frame.
    pub fn send(&mut self, payload: &str) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Receives one frame and parses it; `None` on clean server close.
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        match read_frame(&mut self.stream)? {
            None => Ok(None),
            Some(text) => Json::parse(&text).map(Some).map_err(|e| bad(e.to_string())),
        }
    }

    /// One non-streaming round trip (cancel / apply-delta / stats /
    /// shutdown): sends `payload`, returns the single response frame.
    pub fn request(&mut self, payload: &str) -> io::Result<Json> {
        self.send(payload)?;
        self.recv()?.ok_or_else(|| bad("server closed connection"))
    }

    /// Runs one `submit` to its terminal frame, invoking `on_batch` for
    /// every received embedding batch. Returns `Ok(Err(msg))` when the
    /// server rejected or failed the query.
    pub fn run_query_with(
        &mut self,
        payload: &str,
        mut on_batch: impl FnMut(&[Vec<VertexId>]),
    ) -> io::Result<Result<QueryResult, String>> {
        let ack = self.request(payload)?;
        if ack.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = ack
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("malformed rejection")
                .to_string();
            return Ok(Err(msg));
        }
        let id = ack
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("submit ack without id"))?;
        let mut checksum = EmbeddingChecksum::new();
        let mut received: u64 = 0;
        loop {
            let frame = self
                .recv()?
                .ok_or_else(|| bad("server closed mid-stream"))?;
            if let Some(batch) = frame.get("batch") {
                let rows = batch.as_arr().ok_or_else(|| bad("batch is not an array"))?;
                let mut decoded = Vec::with_capacity(rows.len());
                for row in rows {
                    let emb: Vec<VertexId> = row
                        .as_arr()
                        .ok_or_else(|| bad("embedding is not an array"))?
                        .iter()
                        .map(|v| {
                            v.as_u64()
                                .and_then(|x| u32::try_from(x).ok())
                                .ok_or_else(|| bad("vertex id is not a u32"))
                        })
                        .collect::<io::Result<_>>()?;
                    checksum.update(&emb);
                    decoded.push(emb);
                }
                received += decoded.len() as u64;
                on_batch(&decoded);
                continue;
            }
            if let Some(msg) = frame.get("error").and_then(Json::as_str) {
                return Ok(Err(msg.to_string()));
            }
            let Some(done) = frame.get("done") else {
                return Err(bad("unexpected frame in query stream"));
            };
            let field_u64 = |k: &str| {
                done.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(format!("done frame missing {k}")))
            };
            return Ok(Ok(QueryResult {
                id,
                outcome: done
                    .get("outcome")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("done frame missing outcome"))?
                    .to_string(),
                embeddings: field_u64("embeddings")?,
                truncated: done
                    .get("truncated")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("done frame missing truncated"))?,
                checksum: done
                    .get("checksum")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("done frame missing checksum"))?
                    .to_string(),
                received_checksum: format!("0x{:016x}", checksum.digest()),
                received,
                search_nodes: field_u64("search_nodes")?,
                elapsed_ms: match done.get("elapsed_ms") {
                    Some(Json::Num(n)) => *n,
                    _ => return Err(bad("done frame missing elapsed_ms")),
                },
            }));
        }
    }

    /// [`run_query_with`](Self::run_query_with), discarding batch
    /// contents (the checksums still cover them).
    pub fn run_query(&mut self, payload: &str) -> io::Result<Result<QueryResult, String>> {
        self.run_query_with(payload, |_| {})
    }
}
