//! Length-prefixed JSON wire protocol for the serving engine.
//!
//! # Framing
//!
//! Every message — both directions — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Frames larger than [`MAX_FRAME`] are rejected, so a corrupt or hostile
//! length prefix cannot make the server allocate unboundedly.
//! [`write_frame`] sends header and payload in one write, and the server
//! sets `TCP_NODELAY` on every accepted stream, so no frame waits for the
//! peer's delayed ACK.
//!
//! # Requests
//!
//! Each request is a JSON object with an `"op"` member:
//!
//! | op            | fields                                                        |
//! |---------------|---------------------------------------------------------------|
//! | `submit`      | `graph?`, `query{labels,edges}`, `limit?`, `deadline_ms?`, `order?`, `pruning?`, `label_pair?`, `count_only?` |
//! | `cancel`      | `id`                                                          |
//! | `apply-delta` | `graph?`, `insert?: [[u,v],…]`, `delete?: [[u,v],…]`          |
//! | `stats`       | —                                                             |
//! | `shutdown`    | —                                                             |
//!
//! `graph` defaults to `"default"`. `order` is `"static"`/`"adaptive"`,
//! `pruning` is `"plain"`/`"failing-set"` — the same vocabulary as the
//! CLI's `--order`/`--pruning` flags.
//!
//! # Responses
//!
//! A `submit` answers `{"ok":true,"id":N}` and then streams
//! `{"id":N,"batch":[[…],…]}` frames followed by exactly one terminal
//! frame: `{"id":N,"done":{…}}` or `{"id":N,"error":"…"}`. The `done`
//! object carries `outcome` (see `MatchOutcome::as_tag`), `embeddings`,
//! `truncated`, `checksum` (hex string — JSON numbers cannot carry 64-bit
//! integers exactly), `search_nodes` and `elapsed_ms`. Other ops answer a
//! single `{"ok":…}` frame. Failures are
//! `{"ok":false,"error":"…","retry":B}` where `retry:true` marks
//! transient conditions (queue full).

use std::io::{self, Read, Write};
use std::time::Duration;

use cfl_graph::{graph_from_edges, GraphDelta, VertexId};
use cfl_trace::ServeTrace;

use super::engine::{QueryDone, QuerySpec};
use super::json::{escape, Json};
use crate::config::{MatchConfig, OrderStrategy, PruningKind};

/// Maximum frame payload accepted or produced (16 MiB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one frame (length prefix + payload) with a single `write_all`
/// and flushes. Header and payload go out together: written separately
/// to a socket, the payload would wait behind the unacknowledged header
/// for the peer's delayed ACK (Nagle's algorithm, about 40 ms on Linux).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on a clean end-of-stream *between* frames;
/// EOF inside a frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside frame header",
            ));
        }
        got += n;
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not utf-8"))
}

/// A decoded client request.
#[derive(Debug)]
pub enum Request {
    /// Run one query.
    Submit(QuerySpec),
    /// Cancel a live query by id.
    Cancel {
        /// Engine-assigned query id.
        id: u64,
    },
    /// Apply an edge delta to a named graph.
    ApplyDelta {
        /// Target graph name.
        graph: String,
        /// The batch of edits.
        delta: GraphDelta,
    },
    /// Snapshot the serving counters.
    Stats,
    /// Stop accepting connections and exit the server loop.
    Shutdown,
}

fn edge_pairs(v: &Json, what: &str) -> Result<Vec<(VertexId, VertexId)>, String> {
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("{what} must be an array"))?;
    let mut out = Vec::with_capacity(arr.len());
    for pair in arr {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{what} entries must be [u, v] pairs"))?;
        let u = pair[0]
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| format!("{what} endpoints must be u32"))?;
        let v = pair[1]
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| format!("{what} endpoints must be u32"))?;
        out.push((u, v));
    }
    Ok(out)
}

/// The optional `graph` member: absent means `"default"`, anything but a
/// string is an error.
fn graph_name(v: &Json) -> Result<String, String> {
    match v.get("graph") {
        None => Ok("default".to_string()),
        Some(g) => g
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "graph must be a string".to_string()),
    }
}

/// An optional boolean member: absent means `false`, anything but a bool
/// is an error.
fn flag(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(false),
        Some(b) => b.as_bool().ok_or_else(|| format!("{key} must be a bool")),
    }
}

fn parse_submit(v: &Json) -> Result<QuerySpec, String> {
    let graph = graph_name(v)?;
    let q = v.get("query").ok_or("submit requires a query object")?;
    let labels: Vec<u32> = q
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or("query.labels must be an array")?
        .iter()
        .map(|l| {
            l.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or("query.labels entries must be u32")
        })
        .collect::<Result<_, _>>()?;
    let edges = edge_pairs(
        q.get("edges").unwrap_or(&Json::Arr(Vec::new())),
        "query.edges",
    )?;
    let query = graph_from_edges(&labels, &edges).map_err(|e| format!("invalid query: {e}"))?;

    let mut config = MatchConfig::exhaustive();
    match v.get("order").map(|o| o.as_str()) {
        None | Some(Some("static")) => {}
        Some(Some("adaptive")) => config.order = OrderStrategy::Adaptive,
        Some(other) => {
            return Err(format!(
                "unknown order {other:?} (expected \"static\" or \"adaptive\")"
            ))
        }
    }
    match v.get("pruning").map(|o| o.as_str()) {
        None | Some(Some("plain")) => {}
        Some(Some("failing-set")) => config = config.with_pruning(PruningKind::FailingSet),
        Some(other) => {
            return Err(format!(
                "unknown pruning {other:?} (expected \"plain\" or \"failing-set\")"
            ))
        }
    }
    if flag(v, "label_pair")? {
        let mut filters = config.filters;
        filters.use_label_pair = true;
        config = config.with_filters(filters);
    }

    let limit = match v.get("limit") {
        None | Some(Json::Null) => None,
        Some(j) => Some(j.as_u64().ok_or("limit must be a non-negative integer")?),
    };
    let deadline = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(j) => Some(Duration::from_millis(
            j.as_u64()
                .ok_or("deadline_ms must be a non-negative integer")?,
        )),
    };
    let count_only = flag(v, "count_only")?;
    Ok(QuerySpec {
        graph,
        query,
        config,
        limit,
        deadline,
        count_only,
    })
}

/// Decodes one request frame.
pub fn parse_request(text: &str) -> Result<Request, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request requires a string \"op\" member")?;
    match op {
        "submit" => parse_submit(&v).map(Request::Submit),
        "cancel" => {
            let id = v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("cancel requires a numeric id")?;
            Ok(Request::Cancel { id })
        }
        "apply-delta" => {
            let graph = graph_name(&v)?;
            let mut delta = GraphDelta::new();
            if let Some(ins) = v.get("insert") {
                for (u, w) in edge_pairs(ins, "insert")? {
                    delta.insert(u, w);
                }
            }
            if let Some(del) = v.get("delete") {
                for (u, w) in edge_pairs(del, "delete")? {
                    delta.delete(u, w);
                }
            }
            if delta.is_empty() {
                return Err("apply-delta requires insert and/or delete edges".to_string());
            }
            Ok(Request::ApplyDelta { graph, delta })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Response encoders (hand-written JSON, like every producer in this
// workspace).
// ---------------------------------------------------------------------

/// `submit` accepted.
#[must_use]
pub fn encode_submitted(id: u64) -> String {
    format!("{{\"ok\": true, \"id\": {id}}}")
}

/// A batch of embeddings for query `id`.
#[must_use]
pub fn encode_batch(id: u64, batch: &[Vec<VertexId>]) -> String {
    let mut out = format!("{{\"id\": {id}, \"batch\": [");
    for (i, emb) in batch.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (j, v) in emb.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Terminal success frame for query `id`.
#[must_use]
pub fn encode_done(id: u64, done: &QueryDone) -> String {
    format!(
        "{{\"id\": {id}, \"done\": {{\"outcome\": \"{}\", \"embeddings\": {}, \
         \"truncated\": {}, \"checksum\": \"0x{:016x}\", \"search_nodes\": {}, \
         \"elapsed_ms\": {:.3}}}}}",
        done.outcome.as_tag(),
        done.embeddings,
        done.truncated,
        done.checksum,
        done.search_nodes,
        done.elapsed.as_secs_f64() * 1e3,
    )
}

/// Terminal failure frame for query `id`.
#[must_use]
pub fn encode_query_error(id: u64, msg: &str) -> String {
    format!("{{\"id\": {id}, \"error\": \"{}\"}}", escape(msg))
}

/// Request-level failure frame; `retry` marks transient conditions.
#[must_use]
pub fn encode_error(msg: &str, retry: bool) -> String {
    format!(
        "{{\"ok\": false, \"error\": \"{}\", \"retry\": {retry}}}",
        escape(msg)
    )
}

/// `cancel` response; `cancelled` is whether the id was live.
#[must_use]
pub fn encode_cancelled(cancelled: bool) -> String {
    format!("{{\"ok\": true, \"cancelled\": {cancelled}}}")
}

/// `apply-delta` success response.
#[must_use]
pub fn encode_delta_applied(epoch: u64, plans_refreshed: u64) -> String {
    format!("{{\"ok\": true, \"epoch\": {epoch}, \"plans_refreshed\": {plans_refreshed}}}")
}

/// `stats` response wrapping the counter snapshot.
#[must_use]
pub fn encode_stats(trace: &ServeTrace) -> String {
    format!("{{\"ok\": true, \"stats\": {}}}", trace.to_json())
}

/// `shutdown` acknowledgement.
#[must_use]
pub fn encode_ok() -> String {
    "{\"ok\": true}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::MatchOutcome;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\": \"stats\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\": \"stats\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean eof");
    }

    /// A `Write` that counts `write` calls and accepts every byte.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        for (i, payload) in ["", "{\"op\": \"stats\"}", &"x".repeat(70_000)]
            .into_iter()
            .enumerate()
        {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, i + 1, "frame {i} took more than one write");
        }
        let mut r = io::Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\": \"stats\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().map(|s| s.len()), Some(70_000));
    }

    #[test]
    fn truncated_frames_are_errors() {
        // EOF inside the header.
        let mut r = io::Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut r).is_err());
        // EOF inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut header = Vec::from(((MAX_FRAME + 1) as u32).to_be_bytes());
        header.extend_from_slice(b"x");
        let mut r = io::Cursor::new(header);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn parses_submit_with_strategies() {
        let req = parse_request(
            r#"{"op":"submit","graph":"g","query":{"labels":[0,1,2],"edges":[[0,1],[1,2],[2,0]]},
                "limit":10,"deadline_ms":250,"order":"adaptive","pruning":"failing-set",
                "label_pair":true,"count_only":false}"#,
        )
        .unwrap();
        let Request::Submit(spec) = req else {
            panic!("expected submit")
        };
        assert_eq!(spec.graph, "g");
        assert_eq!(spec.query.num_vertices(), 3);
        assert_eq!(spec.limit, Some(10));
        assert_eq!(spec.deadline, Some(Duration::from_millis(250)));
        assert!(!spec.count_only);
        assert_eq!(spec.config.order, OrderStrategy::Adaptive);
        assert_eq!(spec.config.pruning, PruningKind::FailingSet);
        assert!(spec.config.filters.use_label_pair);
    }

    #[test]
    fn submit_defaults_are_conservative() {
        let req =
            parse_request(r#"{"op":"submit","query":{"labels":[0,0],"edges":[[0,1]]}}"#).unwrap();
        let Request::Submit(spec) = req else {
            panic!("expected submit")
        };
        assert_eq!(spec.graph, "default");
        assert_eq!(spec.limit, None);
        assert_eq!(spec.deadline, None);
        assert_eq!(spec.config.order, OrderStrategy::Greedy);
        assert_eq!(spec.config.pruning, PruningKind::Plain);
    }

    #[test]
    fn parses_cancel_delta_stats_shutdown() {
        assert!(matches!(
            parse_request(r#"{"op":"cancel","id":7}"#).unwrap(),
            Request::Cancel { id: 7 }
        ));
        let Request::ApplyDelta { graph, delta } =
            parse_request(r#"{"op":"apply-delta","insert":[[0,3]],"delete":[[1,2]]}"#).unwrap()
        else {
            panic!("expected apply-delta")
        };
        assert_eq!(graph, "default");
        assert_eq!(delta.inserts(), &[(0, 3)]);
        assert_eq!(delta.deletes(), &[(1, 2)]);
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"no_op":1}"#,
            r#"{"op":"cancel"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","query":{"labels":[0],"edges":[[0,1,2]]}}"#,
            r#"{"op":"submit","query":{"labels":[0,1],"edges":[[0,1]]},"order":"fancy"}"#,
            r#"{"op":"apply-delta"}"#,
            r#"{"op":"apply-delta","graph":7,"insert":[[0,1]]}"#,
            r#"{"op":"apply-delta","graph":null,"insert":[[0,1]]}"#,
            r#"{"op":"submit","query":{"labels":[0,1],"edges":[[0,1]]},"graph":null}"#,
            r#"{"op":"submit","query":{"labels":[0,1],"edges":[[0,1]]},"count_only":1}"#,
            r#"{"op":"submit","query":{"labels":[0,1],"edges":[[0,1]]},"count_only":"yes"}"#,
            r#"{"op":"submit","query":{"labels":[0,1],"edges":[[0,1]]},"label_pair":1}"#,
            r#"{"op":"submit","query":{"labels":[0,1],"edges":[[0,1]]},"label_pair":null}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn encoders_emit_parseable_json() {
        let done = QueryDone {
            outcome: MatchOutcome::LimitReached,
            embeddings: 10,
            truncated: true,
            checksum: 0xdead_beef_0000_0001,
            search_nodes: 123,
            elapsed: Duration::from_micros(1500),
        };
        for payload in [
            encode_submitted(3),
            encode_batch(3, &[vec![0, 1], vec![2, 3]]),
            encode_done(3, &done),
            encode_query_error(3, "bad \"query\""),
            encode_error("queue full", true),
            encode_cancelled(true),
            encode_delta_applied(2, 5),
            encode_stats(&ServeTrace::default()),
            encode_ok(),
        ] {
            let v = Json::parse(&payload).unwrap_or_else(|e| panic!("{payload}: {e}"));
            assert!(matches!(v, Json::Obj(_)));
        }
        let v = Json::parse(&encode_done(3, &done)).unwrap();
        assert_eq!(
            v.get("done")
                .and_then(|d| d.get("checksum"))
                .and_then(Json::as_str),
            Some("0xdeadbeef00000001")
        );
        let v = Json::parse(&encode_batch(3, &[vec![0, 1]])).unwrap();
        assert_eq!(
            v.get("batch").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }
}
