//! Load generation against a serving endpoint over the framed protocol
//! (`cfl_match::serve::proto`), with a per-request timeout so that a server
//! that stops answering turns into counted failures instead of a hang.
//!
//! Frames are read with `proto::read_frame` and decoded with
//! `serve::json::Json`, the same calls `cfl_match::serve::Client` makes, so
//! the client-side cost measured here is the cost a user of that client pays.

use std::io;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cfl_match::serve::json::Json;
use cfl_match::serve::proto::{read_frame, write_frame};
use cfl_match::EmbeddingChecksum;

/// Why one operation did not succeed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The server refused the request (`{"ok": false, ...}`), e.g. a full
    /// admission queue.
    Rejected(String),
    /// The server admitted the query and then failed it (`{"error": ...}`).
    QueryError(String),
    /// The connection broke or carried something unparseable.
    Io(String),
    /// No complete answer within the per-request timeout.
    Timeout,
    /// The answer differs from the in-process reference.
    Mismatch(String),
}

/// What a completed `submit` returned, as seen by the client.
#[derive(Clone, Debug, Default)]
pub struct Served {
    /// Submit sent until the ack frame was read.
    pub ack: Duration,
    /// The `done.elapsed_ms` field: execution time on the worker.
    pub exec_ms: f64,
    pub embeddings: u64,
    /// The server's digest over what it emitted.
    pub checksum: u64,
    /// Embeddings received in batches, and the digest the client computed
    /// over them.
    pub received: u64,
    pub received_checksum: u64,
    /// Every response byte, length prefixes included.
    pub bytes: u64,
}

/// One connection with a per-request timeout.
pub struct Conn {
    stream: TcpStream,
    timeout: Duration,
}

fn classify(e: &io::Error) -> Failure {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::Timeout,
        _ => Failure::Io(e.to_string()),
    }
}

impl Conn {
    pub fn connect(addr: &str, timeout: Duration) -> Result<Conn, Failure> {
        let stream = TcpStream::connect(addr).map_err(|e| classify(&e))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| classify(&e))?;
        Ok(Conn { stream, timeout })
    }

    fn send(&mut self, payload: &str) -> Result<(), Failure> {
        write_frame(&mut self.stream, payload).map_err(|e| classify(&e))
    }

    /// Reads one frame, failing once the request started at `start` has
    /// run past the timeout (a trickle of frames cannot hold it forever).
    fn recv(&mut self, start: Instant) -> Result<(Json, u64), Failure> {
        if start.elapsed() > self.timeout {
            return Err(Failure::Timeout);
        }
        let text = read_frame(&mut self.stream)
            .map_err(|e| classify(&e))?
            .ok_or_else(|| Failure::Io("server closed the connection".to_string()))?;
        let json = Json::parse(&text).map_err(|e| Failure::Io(e.to_string()))?;
        Ok((json, 4 + text.len() as u64))
    }

    /// One single-frame round trip (`apply-delta`, `stats`, `shutdown`).
    pub fn request(&mut self, payload: &str) -> Result<Json, Failure> {
        let start = Instant::now();
        self.send(payload)?;
        let (reply, _) = self.recv(start)?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(reply)
        } else {
            Err(Failure::Rejected(error_text(&reply)))
        }
    }

    /// Runs one `submit` to its terminal frame, checksumming every streamed
    /// embedding the way `serve::Client` does.
    pub fn submit(&mut self, payload: &str) -> Result<Served, Failure> {
        let start = Instant::now();
        self.send(payload)?;
        let (ack, mut bytes) = self.recv(start)?;
        let ack_at = start.elapsed();
        if ack.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(Failure::Rejected(error_text(&ack)));
        }
        let mut digest = EmbeddingChecksum::new();
        let mut row: Vec<u32> = Vec::new();
        loop {
            let (frame, n) = self.recv(start)?;
            bytes += n;
            if let Some(batch) = frame.get("batch") {
                for emb in batch.as_arr().ok_or_else(|| bad("batch is not an array"))? {
                    row.clear();
                    for v in emb.as_arr().ok_or_else(|| bad("row is not an array"))? {
                        let id = v
                            .as_u64()
                            .and_then(|x| u32::try_from(x).ok())
                            .ok_or_else(|| bad("vertex id is not a u32"))?;
                        row.push(id);
                    }
                    digest.update(&row);
                }
                continue;
            }
            if let Some(msg) = frame.get("error").and_then(Json::as_str) {
                return Err(Failure::QueryError(msg.to_string()));
            }
            let done = frame.get("done").ok_or_else(|| bad("unexpected frame"))?;
            let field = |k: &str| done.get(k).ok_or_else(|| bad(&format!("done without {k}")));
            let hex = field("checksum")?
                .as_str()
                .and_then(|s| s.strip_prefix("0x"))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| bad("checksum is not hex"))?;
            let Json::Num(exec_ms) = *field("elapsed_ms")? else {
                return Err(bad("elapsed_ms is not a number"));
            };
            return Ok(Served {
                ack: ack_at,
                exec_ms,
                embeddings: field("embeddings")?
                    .as_u64()
                    .ok_or_else(|| bad("embeddings is not a count"))?,
                checksum: hex,
                received: digest.count(),
                received_checksum: digest.digest(),
                bytes,
            });
        }
    }
}

fn bad(msg: &str) -> Failure {
    Failure::Io(msg.to_string())
}

fn error_text(reply: &Json) -> String {
    reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("malformed reply")
        .to_string()
}

/// One operation of a load run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// The i-th query request of the run.
    Query(usize),
    /// The i-th delta of the run.
    Delta(usize),
}

/// The outcome of one operation.
#[derive(Clone, Debug)]
pub struct Record {
    pub op: Op,
    /// Open-loop step index (0 in a closed loop).
    pub step: usize,
    /// Client latency: from send in a closed loop, from the due time in an
    /// open loop.
    pub latency: Duration,
    /// How late the open-loop generator sent the request.
    pub send_late: Duration,
    /// Completion time, from the start of the run.
    pub done_at: Duration,
    pub result: Result<Served, Failure>,
}

/// What the load run sends for each operation.
pub trait Plan: Sync {
    fn query_payload(&self, i: usize) -> &str;
    fn delta_payload(&self, i: usize) -> &str;
}

fn execute(
    conn: &mut Option<Conn>,
    addr: &str,
    timeout: Duration,
    plan: &dyn Plan,
    op: Op,
) -> Result<Served, Failure> {
    if conn.is_none() {
        *conn = Some(Conn::connect(addr, timeout)?);
    }
    let c = conn.as_mut().expect("connected above");
    let out = match op {
        Op::Query(i) => c.submit(plan.query_payload(i)),
        Op::Delta(i) => c.request(plan.delta_payload(i)).map(|_| Served::default()),
    };
    // After a timeout or a broken stream the connection may still carry
    // the tail of the old answer: start the next request on a fresh one.
    if matches!(out, Err(Failure::Io(_) | Failure::Timeout)) {
        *conn = None;
    }
    out
}

/// Closed loop: `conns` client threads, each sending its next operation as
/// soon as the previous one completes, until `run_for` has elapsed. With
/// `delta_every = Some(k)`, the second connection sends one delta whenever
/// the run has issued `k` more queries since its last delta, so the deltas
/// are serialized (their insert/delete toggle stays valid).
pub fn closed_loop(
    addr: &str,
    conns: usize,
    run_for: Duration,
    timeout: Duration,
    delta_every: Option<usize>,
    plan: &dyn Plan,
) -> (Vec<Record>, Duration) {
    let counters = Mutex::new((0usize, 0usize)); // (queries, deltas) issued
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..conns {
            let (counters, records) = (&counters, &records);
            s.spawn(move || {
                let mut conn = None;
                let mut mine = Vec::new();
                while start.elapsed() < run_for {
                    let op = {
                        let mut c = counters.lock().expect("counter lock poisoned");
                        match delta_every {
                            Some(k) if t == 1 && c.0 >= (c.1 + 1) * k => {
                                c.1 += 1;
                                Op::Delta(c.1 - 1)
                            }
                            _ => {
                                c.0 += 1;
                                Op::Query(c.0 - 1)
                            }
                        }
                    };
                    let sent = Instant::now();
                    let result = execute(&mut conn, addr, timeout, plan, op);
                    mine.push(Record {
                        op,
                        step: 0,
                        latency: sent.elapsed(),
                        send_late: Duration::ZERO,
                        done_at: start.elapsed(),
                        result,
                    });
                }
                records.lock().expect("record lock poisoned").extend(mine);
            });
        }
    });
    let wall = start.elapsed();
    (records.into_inner().expect("record lock poisoned"), wall)
}

/// One open-loop step: requests fall due at a fixed rate for a fixed time.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub rate: f64,
    pub duration: Duration,
}

/// Per-step outcome counts of an open loop.
#[derive(Clone, Debug, Default)]
pub struct StepTally {
    /// Requests that fell due in the step.
    pub offered: usize,
    /// Requests never sent because the step ended while the connection
    /// that owned them was still busy (the generator fell behind).
    pub dropped: usize,
    /// From the step's start to its last completion.
    pub wall: Duration,
}

/// Open loop: requests fall due on a fixed schedule regardless of how fast
/// the server answers. Request `i` belongs to connection `i % conns`; each
/// connection sends its requests in order, so a slow answer delays the
/// requests queued behind it, and every latency is measured from the
/// request's due time. A request whose step has ended before its
/// connection could send it is dropped rather than sent late into the next
/// step.
pub fn open_loop(
    addr: &str,
    conns: usize,
    steps: &[Step],
    timeout: Duration,
    plan: &dyn Plan,
) -> (Vec<Record>, Vec<StepTally>) {
    // (request index, step, due offset, step end offset)
    let mut schedule: Vec<(usize, usize, Duration, Duration)> = Vec::new();
    let mut tallies = vec![StepTally::default(); steps.len()];
    let mut offset = Duration::ZERO;
    for (si, step) in steps.iter().enumerate() {
        let end = offset + step.duration;
        let mut k = 0u32;
        loop {
            let due = offset + Duration::from_secs_f64(f64::from(k) / step.rate);
            if due >= end {
                break;
            }
            schedule.push((schedule.len(), si, due, end));
            tallies[si].offered += 1;
            k += 1;
        }
        offset = end;
    }

    let records = Mutex::new(Vec::new());
    let dropped = Mutex::new(vec![0usize; steps.len()]);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..conns {
            let (records, dropped, schedule) = (&records, &dropped, &schedule);
            s.spawn(move || {
                let mut conn = None;
                let mut mine = Vec::new();
                for &(i, si, due, end) in schedule.iter().filter(|r| r.0 % conns == t) {
                    let now = start.elapsed();
                    if now >= end {
                        dropped.lock().expect("drop lock poisoned")[si] += 1;
                        continue;
                    }
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = start.elapsed();
                    let result = execute(&mut conn, addr, timeout, plan, Op::Query(i));
                    let done_at = start.elapsed();
                    mine.push(Record {
                        op: Op::Query(i),
                        step: si,
                        latency: done_at.saturating_sub(due),
                        send_late: sent.saturating_sub(due),
                        done_at,
                        result,
                    });
                }
                records.lock().expect("record lock poisoned").extend(mine);
            });
        }
    });
    let records = records.into_inner().expect("record lock poisoned");
    let dropped = dropped.into_inner().expect("drop lock poisoned");
    let mut step_start = Duration::ZERO;
    for (si, tally) in tallies.iter_mut().enumerate() {
        tally.dropped = dropped[si];
        let step_end = step_start + steps[si].duration;
        let last_done = records
            .iter()
            .filter(|r| r.step == si)
            .map(|r| r.done_at)
            .max()
            .unwrap_or(step_end);
        tally.wall = last_done.max(step_end) - step_start;
        step_start = step_end;
    }
    (records, tallies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    struct OnePayload;

    impl Plan for OnePayload {
        fn query_payload(&self, _: usize) -> &str {
            r#"{"op":"submit","query":{"labels":[0,0],"edges":[[0,1]]},"count_only":true}"#
        }
        fn delta_payload(&self, _: usize) -> &str {
            r#"{"op":"apply-delta","insert":[[0,1]]}"#
        }
    }

    const DONE: &str = r#"{"id": 1, "done": {"outcome": "complete", "embeddings": 2, "truncated": false, "checksum": "0xcbf29ce484222325", "search_nodes": 3, "elapsed_ms": 0.250}}"#;

    /// A fake endpoint on one connection: acks every submit and then, for
    /// request `i`, waits `delay(i)` before the terminal frame (`None`:
    /// never answers, until the test says stop).
    fn fake_server(
        delay: impl Fn(usize) -> Option<Duration> + Send + 'static,
    ) -> (String, mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut i = 0;
            while let Ok(Some(_)) = read_frame(&mut s) {
                write_frame(&mut s, r#"{"ok": true, "id": 1}"#).unwrap();
                match delay(i) {
                    Some(d) => std::thread::sleep(d),
                    None => {
                        let _ = stop_rx.recv();
                        return;
                    }
                }
                if write_frame(&mut s, DONE).is_err() {
                    return;
                }
                i += 1;
            }
        });
        (addr, stop_tx, handle)
    }

    #[test]
    fn a_server_that_acks_and_never_answers_is_a_timeout() {
        let (addr, stop, server) = fake_server(|_| None);
        let mut conn = Conn::connect(&addr, Duration::from_millis(200)).unwrap();
        let start = Instant::now();
        assert_eq!(
            conn.submit(OnePayload.query_payload(0)).unwrap_err(),
            Failure::Timeout
        );
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(conn);
        stop.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn a_hung_request_fails_the_load_run_instead_of_hanging_it() {
        let (addr, stop, server) = fake_server(|i| (i < 2).then_some(Duration::ZERO));
        let (records, _) = closed_loop(
            &addr,
            1,
            Duration::from_millis(300),
            Duration::from_millis(200),
            None,
            &OnePayload,
        );
        stop.send(()).unwrap();
        server.join().unwrap();
        assert!(records[..2].iter().all(|r| r.result.is_ok()));
        assert_eq!(records[2].result.as_ref().unwrap_err(), &Failure::Timeout);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Request 0 stalls 300 ms; the requests falling due every 20 ms
        // behind it on the same connection are answered at once.
        let stall = Duration::from_millis(300);
        let (addr, stop, server) =
            fake_server(move |i| Some(if i == 0 { stall } else { Duration::ZERO }));
        let steps = [Step {
            rate: 50.0,
            duration: Duration::from_secs(2),
        }];
        let (mut records, tallies) =
            open_loop(&addr, 1, &steps, Duration::from_secs(5), &OnePayload);
        drop(stop);
        server.join().unwrap();
        records.sort_by_key(|r| match r.op {
            Op::Query(i) | Op::Delta(i) => i,
        });
        assert_eq!(tallies[0].offered, 100);
        // Every request that fell due during the stall waited until it
        // ended, so its latency includes that wait.
        assert!(records[0].latency >= stall);
        for (i, r) in records.iter().enumerate().take(15).skip(1) {
            let due = Duration::from_millis(20 * i as u64);
            assert!(r.latency + due >= stall, "request {i}: {:?}", r.latency);
            assert!(r.send_late + due >= stall, "request {i} was not sent late");
        }
    }
}
