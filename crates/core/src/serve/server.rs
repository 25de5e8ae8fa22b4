//! TCP front end: one listener, one connection thread per client, the
//! framed protocol from [`super::proto`].
//!
//! The protocol is **synchronous per connection**: a connection processes
//! one request at a time, and a `submit` occupies it until the terminal
//! frame has been written. To cancel a query mid-stream, send the
//! `cancel` op from a *second* connection (or drop the submitting
//! connection — the engine notices the vanished client on its next batch
//! and aborts the query).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};

use super::engine::{Engine, SubmitError};
use super::proto::{
    encode_batch, encode_cancelled, encode_delta_applied, encode_done, encode_error, encode_ok,
    encode_query_error, encode_stats, encode_submitted, parse_request, read_frame, write_frame,
    Request,
};
use super::QueryEvent;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// A running serving endpoint. Dropping it stops the accept loop;
/// established connections run until their client disconnects.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, port `0` for an ephemeral
    /// port) and starts accepting connections against `engine`.
    pub fn start(engine: Arc<Engine>, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = thread::Builder::new()
            .name("cfl-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &engine, &accept_stop))?;
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Equivalent to dropping the
    /// server, but explicit at call sites that care about ordering.
    pub fn shutdown(self) {}

    /// Blocks until the accept loop exits — i.e. until a client sends the
    /// `shutdown` op (or the loop dies). This is how `cfl serve` parks its
    /// main thread.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Drop still runs `stop_accepting`; with `accept` taken it only
        // sets the (already moot) stop flag.
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, stop: &Arc<AtomicBool>) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = conn else {
            continue; // transient accept error; keep serving
        };
        let engine = Arc::clone(engine);
        let stop = Arc::clone(stop);
        let spawned = thread::Builder::new()
            .name("cfl-serve-conn".to_string())
            .spawn(move || {
                let _ = serve_connection(stream, &engine, &stop);
            });
        if spawned.is_err() {
            // Out of threads: drop the connection; the client sees a
            // clean close and can retry.
            continue;
        }
    }
}

/// Prepares an accepted stream for the framed protocol and splits it into
/// a reader and a writer. `TCP_NODELAY` is set so that a small frame
/// (an ack, a `done`) leaves at once instead of waiting for the peer to
/// acknowledge the previous one: with Nagle's algorithm on, each such
/// frame stalls for the peer's delayed ACK, about 40 ms on Linux.
fn split_accepted(stream: TcpStream) -> io::Result<(TcpStream, TcpStream)> {
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    Ok((reader, stream))
}

/// Runs one connection to completion. Returns `Ok(true)` iff the client
/// requested a server shutdown.
fn serve_connection(
    stream: TcpStream,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
) -> io::Result<bool> {
    let (mut reader, mut writer) = split_accepted(stream)?;
    while let Some(frame) = read_frame(&mut reader)? {
        let request = match parse_request(&frame) {
            Ok(r) => r,
            Err(msg) => {
                write_frame(&mut writer, &encode_error(&msg, false))?;
                continue;
            }
        };
        match request {
            Request::Submit(spec) => match engine.submit(spec) {
                Ok(handle) => {
                    write_frame(&mut writer, &encode_submitted(handle.id()))?;
                    let id = handle.id();
                    // If a write fails the client is gone; dropping the
                    // handle aborts the query, and the `?` ends the
                    // connection thread.
                    loop {
                        match handle.recv() {
                            Some(QueryEvent::Batch(batch)) => {
                                write_frame(&mut writer, &encode_batch(id, &batch))?;
                            }
                            Some(QueryEvent::Done(done)) => {
                                write_frame(&mut writer, &encode_done(id, &done))?;
                                break;
                            }
                            Some(QueryEvent::Failed(msg)) => {
                                write_frame(&mut writer, &encode_query_error(id, &msg))?;
                                break;
                            }
                            None => break, // engine shut down mid-query
                        }
                    }
                }
                Err(e) => {
                    let retry = matches!(e, SubmitError::QueueFull);
                    write_frame(&mut writer, &encode_error(&e.to_string(), retry))?;
                }
            },
            Request::Cancel { id } => {
                write_frame(&mut writer, &encode_cancelled(engine.cancel(id)))?;
            }
            Request::ApplyDelta { graph, delta } => match engine.apply_delta(&graph, &delta) {
                Ok(applied) => write_frame(
                    &mut writer,
                    &encode_delta_applied(applied.epoch, applied.plans_refreshed),
                )?,
                Err(e) => write_frame(&mut writer, &encode_error(&e.to_string(), false))?,
            },
            Request::Stats => {
                write_frame(&mut writer, &encode_stats(&engine.stats()))?;
            }
            Request::Shutdown => {
                write_frame(&mut writer, &encode_ok())?;
                stop.store(true, Ordering::SeqCst);
                // Poke the accept loop so it observes the flag.
                let _ = TcpStream::connect(writer.local_addr()?);
                return Ok(true);
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_streams_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let (reader, writer) = split_accepted(accepted).unwrap();
        assert!(writer.nodelay().unwrap());
        assert!(reader.nodelay().unwrap(), "both halves share one socket");
    }
}
