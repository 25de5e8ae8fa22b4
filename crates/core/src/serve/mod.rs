//! Query serving: a long-lived engine that answers many matching queries
//! concurrently over shared data graphs, plus a framed TCP front end.
//!
//! The one-shot API ([`find_embeddings`](crate::find_embeddings)) and the
//! session API ([`DataGraph`](crate::DataGraph)) answer one query for one
//! caller. This module turns them into a *service*:
//!
//! * [`Engine`] — owns named graphs (each with an optional shared
//!   [`PlanCache`](crate::PlanCache)), admits queries through a bounded
//!   queue with immediate rejection on overload, executes them on a fixed
//!   worker pool with per-query limits/deadlines/cancellation, streams
//!   embeddings back in batches, and applies edge deltas with snapshot
//!   isolation for in-flight queries;
//! * [`Server`] / [`Client`] — a length-prefixed JSON protocol over TCP
//!   (`cfl serve` on the command line) described in [`proto`];
//! * [`json`] — the minimal JSON reader the protocol needs.
//!
//! Determinism is a design constraint throughout: each query runs
//! single-threaded on its worker, so its embedding sequence — witnessed
//! by [`EmbeddingChecksum`](crate::result::EmbeddingChecksum) — is
//! byte-identical to a serial one-shot run (`cfl match --checksum`)
//! regardless of how many queries the engine is serving concurrently.
//! See `docs/SERVING.md` for the architecture write-up and capacity
//! tuning guidance.

pub mod client;
mod engine;
pub mod json;
pub mod proto;
mod server;

pub use client::{submit_payload, Client, QueryResult};
pub use engine::{
    DeltaApplied, Engine, EngineConfig, QueryDone, QueryEvent, QueryHandle, QuerySpec,
    ServeDeltaError, SubmitError,
};
pub use server::Server;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchConfig;
    use crate::result::{EmbeddingChecksum, MatchOutcome};
    use crate::session::DataGraph;
    use cfl_graph::{graph_from_edges, Graph, GraphDelta};
    use std::sync::Arc;
    use std::thread::yield_now;
    use std::time::Duration;

    /// An unlabeled `n`-clique: a worst-case search space for unlabeled
    /// path queries, used to keep a worker busy deterministically.
    fn clique(n: u32) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        graph_from_edges(&vec![0; n as usize], &edges).unwrap()
    }

    /// An unlabeled path query on `k` vertices.
    fn path_query(k: u32) -> Graph {
        let labels = vec![0u32; k as usize];
        let edges: Vec<(u32, u32)> = (0..k - 1).map(|i| (i, i + 1)).collect();
        graph_from_edges(&labels, &edges).unwrap()
    }

    /// Two triangles sharing vertex 0, with a pendant — enough structure
    /// for multi-embedding queries.
    fn data_graph() -> Graph {
        graph_from_edges(
            &[0, 1, 2, 1, 2, 0],
            &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (2, 5)],
        )
        .unwrap()
    }

    fn triangle() -> Graph {
        graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    fn engine_with(config: EngineConfig) -> Engine {
        let e = Engine::new(config);
        e.add_graph("default", data_graph());
        e
    }

    fn drain(handle: &QueryHandle) -> (Vec<Vec<u32>>, QueryEvent) {
        let mut embs = Vec::new();
        loop {
            match handle.recv().expect("stream ended without terminal event") {
                QueryEvent::Batch(b) => embs.extend(b),
                terminal => return (embs, terminal),
            }
        }
    }

    /// Serial reference run over the same graph/config, for checksum
    /// identity.
    fn reference(q: &Graph) -> (u64, u64) {
        let g = data_graph();
        let session = DataGraph::new(&g);
        let mut c = EmbeddingChecksum::new();
        let report = session
            .find_embeddings(q, &MatchConfig::exhaustive(), |m| {
                c.update(m);
                true
            })
            .unwrap();
        (c.digest(), report.embeddings)
    }

    #[test]
    fn served_query_matches_serial_reference() {
        let engine = engine_with(EngineConfig {
            batch_size: 1, // force one batch per embedding
            ..EngineConfig::default()
        });
        let handle = engine
            .submit(QuerySpec::new("default", triangle()))
            .unwrap();
        let (embs, terminal) = drain(&handle);
        let QueryEvent::Done(done) = terminal else {
            panic!("expected done, got {terminal:?}")
        };
        let (want_digest, want_count) = reference(&triangle());
        assert_eq!(done.outcome, MatchOutcome::Complete);
        assert!(!done.truncated);
        assert_eq!(done.embeddings, want_count);
        assert_eq!(done.checksum, want_digest, "server checksum != serial run");
        let mut c = EmbeddingChecksum::new();
        for e in &embs {
            c.update(e);
        }
        assert_eq!(c.digest(), want_digest, "streamed bytes != serial run");
        let t = engine.stats();
        assert_eq!(t.completed, 1);
        assert_eq!(t.embeddings_streamed, want_count);
        assert!(t.batches >= 2, "batch_size=2 must split the stream");
    }

    #[test]
    fn concurrent_queries_are_bytewise_deterministic() {
        let engine = engine_with(EngineConfig {
            workers: 4,
            batch_size: 3,
            ..EngineConfig::default()
        });
        let queries: Vec<Graph> = vec![
            triangle(),
            graph_from_edges(&[0, 1], &[(0, 1)]).unwrap(),
            graph_from_edges(&[1, 2], &[(0, 1)]).unwrap(),
            graph_from_edges(&[2, 0, 1], &[(0, 1), (1, 2)]).unwrap(),
        ];
        let references: Vec<(u64, u64)> = queries.iter().map(reference).collect();
        for round in 0..3 {
            let handles: Vec<QueryHandle> = queries
                .iter()
                .map(|q| engine.submit(QuerySpec::new("default", q.clone())).unwrap())
                .collect();
            for (i, h) in handles.iter().enumerate() {
                let (_, terminal) = drain(h);
                let QueryEvent::Done(done) = terminal else {
                    panic!("query {i} round {round}: {terminal:?}")
                };
                assert_eq!(
                    (done.checksum, done.embeddings),
                    references[i],
                    "query {i} round {round} diverged from serial run"
                );
            }
        }
    }

    #[test]
    fn pre_cancelled_query_stops_within_one_quantum() {
        // One worker and a FIFO queue: the pin query occupies the worker
        // while the victim waits behind it, so the victim's token is
        // latched strictly before its enumeration starts. A query whose
        // token is cancelled at start must stop within one backtrack
        // quantum — on a 60-clique an unlabeled 5-path would otherwise
        // explore millions of nodes.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        engine.add_graph("blob", clique(60));
        let pin = engine
            .submit(QuerySpec {
                count_only: true,
                ..QuerySpec::new("blob", path_query(5))
            })
            .unwrap();
        let victim = engine
            .submit(QuerySpec {
                count_only: true,
                ..QuerySpec::new("blob", path_query(5))
            })
            .unwrap();
        victim.cancel(); // latched while the victim is still queued
        pin.cancel(); // release the worker
        let (_, terminal) = drain(&victim);
        let QueryEvent::Done(done) = terminal else {
            panic!("expected done, got {terminal:?}")
        };
        assert_eq!(done.outcome, MatchOutcome::Cancelled);
        assert!(done.truncated);
        assert!(
            done.search_nodes <= crate::exec::CANCEL_QUANTUM,
            "stopped after {} nodes, more than one quantum",
            done.search_nodes
        );
        let (_, pin_terminal) = drain(&pin);
        assert!(matches!(pin_terminal, QueryEvent::Done(_)));
        assert_eq!(engine.stats().cancelled, 2);
        assert!(cfl_verify::check_serve_trace(&engine.stats()).is_clean());
    }

    #[test]
    fn limit_and_deadline_mark_truncation() {
        let engine = engine_with(EngineConfig::default());
        let handle = engine
            .submit(QuerySpec {
                limit: Some(1),
                ..QuerySpec::new("default", triangle())
            })
            .unwrap();
        let (embs, terminal) = drain(&handle);
        let QueryEvent::Done(done) = terminal else {
            panic!("{terminal:?}")
        };
        assert_eq!(done.outcome, MatchOutcome::LimitReached);
        assert!(done.truncated);
        assert_eq!(done.embeddings, 1);
        assert_eq!(embs.len(), 1);

        // A zero deadline on a large search expires at the first quantum
        // poll.
        engine.add_graph("blob", clique(40));
        let handle = engine
            .submit(QuerySpec {
                deadline: Some(Duration::ZERO),
                count_only: true,
                ..QuerySpec::new("blob", path_query(4))
            })
            .unwrap();
        let (_, terminal) = drain(&handle);
        let QueryEvent::Done(done) = terminal else {
            panic!("{terminal:?}")
        };
        assert_eq!(done.outcome, MatchOutcome::TimedOut);
        assert!(done.truncated);
        let t = engine.stats();
        assert_eq!((t.limit_reached, t.deadline_expired), (1, 1));
    }

    #[test]
    fn unknown_graph_is_admitted_and_failed() {
        let engine = engine_with(EngineConfig::default());
        let err = engine
            .submit(QuerySpec::new("nope", triangle()))
            .unwrap_err();
        assert_eq!(err, SubmitError::UnknownGraph("nope".to_string()));
        let t = engine.stats();
        assert_eq!((t.submitted, t.admitted, t.failed), (1, 1, 1));
        assert!(cfl_verify::check_serve_trace(&t).is_clean());
    }

    #[test]
    fn delta_swaps_graph_for_new_queries() {
        let engine = engine_with(EngineConfig::default());
        let q = triangle();
        let before = {
            let (_, QueryEvent::Done(d)) =
                drain(&engine.submit(QuerySpec::new("default", q.clone())).unwrap())
            else {
                panic!("terminal")
            };
            d.embeddings
        };
        // Deleting a triangle edge removes embeddings; inserting it back
        // restores them.
        let mut cut = GraphDelta::new();
        cut.delete(0, 1);
        let applied = engine.apply_delta("default", &cut).unwrap();
        assert_eq!(applied.epoch, 1);
        let after = {
            let (_, QueryEvent::Done(d)) =
                drain(&engine.submit(QuerySpec::new("default", q.clone())).unwrap())
            else {
                panic!("terminal")
            };
            d.embeddings
        };
        assert!(after < before, "{after} !< {before}");
        let mut back = GraphDelta::new();
        back.insert(0, 1);
        let applied = engine.apply_delta("default", &back).unwrap();
        assert_eq!(applied.epoch, 2);
        let restored = {
            let (_, QueryEvent::Done(d)) =
                drain(&engine.submit(QuerySpec::new("default", q)).unwrap())
            else {
                panic!("terminal")
            };
            d.embeddings
        };
        assert_eq!(restored, before);
        let t = engine.stats();
        assert_eq!(t.deltas_applied, 2);
        assert!(cfl_verify::check_serve_trace(&t).is_clean());
        assert!(matches!(
            engine.apply_delta("missing", &back),
            Err(ServeDeltaError::UnknownGraph(_))
        ));
    }

    #[test]
    fn full_queue_rejects_submissions() {
        // One worker, zero queue depth (rendezvous hand-off): once the
        // worker is busy, the next submission cannot be queued anywhere
        // and must bounce with QueueFull.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            queue_depth: 0,
            ..EngineConfig::default()
        });
        engine.add_graph("blob", clique(50));
        let spec = || QuerySpec {
            count_only: true,
            ..QuerySpec::new("blob", path_query(5))
        };
        // A rendezvous enqueue succeeds only while the worker is waiting,
        // so even the first submission can transiently bounce before the
        // worker reaches its receive; retry until it lands.
        let pin = loop {
            match engine.submit(spec()) {
                Ok(h) => break h,
                Err(SubmitError::QueueFull) => yield_now(),
                Err(e) => panic!("unexpected error {e}"),
            }
        };
        let mut rejected = false;
        for _ in 0..200 {
            match engine.submit(spec()) {
                Err(SubmitError::QueueFull) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
                Ok(extra) => {
                    extra.cancel();
                    drop(extra);
                }
            }
            yield_now();
        }
        assert!(rejected, "full queue never rejected");
        pin.cancel();
        let (_, terminal) = drain(&pin);
        assert!(matches!(terminal, QueryEvent::Done(_)));
        let t = engine.stats();
        assert!(t.rejected >= 1);
        assert!(cfl_verify::check_serve_trace(&t).is_clean());
    }

    #[test]
    fn dropped_handle_aborts_query() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            batch_size: 1,
            ..EngineConfig::default()
        });
        engine.add_graph("blob", clique(50));
        let handle = engine
            .submit(QuerySpec::new("blob", path_query(4)))
            .unwrap();
        drop(handle); // client vanishes; worker must not wedge
                      // A subsequent query on the same single worker proves the worker
                      // escaped the abandoned stream.
        let check = engine.submit(QuerySpec::new("blob", triangle())).unwrap();
        let (_, terminal) = drain(&check);
        assert!(matches!(terminal, QueryEvent::Done(_)));
        let t = engine.stats();
        assert_eq!(t.cancelled, 1, "abandoned query classifies as cancelled");
        assert!(cfl_verify::check_serve_trace(&t).is_clean());
    }

    #[test]
    fn tcp_round_trip_submit_cancel_delta_stats() {
        let engine = Arc::new(engine_with(EngineConfig {
            batch_size: 2,
            ..EngineConfig::default()
        }));
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();

        // Submit a triangle query and check the stream against the serial
        // reference.
        let result = client
            .run_query(r#"{"op":"submit","query":{"labels":[0,1,2],"edges":[[0,1],[1,2],[2,0]]}}"#)
            .unwrap()
            .unwrap();
        let (want_digest, want_count) = reference(&triangle());
        assert_eq!(result.outcome, "complete");
        assert_eq!(result.embeddings, want_count);
        assert_eq!(result.received, want_count);
        assert_eq!(result.checksum, format!("0x{want_digest:016x}"));
        assert_eq!(result.received_checksum, result.checksum);

        // Cancel an unknown id: well-formed response, cancelled=false.
        let resp = client.request(r#"{"op":"cancel","id":999}"#).unwrap();
        assert_eq!(
            resp.get("cancelled").and_then(json::Json::as_bool),
            Some(false)
        );

        // Apply a delta and observe the epoch bump.
        let resp = client
            .request(r#"{"op":"apply-delta","delete":[[0,1]]}"#)
            .unwrap();
        assert_eq!(resp.get("ok").and_then(json::Json::as_bool), Some(true));
        assert_eq!(resp.get("epoch").and_then(json::Json::as_u64), Some(1));

        // Stats reflect the completed query and the delta.
        let resp = client.request(r#"{"op":"stats"}"#).unwrap();
        let stats = resp.get("stats").expect("stats body");
        assert_eq!(stats.get("completed").and_then(json::Json::as_u64), Some(1));
        assert_eq!(
            stats.get("deltas_applied").and_then(json::Json::as_u64),
            Some(1)
        );
        // The plan cache's counters ride along: one cold lookup so far.
        for (key, want) in [("plan_lookups", 1), ("plan_misses", 1), ("plan_hits", 0)] {
            assert_eq!(
                stats.get(key).and_then(json::Json::as_u64),
                Some(want),
                "{key}"
            );
        }

        // Malformed frame: error response, connection stays usable.
        let resp = client.request(r#"{"op":"warp"}"#).unwrap();
        assert_eq!(resp.get("ok").and_then(json::Json::as_bool), Some(false));
        let resp = client.request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(resp.get("ok").and_then(json::Json::as_bool), Some(true));

        drop(client);
        server.shutdown();
    }

    #[test]
    fn tcp_cancel_from_second_connection() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        engine.add_graph("blob", clique(60));
        let engine = Arc::new(engine);
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();

        let mut submitter = Client::connect(server.addr()).unwrap();
        submitter
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        submitter
            .send(
                r#"{"op":"submit","graph":"blob","count_only":true,
                    "query":{"labels":[0,0,0,0,0],"edges":[[0,1],[1,2],[2,3],[3,4]]}}"#,
            )
            .unwrap();
        let ack = submitter.recv().unwrap().expect("ack");
        let id = ack.get("id").and_then(json::Json::as_u64).expect("id");

        let mut canceller = Client::connect(server.addr()).unwrap();
        canceller
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let resp = canceller
            .request(&format!("{{\"op\":\"cancel\",\"id\":{id}}}"))
            .unwrap();
        assert_eq!(
            resp.get("cancelled").and_then(json::Json::as_bool),
            Some(true)
        );

        // The submitter's stream now terminates with outcome=cancelled.
        let terminal = submitter.recv().unwrap().expect("terminal frame");
        let done = terminal.get("done").expect("done body");
        assert_eq!(
            done.get("outcome").and_then(json::Json::as_str),
            Some("cancelled")
        );
        server.shutdown();
    }

    #[test]
    fn tcp_shutdown_op_stops_accepting() {
        let engine = Arc::new(engine_with(EngineConfig::default()));
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let resp = client.request(r#"{"op":"shutdown"}"#).unwrap();
        assert_eq!(resp.get("ok").and_then(json::Json::as_bool), Some(true));
        server.shutdown();
        // The listener is gone: new connections fail (immediately or on
        // first use).
        let refused = match Client::connect(addr) {
            Err(_) => true,
            Ok(mut c) => {
                let _ = c.set_read_timeout(Some(Duration::from_secs(5)));
                c.request(r#"{"op":"stats"}"#).is_err()
            }
        };
        assert!(refused, "server still serving after shutdown");
    }
}
