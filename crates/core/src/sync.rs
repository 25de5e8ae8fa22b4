//! The crate's single gateway to synchronization primitives.
//!
//! Everything in `cfl-match` that locks, parks, spawns, or touches an
//! atomic imports it from here, **never** from `std::sync`/`std::thread`
//! directly (`xtask lint` enforces this). The payoff: rebuilding with the
//! `loom-model` feature swaps the interleaving-sensitive primitives for
//! the `loom` shim's model-aware versions, so the loom models in
//! [`crate::models`] exhaustively schedule the *actual* pool and cursor
//! code, not a parallel re-implementation. Outside a model run the loom
//! types delegate straight to `std`, so the feature does not change the
//! behavior of ordinary tests.
//!
//! Three groups:
//!
//! * **cfg-switched** (`Mutex`, `Condvar`, `MutexGuard`, `atomic::*`,
//!   `thread::{Builder, JoinHandle}`) — the primitives whose
//!   interleavings the models check.
//! * **always-`std`** (`Arc`, `OnceLock`, `PoisonError`, `mpsc`,
//!   `thread::available_parallelism`) — interleaving-insensitive
//!   (immutable after publication, error plumbing, or a host query).
//!   Channels stay `std` under `loom-model`: the models check the pool
//!   and cursor code, not the serving engine's queues.
//! * the `loom-model`-only re-exports of [`loom::model`] and
//!   `thread::spawn` for the models.

// Interleaving-insensitive: shared ownership and write-once cells hold
// immutable data after publication; poison plumbing is error handling.
pub(crate) use std::sync::{mpsc, Arc, OnceLock, PoisonError};

#[cfg(not(feature = "loom-model"))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(feature = "loom-model")]
pub(crate) use loom::sync::{Condvar, Mutex, MutexGuard};

// Only the models (a test-only module) run model executions.
#[cfg(all(test, feature = "loom-model"))]
pub(crate) use loom::model;

pub(crate) mod atomic {
    #[cfg(not(feature = "loom-model"))]
    pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(feature = "loom-model")]
    pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

pub(crate) mod thread {
    // `available_parallelism` is a host query, so it stays `std` under
    // every cfg. This module is the designated shim, so the direct
    // `std::thread` uses here are the allowlisted ones.
    pub(crate) use std::thread::available_parallelism;

    #[cfg(not(feature = "loom-model"))]
    pub(crate) use std::thread::{Builder, JoinHandle};

    #[cfg(feature = "loom-model")]
    pub(crate) use loom::thread::{Builder, JoinHandle};

    // Production threads are named (`Builder`); only the models and their
    // pool hooks spawn bare ones.
    #[cfg(all(test, feature = "loom-model"))]
    pub(crate) use loom::thread::spawn;
}
