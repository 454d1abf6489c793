#![warn(missing_docs)]
//! # hdsd-service
//!
//! A long-lived query-serving engine over the nucleus decompositions —
//! the paper's §1/§6 query-driven, dynamic scenario as a process:
//!
//! * an [`Engine`] owns a graph plus resident per-space state (κ vectors,
//!   owned [`hdsd_nucleus::CachedSpace`]s, lazily-built hierarchies);
//! * point lookups are vector reads; budgeted estimates run the local
//!   algorithm with a Theorem-1 `lower ≤ κ ≤ estimate` interval; region
//!   queries materialize nuclei from the resident hierarchy;
//! * edge batches run `hdsd-nucleus`'s one update step
//!   ([`hdsd_nucleus::update_space`]): splice the resident rows, refresh κ
//!   by peeling them (one pass in κ order, exact), and repair a resident
//!   forest from the cliques the splice touched;
//! * [`hdsd_nucleus::Snapshot`]s restart the engine without decomposing.
//!
//! Serving state is published in **epochs** ([`epoch`]): every update
//! builds the next immutable [`engine::EngineView`] off to the side and
//! publishes it through an [`EpochCell`] with one atomic swap, so any
//! number of reader threads answer wait-free from the epoch they pinned
//! while the single writer lane works.
//!
//! The `hdsd-serve` binary speaks a line-delimited JSON protocol
//! ([`protocol`]) over stdin/stdout or TCP — a poll-based multi-
//! connection loop with `--readers N` worker threads — with per-request
//! telemetry.
//!
//! Serving is crash-safe when opened over a durability directory
//! ([`recovery`]): update batches are appended to a checksummed
//! write-ahead log ([`wal`]) *before* they are applied, checkpoints are
//! atomic (temp file + rename, v4 trailer checksum), and startup recovery
//! folds the WAL tail into one net batch applied as a single update — a
//! torn tail is detected and dropped, never partially applied.

pub mod engine;
pub mod epoch;
pub mod json;
pub mod overload;
pub mod protocol;
pub mod recovery;
pub mod wal;

pub use engine::{
    Engine, EngineConfig, EngineStats, EngineView, HierarchyRepairReport, NucleusSummary,
    RegionReport, SpaceRefresh, SpaceSel, SpaceStats, UpdateReport,
};
pub use epoch::{EpochCell, EpochReader};
pub use json::Json;
pub use overload::{Admission, BrownoutMode, OverloadSnapshot, OverloadState};
pub use protocol::{Handled, Server};
pub use recovery::{
    write_snapshot_atomic, CheckpointReport, Durability, DurableConfig, RecoveryReport,
    SNAPSHOT_FILE, WAL_FILE,
};
pub use wal::{
    is_injected_crash, read_wal, FailPoints, FsyncPolicy, WalContents, WalRecord, WalStats,
    WalWriter,
};
