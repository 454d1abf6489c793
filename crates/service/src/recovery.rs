//! Durability: atomic checkpoints plus WAL-tail replay.
//!
//! A durable daemon owns one directory:
//!
//! ```text
//! <dir>/engine.snap       newest complete checkpoint (HDSDSNAP v4)
//! <dir>/engine.snap.tmp   checkpoint in flight (ignored by recovery)
//! <dir>/updates.wal       batches accepted since that checkpoint
//! ```
//!
//! The invariant, maintained at every instant a crash can strike:
//! **`engine.snap` is always a complete, checksummed snapshot, and every
//! acknowledged batch is either inside it or in `updates.wal`.** Writes
//! that could violate it are ordered so a crash only ever loses the
//! *newest* work, never corrupts the base:
//!
//! 1. appends go to the WAL (synced per policy) *before* the engine
//!    applies them — [`crate::wal`];
//! 2. checkpoints write the snapshot to `engine.snap.tmp`, fsync it,
//!    rename it over `engine.snap`, fsync the directory, and only then
//!    rotate the WAL. A crash before the rename leaves the old
//!    snapshot + full WAL; after the rename but before the rotation it
//!    leaves the new snapshot + a stale WAL whose replay is idempotent
//!    (see the [`crate::wal`] module docs) — both recover exactly.
//!
//! Recovery ([`Durability::open`]) loads the snapshot (adopting κ and the
//! hierarchies — spaces are re-materialized, nothing is decomposed), then
//! **folds** the verified WAL tail into one net batch and applies it as a
//! single engine update: one splice, one peel and one forest repair per
//! space however long the tail is, because no reader can observe the
//! states in between. The fold keeps the last operation per canonical
//! edge (within a record removals precede insertions, exactly as
//! `apply_edge_batch` orders them), so the result is the edge set
//! `(S \ R) ∪ I` applied record by record would reach, and carries the
//! largest vertex id any insert named so the vertex set grows as it would
//! have (it never shrinks, even when a later record removes the edge that
//! grew it). A tail the checkpoint already holds (crash point
//! `ckpt.rename.after`: snapshot renamed, rotation lost) folds to a batch
//! that changes nothing, which the engine re-publishes for free. The
//! [`RecoveryReport`] says where the open's time went: read, fold, apply,
//! checkpoint.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hdsd_graph::VertexId;
use hdsd_nucleus::{read_snapshot, write_snapshot, LocalConfig, Snapshot};

use crate::engine::Engine;
use crate::wal::{read_wal, FailPoints, FsyncPolicy, WalRecord, WalStats, WalWriter};

type Edge = (VertexId, VertexId);

/// Snapshot filename inside the durability directory.
pub const SNAPSHOT_FILE: &str = "engine.snap";
/// WAL filename inside the durability directory.
pub const WAL_FILE: &str = "updates.wal";

/// Syncs a directory so a rename performed inside it is itself durable.
/// (Opening a directory read-only and `fsync`ing it is the POSIX idiom;
/// on platforms where that fails the rename is still atomic, just not
/// power-loss durable, so the error is ignored there.)
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Writes `snap` to `path` atomically: temp file in the same directory,
/// flush + fsync, rename over the target, fsync the directory. Readers
/// never observe a torn file — they see the old snapshot or the new one.
/// `fail` threads the crash-point hook through each step.
pub fn write_snapshot_atomic(snap: &Snapshot, path: &Path, fail: &FailPoints) -> io::Result<()> {
    let tmp = path.with_extension("snap.tmp");
    let res = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        if fail.check("ckpt.temp.torn").is_err() {
            // Simulate dying mid-write: a truncated, checksum-less prefix
            // is left behind where the *temp* file is — the real target
            // is untouched, which is the entire point of the temp file.
            let _ = out.write_all(&b"HDSDSNAP\x04\x00\x00\x00partial"[..]);
            let _ = out.flush();
            return Err(io::Error::other("injected crash at ckpt.temp.torn"));
        }
        write_snapshot(snap, &mut out)?;
        out.flush()?;
        fail.check("ckpt.fsync")?;
        out.get_ref().sync_all()?;
        fail.check("ckpt.rename.before")?;
        fs::rename(&tmp, path)?;
        sync_dir(path.parent().unwrap_or(Path::new(".")))?;
        fail.check("ckpt.rename.after")?;
        Ok(())
    })();
    if res.is_err() {
        // Best effort: don't leave the temp file around on failure (the
        // injected post-rename crash has already moved it).
        let _ = fs::remove_file(&tmp);
    }
    res
}

/// Configuration of a durability directory.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Directory holding snapshot + WAL (created if missing).
    pub dir: PathBuf,
    /// When WAL appends reach stable storage.
    pub policy: FsyncPolicy,
    /// Crash-point hook ([`FailPoints::none`] in production).
    pub failpoints: FailPoints,
}

/// What [`Durability::open`] did to bring the engine up.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// A checkpoint was found and loaded (κ and hierarchies adopted).
    pub snapshot_loaded: bool,
    /// The engine was built from scratch (fresh directory only — a
    /// corrupt snapshot is a loud error, never a silent cold start).
    pub cold_start: bool,
    /// WAL records replayed (folded into the one update of `apply_us`).
    pub replayed: u64,
    /// Torn bytes dropped from the WAL tail (crash evidence).
    pub torn_bytes: u64,
    /// WAL generation now being written.
    pub generation: u64,
    /// Wall time of the whole open; the four stages below partition it.
    pub wall_us: u64,
    /// Bringing the base state up: snapshot read + space
    /// re-materialization (or the cold build), then reading and verifying
    /// the WAL.
    pub read_us: u64,
    /// Folding the WAL tail into one net batch.
    pub fold_us: u64,
    /// The single engine update that applies the folded tail (no update
    /// runs when the tail is empty).
    pub apply_us: u64,
    /// The fresh checkpoint plus the new WAL generation's creation.
    pub checkpoint_us: u64,
}

/// Folds a WAL tail into one net `(insert, remove)` batch whose single
/// application leaves the engine where record-by-record replay would: the
/// last operation per canonical edge wins (a record removes, then inserts),
/// and when no surviving insert names the largest vertex id the tail's
/// inserts mentioned, a self-loop on it is added — `apply_edge_batch` drops
/// the loop but grows the vertex set to cover it. The result may break the
/// protocol's per-batch rules (`validate_batch`); it goes straight to the
/// engine, below them.
fn fold_tail(records: &[WalRecord]) -> (Vec<Edge>, Vec<Edge>) {
    let canonical = |&(u, v): &Edge| (u.min(v), u.max(v));
    // One (edge, present-afterwards) entry per logged edge, in log order.
    let mut ops: Vec<(Edge, bool)> = Vec::new();
    let mut vertex_floor: Option<VertexId> = None;
    for rec in records {
        ops.extend(rec.remove.iter().map(|e| (canonical(e), false)));
        for e in &rec.insert {
            vertex_floor = vertex_floor.max(Some(e.0.max(e.1)));
            if e.0 != e.1 {
                ops.push((canonical(e), true));
            }
        }
    }
    // The sort is stable, so an edge's entries stay in log order.
    ops.sort_by_key(|&(e, _)| e);
    let (mut insert, mut remove) = (Vec::new(), Vec::new());
    for (i, &(e, present)) in ops.iter().enumerate() {
        let last = ops.get(i + 1).is_none_or(|&(next, _)| next != e);
        match (last, present) {
            (true, true) => insert.push(e),
            (true, false) => remove.push(e),
            (false, _) => {}
        }
    }
    if let Some(v) = vertex_floor {
        if !insert.iter().any(|&(_, hi)| hi == v) {
            insert.push((v, v));
        }
    }
    (insert, remove)
}

/// The durable state a serving process owns: the WAL writer plus the
/// checkpoint paths, with the recovery report kept for telemetry.
pub struct Durability {
    dir: PathBuf,
    policy: FsyncPolicy,
    fail: FailPoints,
    wal: WalWriter,
    report: RecoveryReport,
    /// Checkpoints taken since open (telemetry).
    checkpoints: u64,
}

/// Result of one checkpoint: sizes for the response/telemetry.
#[derive(Clone, Debug)]
pub struct CheckpointReport {
    /// Snapshot path written.
    pub path: PathBuf,
    /// Spaces serialized.
    pub spaces: usize,
    /// Snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// WAL bytes dropped by the post-checkpoint rotation.
    pub wal_bytes_truncated: u64,
    /// New WAL generation.
    pub generation: u64,
}

impl Durability {
    /// Opens (or initializes) a durability directory and returns the
    /// recovered engine:
    ///
    /// * snapshot present → load it (κ and hierarchies adopted), fold the
    ///   WAL tail into one net batch and apply it as a single
    ///   [`Engine::update_folded`], then take a fresh checkpoint and
    ///   rotate the WAL so the next crash replays only its own tail;
    /// * empty directory → build a fresh engine via `fresh`, seed the
    ///   first checkpoint, start generation 1;
    /// * WAL without snapshot, or a corrupt/torn snapshot → a loud
    ///   error. The base state is unknowable and guessing would serve
    ///   silently wrong κ — the operator decides (restore a snapshot or
    ///   wipe the directory), not the daemon.
    pub fn open(
        cfg: DurableConfig,
        local: LocalConfig,
        fresh: impl FnOnce() -> Result<Engine, String>,
    ) -> Result<(Engine, Durability, RecoveryReport), String> {
        let start = Instant::now();
        fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {:?}: {e}", cfg.dir))?;
        let snap_path = cfg.dir.join(SNAPSHOT_FILE);
        let wal_path = cfg.dir.join(WAL_FILE);
        // A dangling temp file is debris from a checkpoint that never
        // renamed; it must not shadow the real state.
        let _ = fs::remove_file(snap_path.with_extension("snap.tmp"));

        let have_snap = snap_path.exists();
        let have_wal = wal_path.exists();
        let mut report = RecoveryReport {
            snapshot_loaded: false,
            cold_start: false,
            replayed: 0,
            torn_bytes: 0,
            generation: 1,
            wall_us: 0,
            read_us: 0,
            fold_us: 0,
            apply_us: 0,
            checkpoint_us: 0,
        };
        // Stage boundaries are cumulative micros since `start`, so the four
        // stage times partition `wall_us` exactly.
        let lap = || start.elapsed().as_micros() as u64;

        let mut engine = if have_snap {
            let file = File::open(&snap_path)
                .map_err(|e| format!("open snapshot {}: {e}", snap_path.display()))?;
            let snap = read_snapshot(&mut BufReader::new(file))
                .map_err(|e| format!("recovery: snapshot {}: {e}", snap_path.display()))?;
            report.snapshot_loaded = true;
            Engine::from_snapshot(snap, local)?
        } else if have_wal {
            return Err(format!(
                "recovery: {} has a WAL but no snapshot — the log's base state is unknown; \
                 restore {} or clear the directory",
                cfg.dir.display(),
                SNAPSHOT_FILE
            ));
        } else {
            report.cold_start = true;
            fresh()?
        };

        let records = if have_snap && have_wal {
            let contents = read_wal(&wal_path)
                .map_err(|e| format!("recovery: WAL {}: {e}", wal_path.display()))?;
            report.torn_bytes = contents.torn_bytes;
            report.generation = contents.generation;
            contents.records
        } else {
            Vec::new()
        };
        let t_read = lap();

        // One update for the whole tail: the same splice + peel + repair a
        // live request runs, once. Records the snapshot already holds
        // (checkpoint renamed, rotation lost) fold to a batch that changes
        // nothing.
        report.replayed = records.len() as u64;
        let (insert, remove) = fold_tail(&records);
        let t_fold = lap();
        if !records.is_empty() {
            hdsd_telemetry::span!("recover.replay");
            engine.update_folded(&insert, &remove, report.replayed);
        }
        let t_apply = lap();

        // Put the recovered state (or the fresh engine) into a checkpoint
        // and start a clean generation: bounds double-replay after the
        // next crash and verifies the directory is writable up front.
        write_snapshot_atomic(&engine.to_snapshot(), &snap_path, &cfg.failpoints)
            .map_err(|e| format!("recovery: checkpoint {}: {e}", snap_path.display()))?;
        report.generation += 1;
        let wal =
            WalWriter::create(&wal_path, report.generation, cfg.policy, cfg.failpoints.clone())
                .map_err(|e| format!("recovery: WAL {}: {e}", wal_path.display()))?;
        report.wall_us = lap();
        report.read_us = t_read;
        report.fold_us = t_fold - t_read;
        report.apply_us = t_apply - t_fold;
        report.checkpoint_us = report.wall_us - t_apply;

        let reg = hdsd_telemetry::Registry::global();
        reg.gauge("recovery_replayed_records").set(report.replayed);
        reg.gauge("recovery_torn_bytes").set(report.torn_bytes);
        reg.gauge("recovery_wall_micros").set(report.wall_us);
        reg.gauge("recovery_read_micros").set(report.read_us);
        reg.gauge("recovery_fold_micros").set(report.fold_us);
        reg.gauge("recovery_apply_micros").set(report.apply_us);
        reg.gauge("recovery_checkpoint_micros").set(report.checkpoint_us);

        let dur = Durability {
            dir: cfg.dir,
            policy: cfg.policy,
            fail: cfg.failpoints,
            wal,
            report: report.clone(),
            checkpoints: 0,
        };
        Ok((engine, dur, report))
    }

    /// Appends one batch to the WAL (fsynced per policy). Must be called
    /// — and must succeed — before the batch touches the engine.
    pub fn append(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> io::Result<u64> {
        self.wal.append(insert, remove)
    }

    /// Takes an atomic checkpoint of `engine` and rotates the WAL. On
    /// any error the WAL keeps its records — nothing acknowledged is
    /// dropped until the snapshot is safely in place. Reads the engine's
    /// current epoch zero-copy (`&Engine`): checkpointing never blocks or
    /// mutates serving state beyond the WAL rotation.
    pub fn checkpoint(&mut self, engine: &Engine) -> io::Result<CheckpointReport> {
        let t_ckpt = Instant::now();
        hdsd_telemetry::span!("ckpt.checkpoint");
        self.wal.sync("ckpt.wal.sync")?;
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        let snap = {
            hdsd_telemetry::span!("ckpt.snapshot");
            engine.to_snapshot()
        };
        let spaces = snap.spaces.len();
        {
            hdsd_telemetry::span!("ckpt.write");
            write_snapshot_atomic(&snap, &snap_path, &self.fail)?;
        }
        let wal_bytes_truncated = self.wal.stats().bytes - crate::wal::WAL_HEADER_BYTES;
        self.wal.rotate()?;
        self.checkpoints += 1;
        let snapshot_bytes = fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
        let reg = hdsd_telemetry::Registry::global();
        reg.counter("checkpoints_total").inc();
        reg.gauge("checkpoint_bytes").set(snapshot_bytes);
        reg.histogram("checkpoint_micros").record(t_ckpt.elapsed().as_micros() as u64);
        Ok(CheckpointReport {
            path: snap_path,
            spaces,
            snapshot_bytes,
            wal_bytes_truncated,
            generation: self.wal.stats().generation,
        })
    }

    /// Forces pending WAL appends to disk (graceful-shutdown path).
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync("wal.fsync")
    }

    /// WAL telemetry for the `wal_stats` op.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// The recovery report from `open` (telemetry).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// Checkpoints taken since open.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, SpaceSel};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdsd_recovery_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> DurableConfig {
        DurableConfig {
            dir: dir.to_path_buf(),
            policy: FsyncPolicy::Always,
            failpoints: FailPoints::none(),
        }
    }

    fn fresh_engine() -> Result<Engine, String> {
        Ok(Engine::new(
            hdsd_datasets::holme_kim(40, 3, 0.5, 9),
            &EngineConfig {
                spaces: vec![SpaceSel::Core, SpaceSel::Truss],
                local: LocalConfig::sequential(),
            },
        ))
    }

    #[test]
    fn fresh_open_then_replay_after_unclean_death() {
        let dir = tmpdir("replay");
        let (mut engine, mut dur, rep) =
            Durability::open(cfg(&dir), LocalConfig::sequential(), fresh_engine).unwrap();
        assert!(rep.cold_start && !rep.snapshot_loaded);
        // Accepted batches: WAL first, then apply — then "die" by dropping
        // without a checkpoint.
        for b in [(0u32, 20u32), (1, 21), (2, 22)] {
            dur.append(&[b], &[]).unwrap();
            engine.update(&[b], &[]);
        }
        let kappa: Vec<u32> = engine.kappa_vector(SpaceSel::Core).unwrap().to_vec();
        drop((engine, dur));

        let (rec, dur2, rep2) = Durability::open(cfg(&dir), LocalConfig::sequential(), || {
            Err("must not cold start".into())
        })
        .unwrap();
        assert!(rep2.snapshot_loaded && !rep2.cold_start);
        assert_eq!(rep2.replayed, 3);
        assert_eq!(rec.kappa_vector(SpaceSel::Core).unwrap(), &kappa[..]);
        // Recovery folded the tail into a fresh checkpoint: a third open
        // replays nothing.
        drop(dur2);
        let (_e, _d, rep3) = Durability::open(cfg(&dir), LocalConfig::sequential(), || {
            Err("must not cold start".into())
        })
        .unwrap();
        assert_eq!(rep3.replayed, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_keeps_the_last_operation_per_edge_and_the_vertex_floor() {
        let rec = |seq, insert: &[Edge], remove: &[Edge]| WalRecord {
            seq,
            insert: insert.to_vec(),
            remove: remove.to_vec(),
        };
        assert_eq!(fold_tail(&[]), (vec![], vec![]));
        // Within a record removals come first, so (2,3) ends up present;
        // (4,0) is logged reversed and removed by a later record; (0,9)
        // grew the vertex set and is gone again, so a loop on 9 carries the
        // floor; (7,7) is a self-loop below the floor and is dropped.
        let tail = [
            rec(1, &[(2, 3), (4, 0), (0, 9)], &[(3, 2)]),
            rec(2, &[(7, 7), (1, 5)], &[(0, 4)]),
            rec(3, &[], &[(9, 0), (6, 8)]),
        ];
        let (insert, remove) = fold_tail(&tail);
        assert_eq!(insert, vec![(1, 5), (2, 3), (9, 9)]);
        assert_eq!(remove, vec![(0, 4), (0, 9), (6, 8)]);
        // A surviving insert that names the floor vertex needs no loop.
        let (insert, _) = fold_tail(&[rec(1, &[(0, 9), (1, 2)], &[])]);
        assert_eq!(insert, vec![(0, 9), (1, 2)]);
    }

    #[test]
    fn checkpoint_rotates_and_bounds_replay() {
        let dir = tmpdir("checkpoint");
        let (mut engine, mut dur, _) =
            Durability::open(cfg(&dir), LocalConfig::sequential(), fresh_engine).unwrap();
        dur.append(&[(0, 30)], &[]).unwrap();
        engine.update(&[(0, 30)], &[]);
        let ck = dur.checkpoint(&engine).unwrap();
        assert!(ck.wal_bytes_truncated > 0);
        dur.append(&[(1, 31)], &[]).unwrap();
        engine.update(&[(1, 31)], &[]);
        drop((engine, dur));
        let (_rec, _dur2, rep) = Durability::open(cfg(&dir), LocalConfig::sequential(), || {
            Err("must not cold start".into())
        })
        .unwrap();
        // Only the post-checkpoint batch replays.
        assert_eq!(rep.replayed, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_without_snapshot_is_refused() {
        let dir = tmpdir("orphan_wal");
        fs::create_dir_all(&dir).unwrap();
        let mut w =
            WalWriter::create(&dir.join(WAL_FILE), 1, FsyncPolicy::Always, FailPoints::none())
                .unwrap();
        w.append(&[(0, 1)], &[]).unwrap();
        drop(w);
        let err = Durability::open(cfg(&dir), LocalConfig::sequential(), fresh_engine)
            .err()
            .expect("orphan WAL must refuse to open");
        assert!(err.contains("no snapshot"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_a_loud_error_not_a_cold_start() {
        let dir = tmpdir("corrupt_snap");
        let (_e, _d, _) =
            Durability::open(cfg(&dir), LocalConfig::sequential(), fresh_engine).unwrap();
        drop((_e, _d));
        // Flip one payload byte: the v4 trailer must catch it and recovery
        // must surface the error instead of quietly rebuilding.
        let snap_path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&snap_path, &bytes).unwrap();
        let err = Durability::open(cfg(&dir), LocalConfig::sequential(), || {
            Err("must not cold start".into())
        })
        .err()
        .expect("corrupt snapshot must fail the open");
        assert!(err.contains("snapshot"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_crash_points_leave_a_loadable_target() {
        let dir = tmpdir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let snap_of = |edges: &[(u32, u32)]| {
            let g = hdsd_graph::graph_from_edges(edges.iter().copied());
            Engine::new(g, &EngineConfig::default()).to_snapshot()
        };
        let path = dir.join(SNAPSHOT_FILE);
        write_snapshot_atomic(&snap_of(&[(0, 1)]), &path, &FailPoints::none()).unwrap();
        let good = fs::read(&path).unwrap();
        // Crashing before the rename leaves the old file bit-identical.
        for point in ["ckpt.temp.torn", "ckpt.fsync", "ckpt.rename.before"] {
            let fp = FailPoints::new(move |p| p == point);
            let bigger = snap_of(&[(0, 1), (1, 2), (0, 2)]);
            assert!(write_snapshot_atomic(&bigger, &path, &fp).is_err());
            assert_eq!(fs::read(&path).unwrap(), good, "{point} damaged the target");
            assert!(!path.with_extension("snap.tmp").exists(), "{point} left debris");
        }
        // Crashing after the rename leaves the new file complete.
        let fp = FailPoints::new(|p| p == "ckpt.rename.after");
        assert!(write_snapshot_atomic(&snap_of(&[(0, 1), (1, 2)]), &path, &fp).is_err());
        let back = read_snapshot(&mut BufReader::new(File::open(&path).unwrap())).unwrap();
        assert_eq!(back.graph.num_edges(), 2);
        fs::remove_dir_all(&dir).ok();
    }
}
