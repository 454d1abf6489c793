//! The write-ahead update log.
//!
//! Every edge batch the daemon accepts is appended here **before** it is
//! applied to the engine, so a crash at any instant loses at most the
//! batches whose append had not reached the disk — never a half-applied
//! one. The format is deliberately dumb and self-checking:
//!
//! ```text
//! header:  "HDSDWAL1" (8 bytes)  generation (u64 LE)
//! record:  payload_len (u32 LE)  crc32(payload) (u32 LE)  payload
//! payload: seq (u64 LE)  n_insert (u32 LE)  n_remove (u32 LE)
//!          then n_insert + n_remove edges as (u32, u32) LE pairs
//! ```
//!
//! The CRC (hand-rolled IEEE, shared with the snapshot trailer in
//! [`hdsd_graph::io::Crc32`]) plus the strictly-incrementing `seq` make a
//! torn tail — the one legitimate corruption an append-only log can have
//! after a crash — detectable: [`read_wal`] stops at the first record
//! that is short, fails its checksum, or breaks the sequence, and reports
//! the dropped suffix instead of replaying garbage. `generation` counts
//! checkpoint rotations; it exists for operators reading `wal_stats`, not
//! for correctness.
//!
//! Replay is **idempotent**: `apply_edge_batch` treats inserting a
//! present edge and removing an absent one as no-ops and the vertex set
//! never shrinks, so replaying a suffix of batches the engine already
//! absorbed converges to the same state. That property is what makes the
//! crash window between "checkpoint renamed into place" and "WAL
//! truncated" safe — recovery may see those batches twice. (Recovery
//! folds the tail into one net batch first, last operation per edge; over
//! a state that already absorbed the tail that batch changes nothing, and
//! the engine re-publishes its current epoch for it.)
//!
//! **Ordering against epoch publication** (see [`crate::epoch`]): the
//! append happens on the writer lane *before* the next
//! [`crate::EngineView`] is built, and the response is only written after
//! that view is published. So a batch visible to any reader is always in
//! the WAL, and recovery replays the log into epoch 0 of the restarted
//! process — readers re-pin from there.
//!
//! Fault injection: every filesystem side effect consults a [`FailPoints`]
//! hook first. In production the hook is [`FailPoints::none`] and
//! compiles down to an `Option` check; under the crash harness it can
//! make any append, fsync, or rotate die exactly like a `kill -9` at
//! that instant — after which the writer is dead for good, mirroring a
//! process that no longer exists.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hdsd_graph::io::crc32;
use hdsd_graph::VertexId;

/// Magic prefix of a WAL file (the trailing `1` is the format version).
pub const WAL_MAGIC: &[u8; 8] = b"HDSDWAL1";

/// Fixed size of the file header (magic + generation).
pub const WAL_HEADER_BYTES: u64 = 16;

/// When appends are forced to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: a positive reply means the batch is on
    /// disk. The durable default.
    Always,
    /// `fsync` once per `n` appended records (and at every checkpoint and
    /// shutdown). A crash can lose up to `n - 1` acknowledged batches.
    Batch(u32),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    /// Survives process death, not power loss.
    Off,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag values: `always`, `batch`, `batch:N`
    /// (or `batch=N`), `off`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch(32)),
            "off" => Some(FsyncPolicy::Off),
            _ => {
                let n: u32 =
                    s.strip_prefix("batch=").or_else(|| s.strip_prefix("batch:"))?.parse().ok()?;
                (n > 0).then_some(FsyncPolicy::Batch(n))
            }
        }
    }

    /// Stable name for telemetry.
    pub fn name(self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::Batch(n) => format!("batch={n}"),
            FsyncPolicy::Off => "off".to_string(),
        }
    }
}

/// Crash-point hook threaded through every durability side effect. The
/// function receives the crash-point name (e.g. `"wal.append.torn"`) and
/// returns true to simulate the process dying there. Cloning shares the
/// hook.
#[derive(Clone, Default)]
pub struct FailPoints(Option<Arc<dyn Fn(&'static str) -> bool + Send + Sync>>);

impl FailPoints {
    /// No fail points: every check is a cheap `None` test.
    pub fn none() -> FailPoints {
        FailPoints(None)
    }

    /// Installs a hook (test harnesses only).
    pub fn new(hook: impl Fn(&'static str) -> bool + Send + Sync + 'static) -> FailPoints {
        FailPoints(Some(Arc::new(hook)))
    }

    /// Fails with an injected-crash error when the hook fires at `point`.
    pub fn check(&self, point: &'static str) -> io::Result<()> {
        match &self.0 {
            Some(hook) if hook(point) => {
                Err(io::Error::other(format!("injected crash at {point}")))
            }
            _ => Ok(()),
        }
    }
}

impl std::fmt::Debug for FailPoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "FailPoints(armed)" } else { "FailPoints(none)" })
    }
}

/// Whether an error came from a [`FailPoints`] hook (the crash harness
/// distinguishes injected deaths from real I/O failures).
pub fn is_injected_crash(e: &io::Error) -> bool {
    e.to_string().contains("injected crash at ")
}

/// One replayable WAL record: an edge batch with its sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Position in the current generation, starting at 1.
    pub seq: u64,
    /// Edges inserted by the batch.
    pub insert: Vec<(VertexId, VertexId)>,
    /// Edges removed by the batch.
    pub remove: Vec<(VertexId, VertexId)>,
}

fn encode_payload(
    seq: u64,
    insert: &[(VertexId, VertexId)],
    remove: &[(VertexId, VertexId)],
) -> Vec<u8> {
    let mut p = Vec::with_capacity(16 + 8 * (insert.len() + remove.len()));
    p.extend_from_slice(&seq.to_le_bytes());
    p.extend_from_slice(&(insert.len() as u32).to_le_bytes());
    p.extend_from_slice(&(remove.len() as u32).to_le_bytes());
    for &(u, v) in insert.iter().chain(remove) {
        p.extend_from_slice(&u.to_le_bytes());
        p.extend_from_slice(&v.to_le_bytes());
    }
    p
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    if payload.len() < 16 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let n_ins = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let n_rm = u32::from_le_bytes(payload[12..16].try_into().unwrap()) as usize;
    if payload.len() != 16 + 8 * (n_ins + n_rm) {
        return None;
    }
    let mut edges = payload[16..]
        .chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
            )
        })
        .collect::<Vec<_>>();
    let remove = edges.split_off(n_ins);
    Some(WalRecord { seq, insert: edges, remove })
}

/// What [`read_wal`] recovered from a log file.
#[derive(Clone, Debug, Default)]
pub struct WalContents {
    /// Generation stamped in the header.
    pub generation: u64,
    /// Valid records, in append order (`seq` = 1, 2, …).
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt tail dropped after the last valid record
    /// (0 for a cleanly closed log).
    pub torn_bytes: u64,
}

/// Reads a WAL file, stopping — not failing — at the first torn record:
/// a short frame, a checksum mismatch, an undecodable payload, or a
/// sequence break all mark the end of the valid prefix, and everything
/// after is reported as `torn_bytes`. A file that is not a WAL at all
/// (wrong magic) is an error, as is a file too short to hold the header:
/// header corruption means the base state is unknowable, unlike a torn
/// tail which is expected after a crash.
pub fn read_wal(path: &Path) -> io::Result<WalContents> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_HEADER_BYTES as usize || &bytes[..8] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not an hdsd WAL (bad or short header)", path.display()),
        ));
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut out = WalContents { generation, records: Vec::new(), torn_bytes: 0 };
    let mut at = WAL_HEADER_BYTES as usize;
    let mut expect_seq = 1u64;
    while at < bytes.len() {
        let valid = (|| {
            let frame = bytes.get(at..at + 8)?;
            let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
            let stored_crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            let payload = bytes.get(at + 8..at + 8 + len)?;
            if crc32(payload) != stored_crc {
                return None;
            }
            let rec = decode_payload(payload)?;
            // A duplicated or reordered record (e.g. a replayed sector)
            // breaks the strict sequence and ends the valid prefix.
            (rec.seq == expect_seq).then_some((rec, 8 + len))
        })();
        match valid {
            Some((rec, advance)) => {
                out.records.push(rec);
                expect_seq += 1;
                at += advance;
            }
            None => {
                out.torn_bytes = (bytes.len() - at) as u64;
                break;
            }
        }
    }
    Ok(out)
}

/// Point-in-time WAL telemetry for the `wal_stats` op.
#[derive(Clone, Debug)]
pub struct WalStats {
    /// Log file path.
    pub path: PathBuf,
    /// Current generation (bumped by every rotation).
    pub generation: u64,
    /// Records appended in this generation.
    pub records: u64,
    /// File size in bytes (header + records).
    pub bytes: u64,
    /// Appends acknowledged but not yet fsynced (0 under `always`).
    pub pending_sync: u64,
    /// Active fsync policy name.
    pub policy: String,
}

/// Append side of the log. One writer per daemon; the file is opened (or
/// created) at a given generation and appended to until rotated.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    fail: FailPoints,
    generation: u64,
    next_seq: u64,
    bytes: u64,
    pending_sync: u64,
    /// Set when any operation failed (injected or real): the writer
    /// refuses all further work, like the dead process it is simulating.
    dead: bool,
}

impl WalWriter {
    /// Creates a fresh, empty log at `path` (truncating any old file)
    /// with the given generation stamp, and syncs the header.
    pub fn create(
        path: &Path,
        generation: u64,
        policy: FsyncPolicy,
        fail: FailPoints,
    ) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&generation.to_le_bytes())?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            fail,
            generation,
            next_seq: 1,
            bytes: WAL_HEADER_BYTES,
            pending_sync: 0,
            dead: false,
        })
    }

    /// Reopens an existing log for appending after recovery validated it:
    /// the writer continues at `next_seq` past the `records` already
    /// present. Any torn tail must have been truncated away first.
    pub fn reopen(
        path: &Path,
        contents: &WalContents,
        policy: FsyncPolicy,
        fail: FailPoints,
    ) -> io::Result<WalWriter> {
        let file = OpenOptions::new().append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            fail,
            generation: contents.generation,
            next_seq: contents.records.len() as u64 + 1,
            bytes,
            pending_sync: 0,
            dead: false,
        })
    }

    fn guard(&mut self, point: &'static str) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("WAL writer is dead after an earlier failure"));
        }
        if let Err(e) = self.fail.check(point) {
            self.dead = true;
            return Err(e);
        }
        Ok(())
    }

    /// Appends one edge batch, returning its sequence number. The record
    /// is on disk (per the fsync policy) when this returns `Ok`; the
    /// caller applies the batch to the engine only after that.
    pub fn append(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> io::Result<u64> {
        let t_append = std::time::Instant::now();
        hdsd_telemetry::span!("wal.append");
        self.guard("wal.append.before")?;
        let payload = encode_payload(self.next_seq, insert, remove);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if self.fail.check("wal.append.torn").is_err() {
            // Simulate dying mid-write: half the frame reaches the file,
            // which a reader must detect and drop.
            let half = frame.len() / 2 + 1;
            let _ = self.file.write_all(&frame[..half.min(frame.len())]);
            let _ = self.file.sync_all();
            self.dead = true;
            return Err(io::Error::other("injected crash at wal.append.torn"));
        }
        if let Err(e) = self.file.write_all(&frame) {
            self.dead = true;
            return Err(e);
        }
        self.bytes += frame.len() as u64;
        self.pending_sync += 1;
        let reg = hdsd_telemetry::Registry::global();
        reg.counter("wal_records_total").inc();
        reg.counter("wal_appended_bytes_total").add(frame.len() as u64);
        match self.policy {
            FsyncPolicy::Always => self.sync("wal.fsync")?,
            FsyncPolicy::Batch(n) => {
                if self.pending_sync >= n as u64 {
                    self.sync("wal.fsync")?;
                }
            }
            FsyncPolicy::Off => {}
        }
        self.guard("wal.append.after")?;
        let seq = self.next_seq;
        self.next_seq += 1;
        reg.histogram("wal_append_micros").record(t_append.elapsed().as_micros() as u64);
        Ok(seq)
    }

    /// Forces pending appends to disk (checkpoints and graceful shutdown
    /// call this regardless of policy).
    pub fn sync(&mut self, point: &'static str) -> io::Result<()> {
        self.guard(point)?;
        hdsd_telemetry::span!("wal.fsync");
        let t_sync = std::time::Instant::now();
        if let Err(e) = self.file.sync_all() {
            self.dead = true;
            return Err(e);
        }
        self.pending_sync = 0;
        let reg = hdsd_telemetry::Registry::global();
        reg.counter("wal_fsyncs_total").inc();
        reg.histogram("wal_fsync_micros").record(t_sync.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Starts the next generation after a successful checkpoint: the log
    /// is truncated back to a fresh header and `seq` restarts at 1.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.guard("wal.rotate")?;
        let next_gen = self.generation + 1;
        let res = (|| {
            self.file.set_len(0)?;
            use std::io::Seek;
            self.file.seek(io::SeekFrom::Start(0))?;
            self.file.write_all(WAL_MAGIC)?;
            self.file.write_all(&next_gen.to_le_bytes())?;
            self.file.sync_all()
        })();
        if let Err(e) = res {
            self.dead = true;
            return Err(e);
        }
        self.generation = next_gen;
        self.next_seq = 1;
        self.bytes = WAL_HEADER_BYTES;
        self.pending_sync = 0;
        hdsd_telemetry::Registry::global().counter("wal_rotations_total").inc();
        Ok(())
    }

    /// Current telemetry.
    pub fn stats(&self) -> WalStats {
        WalStats {
            path: self.path.clone(),
            generation: self.generation,
            records: self.next_seq - 1,
            bytes: self.bytes,
            pending_sync: self.pending_sync,
            policy: self.policy.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdsd_wal_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_read_round_trip() {
        let path = tmp("roundtrip.wal");
        let mut w = WalWriter::create(&path, 7, FsyncPolicy::Always, FailPoints::none()).unwrap();
        assert_eq!(w.append(&[(0, 1), (2, 3)], &[]).unwrap(), 1);
        assert_eq!(w.append(&[], &[(0, 1)]).unwrap(), 2);
        assert_eq!(w.append(&[(5, 9)], &[(2, 3)]).unwrap(), 3);
        let c = read_wal(&path).unwrap();
        assert_eq!(c.generation, 7);
        assert_eq!(c.torn_bytes, 0);
        assert_eq!(c.records.len(), 3);
        assert_eq!(c.records[0].insert, vec![(0, 1), (2, 3)]);
        assert_eq!(c.records[1].remove, vec![(0, 1)]);
        assert_eq!(c.records[2].seq, 3);
        // Reopen continues the sequence.
        let mut w2 = WalWriter::reopen(&path, &c, FsyncPolicy::Always, FailPoints::none()).unwrap();
        assert_eq!(w2.append(&[(1, 2)], &[]).unwrap(), 4);
        assert_eq!(read_wal(&path).unwrap().records.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn.wal");
        let mut w = WalWriter::create(&path, 1, FsyncPolicy::Always, FailPoints::none()).unwrap();
        w.append(&[(0, 1)], &[]).unwrap();
        w.append(&[(1, 2)], &[]).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Every truncation point: a valid prefix of whole records comes
        // back, the incomplete rest is dropped and accounted for.
        for cut in WAL_HEADER_BYTES as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let c = read_wal(&path).unwrap();
            assert!(c.records.len() < 2, "cut {cut} returned a record it cannot have");
            for (i, r) in c.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64 + 1);
                assert_eq!(r.insert, vec![(i as u32, i as u32 + 1)]);
            }
            let boundary = (full.len() - WAL_HEADER_BYTES as usize) / 2 + WAL_HEADER_BYTES as usize;
            if cut != WAL_HEADER_BYTES as usize && cut != boundary {
                assert!(c.torn_bytes > 0, "cut {cut} mid-record must report a torn tail");
            }
        }
        // Shorter than the header, or bad magic: an error, not a guess.
        std::fs::write(&path, &full[..8]).unwrap();
        assert!(read_wal(&path).is_err());
        std::fs::write(&path, b"NOTAWAL!xxxxxxxx").unwrap();
        assert!(read_wal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotation_resets_generation_and_seq() {
        let path = tmp("rotate.wal");
        let mut w = WalWriter::create(&path, 3, FsyncPolicy::Batch(8), FailPoints::none()).unwrap();
        w.append(&[(0, 1)], &[]).unwrap();
        assert_eq!(w.stats().pending_sync, 1);
        w.sync("wal.fsync").unwrap();
        assert_eq!(w.stats().pending_sync, 0);
        w.rotate().unwrap();
        let s = w.stats();
        assert_eq!((s.generation, s.records, s.bytes), (4, 0, WAL_HEADER_BYTES));
        assert_eq!(w.append(&[(7, 8)], &[]).unwrap(), 1);
        let c = read_wal(&path).unwrap();
        assert_eq!(c.generation, 4);
        assert_eq!(c.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failpoints_kill_the_writer_for_good() {
        let path = tmp("failpoint.wal");
        let fp = FailPoints::new(|p| p == "wal.fsync");
        let mut w = WalWriter::create(&path, 1, FsyncPolicy::Always, fp).unwrap();
        let err = w.append(&[(0, 1)], &[]).unwrap_err();
        assert!(is_injected_crash(&err), "{err}");
        // Dead writer stays dead, whatever the point.
        let err2 = w.append(&[(1, 2)], &[]).unwrap_err();
        assert!(!is_injected_crash(&err2));
        assert!(w.rotate().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::Batch(32)));
        assert_eq!(FsyncPolicy::parse("batch=4"), Some(FsyncPolicy::Batch(4)));
        assert_eq!(FsyncPolicy::parse("batch:4"), Some(FsyncPolicy::Batch(4)));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("batch=0"), None);
        assert_eq!(FsyncPolicy::parse("batch:0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
