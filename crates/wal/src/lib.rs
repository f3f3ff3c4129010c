//! # foc-wal — crash-safe durability for live updates
//!
//! A dependency-free write-ahead log + checkpoint pair in the classic
//! ARIES discipline, in miniature:
//!
//! * **Log-before-ack** — every effective commit is appended as a
//!   CRC32-framed, length-prefixed record carrying the epoch it
//!   produced, the epoch-folded fingerprint of the snapshot *after* the
//!   commit, and the tuple ops of the batch ([`record`]). The caller
//!   acknowledges the update only after [`Wal::append_commit`] returns,
//!   which applies the configured [`FsyncPolicy`].
//! * **Checkpoints bound replay** — [`Wal::checkpoint`] atomically
//!   replaces a snapshot of the whole [`Structure`] (its text
//!   serialization plus an epoch/fingerprint/CRC header) and empties the
//!   log, so recovery replays only the tail since the last checkpoint.
//!   Records at or below the checkpoint epoch are skipped on replay,
//!   which makes a crash *between* checkpoint replacement and log reset
//!   harmless.
//! * **Idempotent recovery** — [`Wal::recover`] loads the checkpoint,
//!   restores it at its recorded epoch
//!   ([`DeltaStructure::restore`]), truncates any torn tail (first
//!   frame that is incomplete or fails its CRC; see [`record`]), and
//!   replays the surviving records in order, verifying after each that
//!   the replayed snapshot's fingerprint equals the one recorded at
//!   commit time. A mismatch is a refusal to serve
//!   ([`WalError::FingerprintMismatch`]), never a silently wrong state.
//!   Recovering an already-recovered directory is a no-op with the
//!   identical fingerprint.
//!
//! The IO boundary is injectable ([`store::WalStore`]): the same
//! recovery code runs against a real directory ([`store::DirStore`])
//! and the in-memory crash-simulating backend ([`store::MemStore`])
//! that `foc fuzz --crash` sweeps kill-points over.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod crc;
pub mod record;
pub mod store;

use std::io;
use std::time::{Duration, Instant};

use foc_structures::io::{parse_structure, write_structure};
use foc_structures::{DeltaStructure, Structure, TupleOp};

pub use crc::crc32;
pub use record::{decode_log, encode_commit, CommitRecord, DecodedLog};
pub use store::{DirStore, MemStore, WalStore, CHECKPOINT_FILE, LOG_FILE};

/// When an appended record becomes durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append: an acknowledgement implies durability.
    Always,
    /// Fsync when the previous fsync is at least this old; an
    /// acknowledgement implies durability within the interval.
    Interval(Duration),
    /// Never fsync from the append path (the OS flushes eventually);
    /// an acknowledgement implies only that the record was written.
    Never,
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `always`, `never`, `interval` (100 ms), or `interval:<ms>`.
    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(100))),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|e| format!("bad fsync interval {ms:?}: {e}")),
                None => Err(format!(
                    "unknown fsync policy {other:?} (expected always, never, interval, or interval:<ms>)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Everything that can go wrong opening or recovering a WAL directory.
#[derive(Debug)]
pub enum WalError {
    /// An IO operation failed.
    Io(io::Error),
    /// The checkpoint or log content is structurally invalid in a way
    /// the torn-tail rule cannot repair.
    Corrupt(String),
    /// Replay reproduced a state whose fingerprint differs from the one
    /// recorded at commit time: the directory must not be served.
    FingerprintMismatch {
        /// The epoch at which the mismatch was detected.
        epoch: u64,
        /// The fingerprint recorded in the log/checkpoint.
        recorded: u64,
        /// The fingerprint the replayed state actually has.
        replayed: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "io error: {e}"),
            WalError::Corrupt(why) => write!(f, "corrupt wal: {why}"),
            WalError::FingerprintMismatch {
                epoch,
                recorded,
                replayed,
            } => write!(
                f,
                "fingerprint mismatch at epoch {epoch}: recorded {recorded:016x}, replayed {replayed:016x}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// What [`Wal::recover`] found and rebuilt.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered versioned structure, at its recorded epoch.
    pub delta: DeltaStructure,
    /// Whether a checkpoint existed (false on a fresh directory).
    pub had_checkpoint: bool,
    /// Epoch of the checkpoint the replay started from.
    pub checkpoint_epoch: u64,
    /// Records replayed from the log tail.
    pub replayed: u64,
    /// Records skipped because the checkpoint already contained them.
    pub skipped: u64,
    /// Torn-tail bytes truncated from the log.
    pub truncated_bytes: u64,
    /// Fingerprint of the recovered snapshot.
    pub fingerprint: u64,
}

/// What one [`Wal::append_commit`] did.
#[derive(Debug, Clone, Copy)]
pub struct AppendInfo {
    /// Framed bytes appended to the log.
    pub bytes: u64,
    /// Whether this append fsynced (per policy).
    pub synced: bool,
}

/// Read-only summary of a WAL directory, for `foc wal inspect`.
#[derive(Debug)]
pub struct Inspection {
    /// Checkpoint header, if a checkpoint exists: `(epoch, fingerprint,
    /// universe order)`.
    pub checkpoint: Option<(u64, u64, u32)>,
    /// Per-record summaries of the valid log prefix: `(epoch,
    /// fingerprint, op count)`.
    pub records: Vec<(u64, u64, usize)>,
    /// Bytes of the valid log prefix.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (the torn tail; zero when clean).
    pub torn_bytes: u64,
    /// Why the scan stopped early, when it did.
    pub torn_reason: Option<String>,
}

const CHECKPOINT_MAGIC: &str = "focwal-checkpoint";

/// Serializes a checkpoint image: a header line carrying the epoch, the
/// epoch-folded fingerprint, and a CRC32 of the body, followed by the
/// structure's text serialization.
fn encode_checkpoint(s: &Structure) -> Vec<u8> {
    let body = write_structure(s);
    let header = format!(
        "{CHECKPOINT_MAGIC} 1 {} {:016x} {:08x}\n",
        s.epoch(),
        s.fingerprint(),
        crc32(body.as_bytes())
    );
    let mut out = header.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Parses and verifies a checkpoint image into `(structure, epoch,
/// fingerprint)`; the structure is epoch-0 (restore it via
/// [`DeltaStructure::restore`]).
fn decode_checkpoint(bytes: &[u8]) -> Result<(Structure, u64, u64), WalError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| WalError::Corrupt(format!("checkpoint is not utf-8: {e}")))?;
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| WalError::Corrupt("checkpoint missing header line".to_string()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 5 || fields[0] != CHECKPOINT_MAGIC || fields[1] != "1" {
        return Err(WalError::Corrupt(format!(
            "bad checkpoint header {header:?}"
        )));
    }
    let epoch: u64 = fields[2]
        .parse()
        .map_err(|e| WalError::Corrupt(format!("bad checkpoint epoch: {e}")))?;
    let fingerprint = u64::from_str_radix(fields[3], 16)
        .map_err(|e| WalError::Corrupt(format!("bad checkpoint fingerprint: {e}")))?;
    let crc = u32::from_str_radix(fields[4], 16)
        .map_err(|e| WalError::Corrupt(format!("bad checkpoint crc: {e}")))?;
    let actual = crc32(body.as_bytes());
    if actual != crc {
        return Err(WalError::Corrupt(format!(
            "checkpoint body crc mismatch (stored {crc:08x}, actual {actual:08x})"
        )));
    }
    let structure = parse_structure(body)
        .map_err(|e| WalError::Corrupt(format!("checkpoint body line {}: {}", e.line, e.msg)))?;
    Ok((structure, epoch, fingerprint))
}

/// An open write-ahead log: appends commit records, takes checkpoints,
/// and tracks durability health.
#[derive(Debug)]
pub struct Wal<S: WalStore> {
    store: S,
    policy: FsyncPolicy,
    synced_at: Instant,
    dirty: bool,
    log_bytes: u64,
    checkpoint_epoch: u64,
    appends: u64,
    syncs: u64,
    checkpoints: u64,
}

impl<S: WalStore> Wal<S> {
    /// Opens a WAL directory and recovers its state.
    ///
    /// With a checkpoint present, the checkpoint is restored at its
    /// recorded epoch and verified against its recorded fingerprint;
    /// without one, `base` seeds the state (a fresh directory). The log
    /// tail is then scanned, any torn tail truncated, and the surviving
    /// records replayed in order — each replayed commit must land on
    /// exactly the epoch and fingerprint recorded at commit time, or
    /// recovery refuses with an error rather than serve a diverged
    /// state.
    pub fn recover(
        mut store: S,
        policy: FsyncPolicy,
        base: Option<Structure>,
    ) -> Result<(Wal<S>, Recovery), WalError> {
        let ckpt = store.read_checkpoint()?;
        let had_checkpoint = ckpt.is_some();
        let (mut delta, checkpoint_epoch) = match ckpt {
            Some(bytes) => {
                let (s, epoch, recorded) = decode_checkpoint(&bytes)?;
                let delta = DeltaStructure::restore(s, epoch);
                let replayed = delta.snapshot().fingerprint();
                if replayed != recorded {
                    return Err(WalError::FingerprintMismatch {
                        epoch,
                        recorded,
                        replayed,
                    });
                }
                (delta, epoch)
            }
            None => match base {
                Some(s) => {
                    let epoch = s.epoch();
                    (DeltaStructure::restore(s, epoch), epoch)
                }
                None => {
                    return Err(WalError::Corrupt(
                        "no checkpoint and no base structure".to_string(),
                    ))
                }
            },
        };

        let image = store.read_log()?;
        let decoded = decode_log(&image);
        let truncated_bytes = (image.len() - decoded.valid_len) as u64;
        if truncated_bytes > 0 {
            store.truncate_log(decoded.valid_len as u64)?;
        }
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        for rec in &decoded.records {
            if rec.epoch <= delta.epoch() {
                skipped += 1;
                continue;
            }
            if rec.epoch != delta.epoch() + 1 {
                return Err(WalError::Corrupt(format!(
                    "epoch gap: log record {} follows state at {}",
                    rec.epoch,
                    delta.epoch()
                )));
            }
            let info = delta.apply(&rec.ops).map_err(|e| {
                WalError::Corrupt(format!("replay failed at epoch {}: {e}", rec.epoch))
            })?;
            if info.epoch != rec.epoch {
                return Err(WalError::Corrupt(format!(
                    "replay of record {} landed on epoch {}",
                    rec.epoch, info.epoch
                )));
            }
            let fp = delta.snapshot().fingerprint();
            if fp != rec.fingerprint {
                return Err(WalError::FingerprintMismatch {
                    epoch: rec.epoch,
                    recorded: rec.fingerprint,
                    replayed: fp,
                });
            }
            replayed += 1;
        }

        let fingerprint = delta.snapshot().fingerprint();
        let wal = Wal {
            store,
            policy,
            synced_at: Instant::now(),
            dirty: false,
            log_bytes: decoded.valid_len as u64,
            checkpoint_epoch,
            appends: 0,
            syncs: 0,
            checkpoints: 0,
        };
        Ok((
            wal,
            Recovery {
                delta,
                had_checkpoint,
                checkpoint_epoch,
                replayed,
                skipped,
                truncated_bytes,
                fingerprint,
            },
        ))
    }

    /// Appends one commit record and applies the fsync policy. When this
    /// returns `Ok`, the record is durable per policy — the caller may
    /// acknowledge the update. On `Err` the record must be treated as
    /// never written: roll the in-memory commit back and stop
    /// acknowledging.
    pub fn append_commit(
        &mut self,
        epoch: u64,
        fingerprint: u64,
        ops: &[TupleOp],
    ) -> io::Result<AppendInfo> {
        let bytes = encode_commit(epoch, fingerprint, ops);
        self.store.append_log(&bytes)?;
        self.dirty = true;
        self.log_bytes += bytes.len() as u64;
        self.appends += 1;
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(d) => self.synced_at.elapsed() >= d,
            FsyncPolicy::Never => false,
        };
        if sync {
            self.sync()?;
        }
        Ok(AppendInfo {
            bytes: bytes.len() as u64,
            synced: sync,
        })
    }

    /// Forces an fsync of all appended records (used at drain and by the
    /// interval policy).
    pub fn sync(&mut self) -> io::Result<()> {
        self.store.sync_log()?;
        self.dirty = false;
        self.synced_at = Instant::now();
        self.syncs += 1;
        Ok(())
    }

    /// Atomically replaces the checkpoint with a snapshot of `s` and
    /// empties the log. A crash between the replacement and the log
    /// reset is harmless: replay skips records the checkpoint already
    /// contains.
    pub fn checkpoint(&mut self, s: &Structure) -> io::Result<()> {
        let image = encode_checkpoint(s);
        self.store.write_checkpoint(&image)?;
        self.store.reset_log()?;
        self.log_bytes = 0;
        self.dirty = false;
        self.synced_at = Instant::now();
        self.checkpoint_epoch = s.epoch();
        self.checkpoints += 1;
        Ok(())
    }

    /// Age of the oldest unsynced record (zero when everything appended
    /// is durable).
    pub fn unsynced_age(&self) -> Duration {
        if self.dirty {
            self.synced_at.elapsed()
        } else {
            Duration::ZERO
        }
    }

    /// Log bytes accumulated since the last checkpoint.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Epoch of the last checkpoint.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint_epoch
    }

    /// Records appended since open.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs performed since open.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Checkpoints taken since open.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Consumes the WAL, returning its store (the fuzzer crashes a
    /// workload, then recovers from what survived in the store).
    pub fn into_store(self) -> S {
        self.store
    }
}

/// Read-only scan of a WAL directory: checkpoint header, per-record
/// summaries, and torn-tail accounting. Unlike [`Wal::recover`] this
/// never modifies the store — a torn tail is reported, not truncated.
pub fn inspect<S: WalStore>(store: &mut S) -> Result<Inspection, WalError> {
    let checkpoint = match store.read_checkpoint()? {
        Some(bytes) => {
            let (s, epoch, fingerprint) = decode_checkpoint(&bytes)?;
            Some((epoch, fingerprint, s.order()))
        }
        None => None,
    };
    let image = store.read_log()?;
    let decoded = decode_log(&image);
    Ok(Inspection {
        checkpoint,
        records: decoded
            .records
            .iter()
            .map(|r| (r.epoch, r.fingerprint, r.ops.len()))
            .collect(),
        valid_bytes: decoded.valid_len as u64,
        torn_bytes: (image.len() - decoded.valid_len) as u64,
        torn_reason: decoded.torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_structures::StructureBuilder;

    fn base() -> Structure {
        let mut b = StructureBuilder::new();
        b.declare("E", 2);
        b.declare("P", 1);
        b.ensure_universe(8);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            b.try_insert("E", &[u, v]).unwrap();
        }
        b.try_insert("P", &[0]).unwrap();
        b.finish()
    }

    fn commit(delta: &mut DeltaStructure, wal: &mut Wal<MemStore>, ops: &[TupleOp]) {
        let info = delta.apply(ops).unwrap();
        assert!(info.changed > 0);
        wal.append_commit(info.epoch, delta.snapshot().fingerprint(), ops)
            .unwrap();
    }

    #[test]
    fn fresh_dir_checkpoint_log_replay_roundtrip() {
        let (mut wal, rec) =
            Wal::recover(MemStore::new(), FsyncPolicy::Always, Some(base())).unwrap();
        assert!(!rec.had_checkpoint);
        let mut delta = rec.delta;
        wal.checkpoint(delta.current()).unwrap();
        commit(&mut delta, &mut wal, &[TupleOp::insert("E", &[3, 4])]);
        commit(&mut delta, &mut wal, &[TupleOp::delete("P", &[0])]);
        let want = delta.snapshot().fingerprint();
        assert_eq!(wal.appends(), 2);
        assert_eq!(wal.syncs(), 2);

        let store = wal.into_store();
        let (_, rec2) = Wal::recover(store, FsyncPolicy::Always, None).unwrap();
        assert!(rec2.had_checkpoint);
        assert_eq!(rec2.replayed, 2);
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.fingerprint, want);
        assert_eq!(rec2.delta.epoch(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_and_never_served() {
        let (mut wal, rec) =
            Wal::recover(MemStore::new(), FsyncPolicy::Always, Some(base())).unwrap();
        let mut delta = rec.delta;
        wal.checkpoint(delta.current()).unwrap();
        commit(&mut delta, &mut wal, &[TupleOp::insert("E", &[3, 4])]);
        let durable_fp = delta.snapshot().fingerprint();
        // A torn half-record at the tail.
        let mut store = wal.into_store();
        let torn = encode_commit(2, 0x1234, &[TupleOp::insert("E", &[4, 5])]);
        store.append_log(&torn[..torn.len() / 2]).unwrap();
        store.sync_log().unwrap();

        let (wal2, rec2) = Wal::recover(store, FsyncPolicy::Always, None).unwrap();
        assert_eq!(rec2.replayed, 1);
        assert!(rec2.truncated_bytes > 0);
        assert_eq!(rec2.fingerprint, durable_fp);
        // The truncation is durable: a second recovery sees a clean log.
        let (_, rec3) = Wal::recover(wal2.into_store(), FsyncPolicy::Always, None).unwrap();
        assert_eq!(rec3.truncated_bytes, 0);
        assert_eq!(rec3.fingerprint, durable_fp);
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_serve() {
        let (mut wal, rec) =
            Wal::recover(MemStore::new(), FsyncPolicy::Always, Some(base())).unwrap();
        let mut delta = rec.delta;
        wal.checkpoint(delta.current()).unwrap();
        let info = delta.apply(&[TupleOp::insert("E", &[3, 4])]).unwrap();
        // Record a *wrong* fingerprint, as if the in-memory state had
        // diverged from what was logged.
        wal.append_commit(info.epoch, 0xBAD0_BAD0, &[TupleOp::insert("E", &[3, 4])])
            .unwrap();
        let err = Wal::recover(wal.into_store(), FsyncPolicy::Always, None).unwrap_err();
        assert!(matches!(
            err,
            WalError::FingerprintMismatch { epoch: 1, .. }
        ));
    }

    #[test]
    fn mid_checkpoint_crash_skips_already_contained_records() {
        // Checkpoint replaced but log not yet reset: replay must skip
        // the records the checkpoint already contains.
        let (mut wal, rec) =
            Wal::recover(MemStore::new(), FsyncPolicy::Always, Some(base())).unwrap();
        let mut delta = rec.delta;
        wal.checkpoint(delta.current()).unwrap();
        commit(&mut delta, &mut wal, &[TupleOp::insert("E", &[3, 4])]);
        commit(&mut delta, &mut wal, &[TupleOp::insert("E", &[4, 5])]);
        let want = delta.snapshot().fingerprint();
        let mut store = wal.into_store();
        // Simulate the crash window: write the new checkpoint image
        // directly, leaving the old log in place.
        store
            .write_checkpoint(&encode_checkpoint(delta.current()))
            .unwrap();
        let (_, rec2) = Wal::recover(store, FsyncPolicy::Always, None).unwrap();
        assert_eq!(rec2.skipped, 2);
        assert_eq!(rec2.replayed, 0);
        assert_eq!(rec2.fingerprint, want);
    }

    /// `interval` and `never` leave appends unsynced until an explicit
    /// sync; `always` syncs once per acknowledged append.
    #[test]
    fn interval_and_never_policies_defer_syncs() {
        for policy in [
            FsyncPolicy::Interval(Duration::from_secs(3600)),
            FsyncPolicy::Never,
            FsyncPolicy::Always,
        ] {
            let always = policy == FsyncPolicy::Always;
            let (mut wal, rec) = Wal::recover(MemStore::new(), policy, Some(base())).unwrap();
            let mut delta = rec.delta;
            wal.checkpoint(delta.current()).unwrap();
            let syncs_before = wal.syncs();
            for (u, v) in [(3, 4), (4, 5), (5, 6)] {
                let info = delta.apply(&[TupleOp::insert("E", &[u, v])]).unwrap();
                let a = wal
                    .append_commit(info.epoch, delta.snapshot().fingerprint(), &[])
                    .unwrap();
                assert_eq!(a.synced, always, "{policy}");
            }
            assert_eq!(
                wal.syncs() - syncs_before,
                if always { 3 } else { 0 },
                "{policy}"
            );
            if !always {
                assert!(wal.unsynced_age() > Duration::ZERO || wal.log_bytes() > 0);
            }
            wal.sync().unwrap();
            assert_eq!(wal.unsynced_age(), Duration::ZERO);
        }
    }

    #[test]
    fn fsync_policy_parses() {
        use std::str::FromStr;
        assert_eq!(
            FsyncPolicy::from_str("always").unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!(FsyncPolicy::from_str("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::from_str("interval:250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(FsyncPolicy::from_str("sometimes").is_err());
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(250)).to_string(),
            "interval:250"
        );
    }

    #[test]
    fn inspect_reports_without_truncating() {
        let (mut wal, rec) =
            Wal::recover(MemStore::new(), FsyncPolicy::Always, Some(base())).unwrap();
        let mut delta = rec.delta;
        wal.checkpoint(delta.current()).unwrap();
        commit(&mut delta, &mut wal, &[TupleOp::insert("E", &[3, 4])]);
        let mut store = wal.into_store();
        store.append_log(b"torn!").unwrap();
        store.sync_log().unwrap();
        let before = store.read_log().unwrap();
        let insp = inspect(&mut store).unwrap();
        assert_eq!(insp.records.len(), 1);
        assert_eq!(insp.records[0].0, 1);
        assert_eq!(insp.torn_bytes, 5);
        assert!(insp.torn_reason.is_some());
        let (epoch, _, order) = insp.checkpoint.unwrap();
        assert_eq!((epoch, order), (0, 8));
        // Inspect never modifies the store.
        assert_eq!(store.read_log().unwrap(), before);
    }
}
