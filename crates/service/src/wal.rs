//! A checksummed, segmented write-ahead log with group commit off the
//! hot path.
//!
//! ## Why a WAL at all
//!
//! Snapshots alone leave a loss window: every deposit between the last
//! snapshot and a crash dies with the process. The WAL closes it for
//! *tracked* batches — each `(client_id, seq, stream, raw LE f64
//! payload)` is appended here and fsynced (per [`FsyncPolicy`]) before
//! the client sees its ACK, so "ACKed ⇒ durable" holds across a kill at
//! any instruction. Untracked batches (client id
//! [`UNTRACKED_CLIENT`](crate::proto::UNTRACKED_CLIENT)) carry no retry
//! identity, so their replay could never be made idempotent; they keep
//! their PR-2 semantics — snapshot-only durability — and are not logged.
//!
//! ## On-disk format
//!
//! The log is a directory of fixed-size segments named
//! `wal-<index:016x>.log`. Each segment is
//!
//! ```text
//! [ 8B magic "OISWALv1" ][ 8B BE segment index ]      <- header
//! [ 4B BE payload len ][ payload ][ 8B BE fnv4 ]      <- record, repeated
//! [ 4B BE 0xFFFFFFFF ][ 8B BE records ][ 8B BE fnv ]  <- seal (rotated/closed segments)
//! ```
//!
//! and a record payload is
//!
//! ```text
//! [ 8B BE client_id ][ 8B BE seq ][ 2B BE name len ][ name ][ raw LE f64 bytes ]
//! ```
//!
//! This is the snapshot-v2 sealing discipline translated to binary:
//! every record carries its own length + checksum, and a finished
//! segment is sealed by a footer checksum. The record checksum is
//! [`fnv4`] — FNV-1a 64 striped over four interleaved word-wide lanes.
//! The record path hashes every payload on its way to an ACK, and the
//! serial xor-multiply chain (first byte-at-a-time as in the snapshot
//! footer's [`fnv1a64`](oisum_faults::fnv1a64), then word-wide) was the
//! single largest term in append latency; four independent lanes let
//! the multiplies overlap, keeping the prime/offset discipline at a
//! quarter of the chain depth of the word-wide fold. The
//! seal checksum folds the 16-byte header and each record's *stored
//! checksum* in order — O(1) per record, and equally decisive: a
//! mutated record byte breaks that record's own checksum, and a
//! mutated record checksum (or one snipped out whole) breaks the seal.
//! A torn append is detected by the record checksum; silent corruption
//! inside a sealed segment is detected by record + seal together.
//! Recovery semantics live in [`recovery`](crate::recovery).
//!
//! ## Group commit
//!
//! There is one append protocol: [`Wal::submit`] issues the record a
//! dense ticket, and the ACK waits until [`Wal::commit_mark`] covers
//! it. Under `never` a submit that wins the segment lock over an empty
//! queue, with a record that fits below the rotation threshold, is a
//! complete group of one: it is framed *directly into the segment* (no
//! `Vec`, no queue round-trip, no wakeups) and the ticket comes back
//! already covered. Every other record is queued for a dedicated
//! committer thread, which therefore performs every fsync and every
//! segment seal, create and pre-fault; under `group(..)` it
//! accumulates the group so one fsync covers many appenders.
//!
//! The two transports differ only in how they await the ticket.
//! [`Wal::append`] is `submit` plus one counted wait
//! ([`Wal::wait_committed`]) — the threaded server's worker sleeps
//! there. The epoll reactor parks the connection instead: after each
//! group it publishes, the committer calls the registered commit waker
//! ([`Wal::set_commit_waker`]) so the reactor learns of the new mark
//! without a thread parked on it. Either way the server sends an
//! `Added` ACK only once the mark covers the ticket, which is the whole
//! contract.
//!
//! ## Mapped segments
//!
//! On linux/x86_64, a new segment is pre-sized with real block
//! reservation and mapped `MAP_SHARED` with every page faulted in at
//! creation time ([`crate::segmap`]). An append is then a ~300 ns
//! `memcpy` into the kernel's own page cache — the bytes already have
//! process-crash durability when the store retires, which is exactly
//! the `never` policy's contract — and `fsync` on the descriptor still
//! flushes mapping-dirtied pages, so `always`/`group` keep their
//! power-loss guarantees. The page-dirtying cost hasn't vanished, it
//! has *moved*: segment creation (server start, or rotation) eats it
//! in one streaming pass, off the per-ACK path — the same
//! preallocation trade classic databases make for their logs. Until a
//! mapped segment is sealed, its file carries a zero-filled tail;
//! recovery reads a zero length field followed by only zeros as the
//! clean end of a pre-sized segment (a real record can't have length
//! 0), and sealing truncates the tail before the footer goes down so a
//! sealed segment is exactly header + records + seal. Anywhere the
//! mapping can't be had (other targets, exotic filesystems), the WAL
//! falls back to buffered `write(2)` with identical semantics.
//!
//! ## Crash discipline
//!
//! Any committer failure — a real I/O error or an injected fault —
//! *poisons* the log: every pending and future `append` returns
//! [`WalError::Crashed`], so no ACK can ever ride on a write whose
//! durability is in doubt. The fault seams (`wal.append.torn`,
//! `wal.fsync.drop`, `wal.segment.corrupt`) model a crash corrupting the
//! in-flight group and therefore always poison; an in-flight group is by
//! definition un-ACKed, which is what makes "zero ACKed-batch loss"
//! provable rather than probabilistic.

use crate::segmap::SegmentMap;
use oisum_core::{AtomicU64Like, StdSyncShim, SyncShimLike};
use oisum_faults::FaultAction;
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

/// First 8 bytes of every segment file.
pub const WAL_MAGIC: [u8; 8] = *b"OISWALv1";

/// Segment header length: magic + big-endian segment index.
pub const SEGMENT_HEADER_LEN: usize = 16;

/// The length field value that marks a seal footer instead of a record.
/// Real payloads are capped far below it by [`MAX_RECORD_PAYLOAD`].
pub const SEAL_MARKER: u32 = u32::MAX;

/// Seal footer length: marker + record count + whole-prefix checksum.
pub const SEAL_LEN: usize = 20;

/// Framing overhead per record: 4-byte length + 8-byte checksum.
pub const RECORD_OVERHEAD: usize = 12;

/// Fixed payload bytes before the stream name: client id + seq + name
/// length.
pub const RECORD_FIXED: usize = 18;

/// Payload ceiling, matching the wire protocol's frame ceiling — a batch
/// that fit in a frame always fits in a record.
pub const MAX_RECORD_PAYLOAD: usize = 16 << 20;

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// When the committer syncs a group to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every group, with no accumulation wait: the
    /// committer commits whatever is queued the moment it wakes.
    /// Strongest latency-to-durability coupling, most syncs.
    Always,
    /// The committer waits up to `max_wait` (or until `max_batch`
    /// records are queued) to let a group accumulate, then writes and
    /// `fsync`s once for the whole group. The default: ACKs are still
    /// durable, but N concurrent appenders share one sync.
    Group {
        /// Commit as soon as this many records are pending.
        max_batch: usize,
        /// Commit no later than this long after the first pending record.
        max_wait: Duration,
    },
    /// Write without ever calling `fsync` (the OS flushes at its
    /// leisure). An ACK then survives a process kill but not a power
    /// cut; the format still detects whatever made it to disk.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Group { max_batch: 64, max_wait: Duration::from_millis(2) }
    }
}

impl core::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::Group { max_batch, max_wait } => {
                write!(f, "group({max_batch},{}us)", max_wait.as_micros())
            }
            FsyncPolicy::Never => f.write_str("never"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parses the [`Display`](core::fmt::Display) forms: `always`,
    /// `never`, `group` (default batch/wait), or `group(N,Tus)`.
    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        let bad = || {
            format!("unknown fsync policy `{s}` (expected always | never | group | group(N,Tus))")
        };
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "group" => Ok(FsyncPolicy::default()),
            _ => {
                let inner = s
                    .strip_prefix("group(")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .ok_or_else(bad)?;
                let (batch, wait) = inner.split_once(',').ok_or_else(bad)?;
                let max_batch = batch.trim().parse().map_err(|_| bad())?;
                let micros =
                    wait.trim().strip_suffix("us").ok_or_else(bad)?.parse().map_err(|_| bad())?;
                Ok(FsyncPolicy::Group { max_batch, max_wait: Duration::from_micros(micros) })
            }
        }
    }
}

/// WAL construction parameters.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate (seal + start a new segment) once the active segment
    /// reaches this many bytes.
    pub segment_bytes: u64,
    /// When groups are synced; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// A config with default rotation size and fsync policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            fsync: FsyncPolicy::default(),
        }
    }
}

/// Why a WAL operation (append, close, or recovery) failed.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The committer is poisoned (I/O death, injected fault, or a crash
    /// drill): this append's durability cannot be vouched for, so it
    /// must not be ACKed.
    Crashed(String),
    /// Append after `close`.
    Closed,
    /// The batch payload exceeds [`MAX_RECORD_PAYLOAD`].
    RecordTooLarge {
        /// Offending payload length.
        len: usize,
    },
    /// Stream names are length-prefixed with a u16, like the wire
    /// protocol's.
    StreamNameTooLong {
        /// Offending name length.
        len: usize,
    },
    /// A segment file's header is not a valid WAL header, or its
    /// embedded index disagrees with its file name.
    BadHeader {
        /// Segment index (from the file name).
        segment: u64,
        /// What was wrong.
        detail: String,
    },
    /// Structurally impossible bytes protected by a *valid* checksum, a
    /// seal that does not match the bytes it covers, or data after a
    /// seal: not a torn tail but real corruption, so recovery refuses
    /// rather than guessing.
    Corrupt {
        /// Segment index.
        segment: u64,
        /// Byte offset of the corrupt region.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A gap in the segment sequence (files deleted out from under the
    /// log): replay order cannot be reconstructed.
    MissingSegment {
        /// The index that should have followed.
        expected: u64,
        /// The index actually found.
        found: u64,
    },
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::Crashed(detail) => write!(f, "wal crashed: {detail}"),
            WalError::Closed => f.write_str("wal is closed"),
            WalError::RecordTooLarge { len } => {
                write!(f, "wal record payload of {len} bytes exceeds {MAX_RECORD_PAYLOAD}")
            }
            WalError::StreamNameTooLong { len } => {
                write!(f, "stream name of {len} bytes exceeds the u16 length prefix")
            }
            WalError::BadHeader { segment, detail } => {
                write!(f, "wal segment {segment:016x}: bad header: {detail}")
            }
            WalError::Corrupt { segment, offset, detail } => {
                write!(f, "wal segment {segment:016x} corrupt at byte {offset}: {detail}")
            }
            WalError::MissingSegment { expected, found } => {
                write!(f, "wal segment sequence gap: expected {expected:016x}, found {found:016x}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<WalError> for io::Error {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The file name of segment `index`.
pub fn segment_file_name(index: u64) -> String {
    format!("wal-{index:016x}.log")
}

/// Every segment in `dir`, sorted by index. Files that do not match the
/// `wal-<16 hex>.log` shape are ignored (they are not ours to interpret
/// or delete).
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".log")) else {
            continue;
        };
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            continue;
        }
        let Ok(index) = u64::from_str_radix(hex, 16) else { continue };
        segments.push((index, entry.path()));
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

/// Encodes one framed record: `len | payload | fnv4(payload)`.
pub fn encode_record(
    stream: &str,
    client_id: u64,
    seq: u64,
    value_bytes: &[u8],
) -> Result<Vec<u8>, WalError> {
    let payload_len = checked_payload_len(stream, value_bytes)?;
    let mut rec = Vec::with_capacity(RECORD_OVERHEAD + payload_len);
    rec.extend_from_slice(&(payload_len as u32).to_be_bytes());
    rec.extend_from_slice(&client_id.to_be_bytes());
    rec.extend_from_slice(&seq.to_be_bytes());
    rec.extend_from_slice(&(stream.len() as u16).to_be_bytes());
    rec.extend_from_slice(stream.as_bytes());
    rec.extend_from_slice(value_bytes);
    let sum = fnv4(&rec[4..]);
    rec.extend_from_slice(&sum.to_be_bytes());
    Ok(rec)
}

/// The payload length of a record for `stream` carrying `value_bytes`,
/// or the refusal [`encode_record`] would give it.
fn checked_payload_len(stream: &str, value_bytes: &[u8]) -> Result<usize, WalError> {
    if stream.len() > u16::MAX as usize {
        return Err(WalError::StreamNameTooLong { len: stream.len() });
    }
    let payload_len = RECORD_FIXED + stream.len() + value_bytes.len();
    if payload_len > MAX_RECORD_PAYLOAD {
        return Err(WalError::RecordTooLarge { len: payload_len });
    }
    Ok(payload_len)
}

/// Record-payload checksum: four interleaved word-wide FNV-1a 64 lanes.
///
/// The serial `(h ^ x) * prime` chain is latency-bound — one 3-cycle
/// multiply per 8 bytes, back to back — and at 4 KB payloads it was the
/// single largest cost on the append path (~0.8 µs/record). Striping
/// 32-byte blocks across four independent lanes lets the multiplies
/// overlap, quartering the chain depth; the lanes (distinct offset
/// bases, so a block of identical words still feeds distinct states)
/// are folded into one word with the same xor-multiply step, and any
/// sub-block tail runs through the classic serial chain from the fold.
///
/// Detection: a flip confined to one lane survives to the fold because
/// each lane step is a bijection of lane state, and the fold is a
/// bijection in each lane input separately — so any single-bit (indeed
/// any single-lane) corruption is detected with certainty, multi-lane
/// damage with the usual ~2^-64 escape odds. This is the checksum for
/// *record payloads* only; seal footers fold fixed-width record
/// checksums with the streaming [`fnv_wide_update`], whose 8-byte
/// composition property the seal format depends on.
pub(crate) fn fnv4(bytes: &[u8]) -> u64 {
    const P: u64 = 0x100000001b3;
    let mut lanes = [
        FNV_OFFSET ^ 1,
        FNV_OFFSET ^ 2,
        FNV_OFFSET ^ 3,
        FNV_OFFSET ^ 4,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            // lint:allow(service-unwrap) -- chunks_exact(32) yields exactly 32 bytes.
            *lane ^= u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().unwrap());
            *lane = lane.wrapping_mul(P);
        }
    }
    let folded = ((lanes[0].wrapping_mul(P) ^ lanes[1]).wrapping_mul(P) ^ lanes[2])
        .wrapping_mul(P)
        ^ lanes[3];
    fnv_wide_update(folded, blocks.remainder())
}

/// Streaming word-wide FNV-1a 64: the classic `(h ^ x) * prime` chain
/// fed 8 little-endian bytes per step (byte-at-a-time for a sub-word
/// tail). One multiply per word instead of one per byte — the append
/// path pays this hash before every ACK, and the byte-serial chain
/// dominated its latency. Streaming composes with one-shot only at
/// 8-byte-aligned boundaries, which is why the seal checksum folds
/// fixed-width record *checksums*, never raw variable-length records.
pub(crate) fn fnv_wide_update(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        // lint:allow(service-unwrap) -- chunks_exact(8) yields exactly 8 bytes.
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(0x100000001b3);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One-shot [`fnv_wide_update`] from the FNV offset basis.
pub(crate) fn fnv_wide(bytes: &[u8]) -> u64 {
    fnv_wide_update(FNV_OFFSET, bytes)
}

/// The FNV-1a 64 offset basis (an empty input's checksum).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Appender/committer shared state. The queue holds fully framed
/// records; tickets are dense, so `committed >= ticket` is exactly "my
/// group's fsync finished".
struct CommitQueue {
    queue: VecDeque<Vec<u8>>,
    /// Tickets issued (one per accepted append).
    submitted: u64,
    /// Tickets durably committed, in issue order.
    committed: u64,
    /// `close` was requested; the committer drains, seals, and exits.
    stopping: bool,
    /// Poison detail; `Some` refuses every pending and future append.
    crashed: Option<String>,
}

/// Where committed groups land: the group-commit protocol's only view
/// of the storage beneath it.
///
/// Production uses the private `ActiveSegment` (mapped or buffered
/// segment files, rotation, sealing); the model checker's WAL scenarios
/// use [`MemSink`], so the *protocol* — locks, condvars, tickets,
/// watermarks — explores every schedule without dragging the
/// filesystem into the model. The protocol calls every method while
/// holding the `segment` lock, so implementations need no internal
/// synchronization.
pub trait SegmentSink: Send + 'static {
    /// Frames and commits a single record without an fsync — a `never`
    /// submit's inline group of one.
    fn commit_one(
        &mut self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), WalError>;
    /// True when a record of `framed` bytes can be committed without
    /// reaching the rotation threshold, so an inline commit of it never
    /// seals, creates or pre-faults a segment — that work stays on the
    /// committer thread.
    fn fits_inline(&self, framed: usize) -> bool;
    /// Makes room for `incoming` more bytes (rotating early if the
    /// current segment cannot hold them).
    fn ensure_group_fits(&mut self, incoming: usize) -> Result<(), WalError>;
    /// Writes one concatenated group of `count` already-framed records
    /// and, when `fsync`, syncs it.
    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError>;
    /// Seals and starts the next segment if the rotation threshold has
    /// been reached.
    fn rotate_if_full(&mut self) -> Result<(), WalError>;
    /// Seals the current segment (close path).
    fn seal(&mut self) -> Result<(), WalError>;
    /// The index of the segment currently being appended to.
    fn index(&self) -> u64;
}

/// An in-memory [`SegmentSink`] for the model checker's WAL scenarios:
/// commits append framed bytes to a `Vec`, "fsync" advances a durable
/// watermark, sealing sets a flag, and an optional byte threshold
/// models rotation. The fields are deliberately public — the
/// scenarios' invariant checks read them directly.
#[derive(Debug, Default)]
pub struct MemSink {
    /// Concatenated framed record bytes, in commit order.
    pub bytes: Vec<u8>,
    /// Records committed (written, not necessarily synced).
    pub records: u64,
    /// Records covered by a sync — the durable watermark the
    /// ACKed-implies-durable invariant is checked against.
    pub synced_records: u64,
    /// Set by [`SegmentSink::seal`].
    pub sealed: bool,
    /// Rotation threshold in bytes of the current segment; 0 never
    /// rotates (and every record fits inline).
    pub rotate_at: usize,
    /// Bytes committed to the current segment.
    pub segment_len: usize,
    /// Segments sealed by rotation.
    pub rotations: u64,
    /// `records` after each [`SegmentSink::commit_group`]: exactly the
    /// commit marks the queue-draining path publishes.
    pub group_ends: Vec<u64>,
}

impl SegmentSink for MemSink {
    fn commit_one(
        &mut self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), WalError> {
        let rec = encode_record(stream, client_id, seq, value_bytes)?;
        self.bytes.extend_from_slice(&rec);
        self.segment_len += rec.len();
        self.records += 1;
        Ok(())
    }

    fn fits_inline(&self, framed: usize) -> bool {
        self.rotate_at == 0 || self.segment_len + framed < self.rotate_at
    }

    fn ensure_group_fits(&mut self, _incoming: usize) -> Result<(), WalError> {
        Ok(())
    }

    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError> {
        self.bytes.extend_from_slice(buf);
        self.segment_len += buf.len();
        self.records += count;
        if fsync {
            self.synced_records = self.records;
        }
        self.group_ends.push(self.records);
        Ok(())
    }

    fn rotate_if_full(&mut self) -> Result<(), WalError> {
        if self.rotate_at != 0 && self.segment_len >= self.rotate_at {
            self.segment_len = 0;
            self.rotations += 1;
        }
        Ok(())
    }

    fn seal(&mut self) -> Result<(), WalError> {
        self.sealed = true;
        Ok(())
    }

    fn index(&self) -> u64 {
        self.rotations
    }
}

/// A callback run after every commit mark the queue-draining path
/// publishes, and when the log is poisoned, with the mark at that
/// moment. It runs on the committing thread, possibly with the segment
/// lock held, so it must neither block nor call back into the log —
/// the epoll reactor registers its eventfd's `signal`.
pub type CommitWaker = Box<dyn Fn(u64) + Send + Sync>;

/// The declared lock order of the group-commit protocol, outermost
/// first: `segment` is locked strictly before `state` whenever both
/// are held. `oisum-lint`'s `lock-order` rule checks the static lock
/// graph against the annotation below, and the model-checker scenarios
/// feed this constant to `declare_lock_order`, which fails any explored
/// schedule that acquires against it.
// lint:lock-order(segment < state)
pub const LOCK_ORDER: [&str; 2] = ["segment", "state"];

/// The group-commit protocol, generic over its blocking primitives and
/// its storage.
///
/// This is the *real* WAL commit queue: [`Wal`] instantiates it with
/// [`StdSyncShim`] + segment files (every shim method an `#[inline]`
/// delegation to `std::sync`, so the generic code is the concrete code),
/// and `oisum-loom-lite`'s scenarios instantiate it with model
/// primitives + [`MemSink`] to explore every schedule of the very same
/// functions. The public methods exist for those scenarios; service
/// code goes through [`Wal`].
pub struct Shared<S: SyncShimLike, G: SegmentSink> {
    fsync: FsyncPolicy,
    state: S::Mutex<CommitQueue>,
    /// Signaled when the queue gains work, stop is requested, or the
    /// log crashes (wakes the committer).
    work: S::Condvar,
    /// Signaled when `committed` advances or the log crashes (wakes
    /// appenders).
    done: S::Condvar,
    /// Index of the segment currently being appended to — the GC
    /// boundary readers snapshot before persisting the ledger.
    active: S::Atomic,
    /// Blocking `group(..)` appenders that have entered [`Wal::append`]
    /// but not yet enqueued their record. The committer's group
    /// accumulation waits only while this is nonzero: appenders already
    /// *in* the queue are blocked on the commit itself and cannot
    /// contribute more, so waiting for them is pure added latency (a
    /// 2 ms policy wait per group once throttled a synchronous-client
    /// workload ~35x).
    appending: S::Atomic,
    /// The sink being appended to, shared so a `never` submit can
    /// commit its group of one on its own thread — a thread handoff per
    /// batch otherwise. Locked BEFORE `state` whenever both are held
    /// ([`LOCK_ORDER`]); the queue is only drained while this is held,
    /// which keeps file order equal to enqueue order. `None` once
    /// sealed on close.
    segment: S::Mutex<Option<G>>,
    /// Mirror of `CommitQueue::committed`, so a reactor can check its
    /// parked tickets without taking the state lock. Only ever written
    /// while the state lock is held, so it is monotonic and never ahead
    /// of the real watermark.
    commit_mark: S::Atomic,
    /// Threads parked on `done`, so a commit nobody waits for (every
    /// inline `never` commit, every reactor-only group) can skip the
    /// futex wake entirely (~160 ns per batch with nobody listening).
    /// See [`Shared::notify_done`] for why no wakeup is lost.
    done_waiters: S::Atomic,
    /// Non-empty groups written (and, per policy, fsynced) so far.
    /// `committed / groups` is the realized amortization — the number
    /// every group-commit knob exists to raise — so benches read it
    /// rather than guess from throughput deltas.
    groups: S::Atomic,
    /// Called after each mark [`commit_pending`](Self::commit_pending)
    /// publishes and on poison; see [`CommitWaker`]. Set at most once
    /// (a log serves one reactor, whose exit tail closes it), and read
    /// lock-free, so it adds no blocking point to the protocol.
    commit_waker: std::sync::OnceLock<CommitWaker>,
}

impl<S: SyncShimLike, G: SegmentSink> Shared<S, G> {
    /// A fresh protocol instance over `sink`. `active_index` seeds the
    /// GC-boundary gauge.
    pub fn new(fsync: FsyncPolicy, sink: G, active_index: u64) -> Self {
        // Ordering witness: the labels handed to the shim must match
        // the declared order the lint and the model checker enforce.
        debug_assert_eq!(LOCK_ORDER, ["segment", "state"]);
        Shared {
            fsync,
            state: S::mutex(
                "state",
                CommitQueue {
                    queue: VecDeque::new(),
                    submitted: 0,
                    committed: 0,
                    stopping: false,
                    crashed: None,
                },
            ),
            work: S::condvar("work"),
            done: S::condvar("done"),
            active: S::Atomic::new(active_index),
            appending: S::Atomic::new(0),
            segment: S::mutex("segment", Some(sink)),
            commit_mark: S::Atomic::new(0),
            done_waiters: S::Atomic::new(0),
            groups: S::Atomic::new(0),
            commit_waker: std::sync::OnceLock::new(),
        }
    }

    /// Registers the [`CommitWaker`]. Returns false (and drops `waker`)
    /// if one is already registered.
    pub fn set_commit_waker(&self, waker: CommitWaker) -> bool {
        self.commit_waker.set(waker).is_ok()
    }

    /// Runs the commit waker, if any, with the current mark.
    fn wake_committed(&self) {
        if let Some(waker) = self.commit_waker.get() {
            waker(self.commit_mark());
        }
    }

    // lint:acquires(state)
    fn lock(&self) -> S::Guard<'_, CommitQueue> {
        // A panic while holding the queue lock (a failing assertion in a
        // chaos drill) must not wedge shutdown; the state is plain data
        // (the std shim recovers poisoned locks with into_inner).
        S::lock(&self.state)
    }

    /// Poisons the log: every pending and future append fails, nothing
    /// more is written.
    pub fn poison(&self, detail: String) {
        let mut s = self.lock();
        if s.crashed.is_none() {
            s.crashed = Some(detail);
        }
        drop(s);
        S::notify_all(&self.work);
        // Unconditional: a crash is rare and must wake everything.
        S::notify_all(&self.done);
        self.wake_committed();
    }

    /// Parks on `done`, counted. Every wait on `done` must go through
    /// here or [`Shared::notify_done`] may skip the wake.
    fn wait_done<'a>(&'a self, s: S::Guard<'a, CommitQueue>) -> S::Guard<'a, CommitQueue> {
        // ORDERING: SeqCst — sequenced before `wait` releases the state
        // lock, so any notifier that later acquires that lock (every
        // notifier mutates the predicate under it first) observes the
        // increment; see notify_done.
        self.done_waiters.fetch_add(1, Ordering::SeqCst);
        // lint:allow(condvar-predicate) -- counted single wait: the predicate loop lives at every caller, around this helper.
        let s = S::wait(&self.done, s);
        // ORDERING: SeqCst — symmetric bookkeeping; a late decrement
        // only causes a spurious (harmless) notify.
        self.done_waiters.fetch_sub(1, Ordering::SeqCst);
        s
    }

    /// Wakes `done` waiters — unless there are none, which for an
    /// inline `never` commit or a reactor-only group is nearly always.
    /// No wakeup is lost *for a waiter whose predicate this notifier's
    /// update satisfies*: the waiter increments the count before
    /// atomically releasing the state lock inside `wait`, and a notifier
    /// updates the waited-on predicate (`committed`/`crashed`) while
    /// *holding* that lock before loading the count here. So either the
    /// waiter saw the updated predicate and never parked, or the
    /// notifier's load — after its predicate write's lock release —
    /// sees the increment and notifies. A waiter whose ticket this
    /// commit does *not* cover may miss the skip-guarded wake entirely,
    /// which is harmless: its record is queued, only the committer
    /// drains the queue, and the commit that does cover it notifies
    /// after publishing, under the same argument.
    fn notify_done(&self) {
        // ORDERING: SeqCst — pairs with the fetch_add in wait_done; the
        // state-lock critical sections give the visibility argument
        // above.
        if self.done_waiters.load(Ordering::SeqCst) > 0 {
            S::notify_all(&self.done);
        }
    }

    /// Appends one tracked batch and blocks until its group commits
    /// (written and, per policy, fsynced): [`submit`](Self::submit)
    /// plus one [`wait_committed`](Self::wait_committed). `Ok(())` is
    /// the license to ACK; any `Err` means the batch must be refused.
    ///
    /// Under `group(..)` the appender raises the `appending` gauge
    /// across its submit, so the committer's accumulation window holds
    /// the group open for a record that is on its way, and wakes the
    /// committer once the record is in (see `Shared::appending`).
    pub fn append(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), WalError> {
        let grouped = matches!(self.fsync, FsyncPolicy::Group { .. });
        if grouped {
            // ORDERING: Relaxed — an advisory batching gauge; a stale
            // read only changes how long a group waits, never what
            // commits.
            self.appending.fetch_add(1, Ordering::Relaxed);
        }
        let submitted = self.submit(stream, client_id, seq, value_bytes);
        if grouped {
            // ORDERING: Relaxed — see above; paired with the fetch_add.
            self.appending.fetch_sub(1, Ordering::Relaxed);
            S::notify_one(&self.work);
        }
        self.wait_committed(submitted?)
    }

    /// Blocks until the committed watermark covers `ticket` or the log
    /// crashes, and returns the verdict: `Ok(())` licenses the ACK of
    /// the record `ticket` was issued for, `Err` refuses it. This is the
    /// one wait on a ticket — a counted wait on `done` (see
    /// `notify_done`) — behind [`append`](Self::append), the
    /// threaded server's pending replies, and the model scenarios'
    /// closers.
    pub fn wait_committed(&self, ticket: u64) -> Result<(), WalError> {
        let mut s = self.lock();
        while s.committed < ticket && s.crashed.is_none() {
            s = self.wait_done(s);
        }
        verdict::<S>(s, ticket)
    }

    /// Logs one tracked batch *without waiting* for a committer,
    /// returning the batch's dense ticket — the only place a ticket is
    /// issued. Once [`commit_mark`](Self::commit_mark) reaches the
    /// ticket, the group's write — and, per policy, its fsync — has
    /// finished, and the ACK is licensed. A thread that can spare
    /// itself awaits that in [`wait_committed`](Self::wait_committed);
    /// an epoll reactor parks the connection instead and is woken by
    /// the [`CommitWaker`] the committer calls after every mark it
    /// publishes.
    ///
    /// Under `never` there is no fsync to wait for, so a submit that
    /// wins the segment `try_lock` may commit inline (see `submit_won`)
    /// and return a ticket the mark already covers: no thread handoff
    /// at all. Every other submit — any `always`/`group` submit, a lost
    /// `try_lock`, a non-empty queue, or a record that would reach the
    /// rotation threshold — is enqueued for the committer.
    ///
    /// `submit` itself never raises the `appending` gauge: a reactor's
    /// submitter is not blocked on this record, so there is no latency
    /// to hide by holding a group open for it. The committer therefore
    /// commits whatever a reactor's readiness burst enqueued as one
    /// group the moment it wakes — fsync cost amortizes over the burst
    /// instead of over a timed accumulation window.
    pub fn submit(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<u64, WalError> {
        if self.fsync == FsyncPolicy::Never {
            if let Some(mut seg) = S::try_lock(&self.segment) {
                let inline = self.submit_won(&mut seg, stream, client_id, seq, value_bytes);
                drop(seg);
                if let Some(out) = inline {
                    // Blocking watchers (`wait_mark_beyond`) may be
                    // waiting on the mark this commit moved.
                    self.notify_done();
                    return out;
                }
            }
        }
        let rec = encode_record(stream, client_id, seq, value_bytes)?;
        let mut s = self.lock();
        if let Some(detail) = &s.crashed {
            return Err(WalError::Crashed(detail.clone()));
        }
        if s.stopping {
            return Err(WalError::Closed);
        }
        s.queue.push_back(rec);
        s.submitted += 1;
        let ticket = s.submitted;
        let qlen = s.queue.len();
        drop(s);
        // Wake the committer only on the transitions it acts on: the
        // first queued record (start a group) and the batch threshold
        // (commit it). The submits in between would merely interrupt
        // its accumulation nap — on a busy reactor that is a futex wake
        // plus two context switches per record, which costs more than
        // the group commit itself. Missed wakes are safe: the committer
        // only sleeps unbounded on an empty queue, and its accumulation
        // waits are timeout-bounded. The empty→1 wake is the handoff
        // every queued record rides on: the committer's predicate loop
        // re-checks the queue under the state lock, so it cannot be
        // lost.
        let threshold = match self.fsync {
            FsyncPolicy::Group { max_batch, .. } => max_batch,
            _ => 1,
        };
        if qlen == 1 || qlen == threshold {
            S::notify_one(&self.work);
        }
        Ok(ticket)
    }

    /// `never`-policy inline submit holding the segment lock: with an
    /// empty queue and a record that fits below the rotation threshold,
    /// the record is a complete group of one, framed straight into the
    /// segment with no fsync. Returns `None` — having issued no ticket
    /// — whenever the record must take the queue instead: a refusable
    /// record (the queue path reports the refusal), a crashed or
    /// stopping log, a non-empty queue (committing ours first would
    /// break the dense watermark), or a record that would make the
    /// segment rotate (sealing and creating segments stay on the
    /// committer thread, so the GC boundary `active` never moves here).
    // lint:holds(segment)
    fn submit_won(
        &self,
        seg: &mut Option<G>,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Option<Result<u64, WalError>> {
        let payload_len = checked_payload_len(stream, value_bytes).ok()?;
        let segment = seg.as_mut()?;
        if !segment.fits_inline(RECORD_OVERHEAD + payload_len) {
            return None;
        }
        let mut s = self.lock();
        if s.crashed.is_some() || s.stopping || !s.queue.is_empty() {
            return None;
        }
        s.submitted += 1;
        let ticket = s.submitted;
        drop(s);
        if let Err(e) = segment.commit_one(stream, client_id, seq, value_bytes) {
            let detail = e.to_string();
            self.poison(detail.clone());
            return Some(Err(WalError::Crashed(detail)));
        }
        // The segment lock is still held, so no other commit can have
        // moved the watermark: `ticket` is exactly the next one.
        let mut s = self.lock();
        debug_assert_eq!(s.committed + 1, ticket, "empty queue means all prior tickets committed");
        s.committed = ticket;
        // ORDERING: Relaxed — a statistics gauge, as in commit_pending:
        // an inline commit is a group of one.
        self.groups.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Release — publishes the watermark to commit_mark()'s
        // Acquire load; written only under the state lock, so it stays
        // monotonic.
        self.commit_mark.store(ticket, Ordering::Release);
        Some(Ok(ticket))
    }

    /// The durable-watermark mirror: every ticket `<= commit_mark()` has
    /// been written and, per policy, fsynced. Lock-free; written only
    /// under the state lock, so it is monotonic and never ahead of the
    /// real watermark.
    pub fn commit_mark(&self) -> u64 {
        // ORDERING: Acquire — pairs with the Release publishes in
        // commit_pending / submit_won; a mark covering a ticket means
        // that group's write (and policy fsync) happened-before this
        // load.
        self.commit_mark.load(Ordering::Acquire)
    }

    /// Parks (counted, on `done`) until the committed watermark moves
    /// past `seen`, the log crashes or stops, or `cancel` is raised;
    /// returns the watermark at wakeup. A blocking way to watch the
    /// mark move for callers that own a thread to spare (a ticket's
    /// verdict comes from [`wait_committed`](Self::wait_committed));
    /// the epoll reactor never calls it (it is woken through the
    /// [`CommitWaker`] instead). `cancel` is re-checked on entry and
    /// after every wakeup (a new mark, a crash or a stop); raising it
    /// wakes nobody by itself.
    pub fn wait_mark_beyond(&self, seen: u64, cancel: &std::sync::atomic::AtomicBool) -> u64 {
        let mut s = self.lock();
        // ORDERING: SeqCst — pairs with the canceller's store; a
        // raised flag is seen at the next wakeup.
        while s.committed <= seen
            && s.crashed.is_none()
            && !s.stopping
            && !cancel.load(Ordering::SeqCst)
        {
            s = self.wait_done(s);
        }
        s.committed
    }

    /// Requests shutdown: the committer drains every queued record,
    /// commits it, seals, and exits its loop.
    pub fn request_stop(&self) {
        let mut s = self.lock();
        s.stopping = true;
        drop(s);
        S::notify_all(&self.work);
    }

    /// True once the log is poisoned.
    pub fn is_crashed(&self) -> bool {
        self.lock().crashed.is_some()
    }

    /// The poison detail, if the log has crashed.
    pub fn crash_detail(&self) -> Option<String> {
        self.lock().crashed.clone()
    }

    /// The sink index currently being appended to (the GC boundary).
    pub fn active_index(&self) -> u64 {
        // ORDERING: Relaxed — a monotonic boundary read; observing a
        // stale (smaller) index only makes GC more conservative.
        self.active.load(Ordering::Relaxed)
    }

    /// Scenario probe: `(submitted, committed)` under the state lock.
    pub fn queue_snapshot(&self) -> (u64, u64) {
        let s = self.lock();
        (s.submitted, s.committed)
    }

    /// `(records committed, groups written)` — the realized group-commit
    /// amortization. One fsync per group under the `group`/`always`
    /// policies, so `records / groups` is also records-per-fsync.
    pub fn group_stats(&self) -> (u64, u64) {
        // ORDERING: Relaxed — statistics reads; the two gauges are not
        // mutually consistent to the record, which a ratio tolerates.
        (self.commit_mark.load(Ordering::Relaxed), self.groups.load(Ordering::Relaxed))
    }

    /// Scenario probe: a consistent view of the sink and the ticket
    /// watermarks, read under both locks in [`LOCK_ORDER`] (`segment`
    /// before `state`).
    pub fn probe<R>(&self, f: impl FnOnce(Option<&G>, u64, u64) -> R) -> R {
        let seg = S::lock(&self.segment);
        let s = self.lock();
        f(seg.as_ref(), s.submitted, s.committed)
    }

    /// Drains and commits whatever is queued right now — the committer's
    /// only write path. Takes the segment lock first (the queue is only
    /// drained while it is held, so an inline `never` commit can never
    /// slip between a drained group and its write), then writes the
    /// group, publishes the new commit watermark, rotates when the
    /// segment is full, and calls the [`CommitWaker`] so every group
    /// (or the crash) reaches a parked reactor. `done` is notified after
    /// the segment lock drops. Safe to call with an empty queue (a
    /// no-op). Returns false once the log is poisoned.
    fn commit_pending(&self) -> bool {
        let mut seg = S::lock(&self.segment);
        let Some(segment) = seg.as_mut() else {
            return true; // sealed on close; stopping already refuses appends
        };
        let mut s = self.lock();
        if s.crashed.is_some() {
            return false;
        }
        if s.queue.is_empty() {
            return true;
        }
        let group: Vec<Vec<u8>> = s.queue.drain(..).collect();
        drop(s);
        let count = group.len() as u64;
        // Coalesce into a thread-local scratch reused across groups: a
        // fresh group-sized Vec crosses glibc's mmap threshold, so every
        // commit would pay an mmap/munmap plus one page fault per
        // written page — on a small box that costs more than the
        // group's actual write.
        thread_local! {
            static GROUP_SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let fsync = !matches!(self.fsync, FsyncPolicy::Never);
        let result = GROUP_SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            buf.clear();
            buf.reserve(group.iter().map(Vec::len).sum());
            for rec in &group {
                buf.extend_from_slice(rec);
            }
            segment
                .ensure_group_fits(buf.len())
                .and_then(|()| segment.commit_group(&mut buf, count, fsync))
                .and_then(|()| segment.rotate_if_full())
        });
        // ORDERING: Relaxed — publishing a monotonic GC boundary (the
        // fit pre-check can also rotate); readers seeing it late only
        // under-collect.
        self.active.store(segment.index(), Ordering::Relaxed);
        let mut s = self.lock();
        let alive = match result {
            Ok(()) => {
                s.committed += count;
                // ORDERING: Relaxed — a statistics gauge; readers only
                // ever divide by it.
                self.groups.fetch_add(1, Ordering::Relaxed);
                // ORDERING: Release — publishes the durable watermark
                // to commit_mark()'s Acquire load; written only under
                // the state lock, so it stays monotonic.
                self.commit_mark.store(s.committed, Ordering::Release);
                true
            }
            Err(e) => {
                if s.crashed.is_none() {
                    s.crashed = Some(e.to_string());
                }
                false
            }
        };
        drop(s);
        // Replies parked on submit tickets wait for exactly this: a new
        // mark, or the crash that means it will never come.
        self.wake_committed();
        drop(seg);
        self.notify_done();
        alive
    }

    /// The committer loop: wait for work, accumulate a group per
    /// policy, commit it, and on stop drain everything and seal. Every
    /// queued record — all of `always` and `group`, and the `never`
    /// records that could not commit inline — is committed here, so
    /// this thread performs every fsync, seal and rotation. [`Wal::open`]
    /// runs this on a dedicated thread; model scenarios run it as a
    /// model thread.
    pub fn run_committer(&self) {
        loop {
            let mut s = self.lock();
            while s.queue.is_empty() && !s.stopping && s.crashed.is_none() {
                s = S::wait(&self.work, s);
            }
            if s.crashed.is_some() {
                return;
            }
            if s.queue.is_empty() && s.stopping {
                drop(s);
                let mut seg = S::lock(&self.segment);
                if let Some(segment) = seg.as_mut() {
                    if let Err(e) = segment.seal() {
                        self.poison(format!("seal on close failed: {e}"));
                    }
                }
                *seg = None;
                return;
            }
            // Group accumulation: wait (bounded by max_wait) only while
            // a blocking appender is mid-flight between encode and
            // enqueue — its record should make this group, not wait a
            // full commit cycle for the next one. Submit streams
            // ([`submit`](Self::submit) never raises `appending`) get
            // no window at all: group commit self-clocks. Whatever
            // arrives during one commit+fsync forms the next group, so
            // group size tracks fsync cost by construction — a slow
            // disk grows the groups that amortize it, a fast one keeps
            // latency at the commit's own cost. Holding the group open
            // on a timer instead is pure added latency: a parked
            // connection's next frame is behind the reply this commit
            // licenses, so the timer starves the very stream it is
            // waiting on. Committing early (spurious wakeup, more
            // arrivals than max_batch) is always safe — the policy
            // bounds added latency, never group size.
            if let FsyncPolicy::Group { max_batch, max_wait } = self.fsync {
                let mut remaining = max_wait;
                while s.queue.len() < max_batch
                    && !s.stopping
                    && s.crashed.is_none()
                    && !remaining.is_zero()
                {
                    // ORDERING: Relaxed — advisory batching gauge (see
                    // Shared::appending); a stale read only changes how
                    // long this group waits, never what commits.
                    if self.appending.load(Ordering::Relaxed) == 0 {
                        break;
                    }
                    let slice = remaining.min(Duration::from_micros(200));
                    s = S::wait_timeout(&self.work, s, slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
            if s.crashed.is_some() {
                return;
            }
            drop(s);
            if !self.commit_pending() {
                return;
            }
        }
    }
}

/// The segmented group-commit write-ahead log. See the module docs.
///
/// `Wal` is `Sync`: many worker threads call [`append`](Wal::append)
/// concurrently while one committer thread owns the file. The protocol
/// itself lives in [`Shared`], generic over its blocking primitives so
/// the model checker explores the same code; `Wal` binds it to
/// [`StdSyncShim`] + segment files and owns the committer thread.
pub struct Wal {
    dir: PathBuf,
    shared: std::sync::Arc<Shared<StdSyncShim, ActiveSegment>>,
    committer: Mutex<Option<JoinHandle<()>>>,
}

impl Wal {
    /// Opens the log for appending: creates `config.dir` if needed and
    /// starts a fresh segment after the highest existing one. Existing
    /// segments are never appended to (their tails may be torn from a
    /// previous life); replay them with
    /// [`recovery::recover`](crate::recovery::recover) *before* opening.
    pub fn open(config: WalConfig) -> Result<Wal, WalError> {
        fs::create_dir_all(&config.dir)?;
        let next_index = list_segments(&config.dir)?
            .last()
            .map_or(0, |(index, _)| index + 1);
        let segment = ActiveSegment::create(&config.dir, next_index, config.segment_bytes)?;
        let shared = std::sync::Arc::new(Shared::<StdSyncShim, ActiveSegment>::new(
            config.fsync,
            segment,
            next_index,
        ));
        let committer = {
            let shared = std::sync::Arc::clone(&shared);
            std::thread::Builder::new()
                .name("oisum-wal-committer".to_owned())
                .spawn(move || shared.run_committer())
                .map_err(WalError::Io)?
        };
        Ok(Wal { dir: config.dir, shared, committer: Mutex::new(Some(committer)) })
    }

    /// Appends one tracked batch and blocks until its group commits
    /// (written and, per policy, fsynced): [`submit`](Wal::submit) plus
    /// [`wait_committed`](Wal::wait_committed). `Ok(())` is the license
    /// to ACK; any `Err` means the batch must be refused.
    pub fn append(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), WalError> {
        self.shared.append(stream, client_id, seq, value_bytes)
    }

    /// Logs one tracked batch without blocking, returning its dense
    /// ticket; the ACK is licensed once [`commit_mark`](Wal::commit_mark)
    /// reaches the ticket. Under `never` an uncontended submit commits
    /// inline and the mark already covers the ticket on return. See
    /// [`Shared::submit`] — every tracked Add takes this path; the
    /// epoll reactor parks the connection (not a thread) on the ticket.
    pub fn submit(
        &self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<u64, WalError> {
        self.shared.submit(stream, client_id, seq, value_bytes)
    }

    /// The durable watermark: every ticket `<=` this value has been
    /// written and, per policy, fsynced.
    pub fn commit_mark(&self) -> u64 {
        self.shared.commit_mark()
    }

    /// Registers the callback the committer runs after every commit
    /// mark it publishes and on poison (see [`CommitWaker`]). A log
    /// takes one waker for its lifetime; returns false if one is
    /// already registered.
    pub fn set_commit_waker(&self, waker: CommitWaker) -> bool {
        self.shared.set_commit_waker(waker)
    }

    /// Parks until the durable watermark moves past `seen` or the log
    /// crashes/closes, re-checking `cancel` at every wakeup; returns
    /// the watermark at wakeup. See [`Shared::wait_mark_beyond`].
    pub fn wait_mark_beyond(&self, seen: u64, cancel: &std::sync::atomic::AtomicBool) -> u64 {
        self.shared.wait_mark_beyond(seen, cancel)
    }

    /// Blocks until the durable watermark covers `ticket` (a
    /// [`submit`](Wal::submit) ticket) or the log crashes; `Ok(())` is
    /// the license to ACK that record. See [`Shared::wait_committed`].
    pub fn wait_committed(&self, ticket: u64) -> Result<(), WalError> {
        self.shared.wait_committed(ticket)
    }

    /// Poisons the log as a crash would: the committer stops, every
    /// pending and future [`append`](Wal::append) fails, nothing more is
    /// written. This is the crash-drill entry point the chaos and
    /// recovery suites use; production code never calls it.
    pub fn crash(&self) {
        self.shared.poison("crash drill".to_owned());
    }

    /// True once the log is poisoned.
    pub fn is_crashed(&self) -> bool {
        self.shared.is_crashed()
    }

    /// The poison detail, if the log has crashed.
    pub fn crash_detail(&self) -> Option<String> {
        self.shared.crash_detail()
    }

    /// `(records committed, groups written)` so far — `records / groups`
    /// is the realized group-commit amortization (records per fsync
    /// under the `group`/`always` policies).
    pub fn group_stats(&self) -> (u64, u64) {
        self.shared.group_stats()
    }

    /// The segment index currently being appended to. Segments below
    /// this index are immutable and fully committed, which is what makes
    /// them safe to GC once a snapshot covers them.
    pub fn active_segment(&self) -> u64 {
        self.shared.active_index()
    }

    /// Deletes every segment with index `< boundary`. Call only after a
    /// *verified* snapshot taken while `boundary <= active_segment()`
    /// held: such segments were fully committed — hence fully applied,
    /// since applies precede commits — before the snapshot read the
    /// ledger, so the snapshot dominates them.
    pub fn gc_below(&self, boundary: u64) -> io::Result<usize> {
        let mut removed = 0;
        for (index, path) in list_segments(&self.dir)? {
            if index < boundary {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Stops the committer: drains every queued record, commits it,
    /// seals the active segment, and joins the thread. Idempotent. An
    /// `Err` means the drain could not be completed (the log crashed) —
    /// recovery from the segments on disk is then the source of truth.
    pub fn close(&self) -> Result<(), WalError> {
        self.shared.request_stop();
        let handle = {
            let mut h = self.committer.lock().unwrap_or_else(|e| e.into_inner());
            h.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        match self.shared.crash_detail() {
            Some(detail) => Err(WalError::Crashed(detail)),
            None => Ok(()),
        }
    }

    /// The directory the segments live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Never leak the committer thread; a drop without close() still
        // drains and seals (errors have nowhere to go here — the
        // segments on disk remain authoritative either way).
        let _ = self.close();
    }
}

/// Extra mapped bytes beyond the rotation target, so groups landing
/// near the threshold rarely force an early rotation.
const MAP_SLACK: usize = 16 << 10;

/// Mappings are refused above this (and the segment falls back to
/// buffered writes) — a guard against absurd `segment_bytes` configs
/// turning into multi-gigabyte `fallocate`s.
const MAX_MAP_LEN: usize = 1 << 31;

/// The committer's private view of the file being appended to.
struct ActiveSegment {
    dir: PathBuf,
    file: File,
    index: u64,
    /// Bytes written so far, header included.
    bytes: u64,
    /// Records written so far.
    records: u64,
    /// Running wide-FNV fold of the header and every record's stored
    /// checksum, in write order — the seal checksum.
    fnv: u64,
    /// Rotation threshold.
    target: u64,
    /// Pre-faulted shared mapping of the whole segment, when the
    /// platform provides one (see [`crate::segmap`]): appends become
    /// page-cache-resident with a `memcpy` instead of a `write(2)`.
    /// `None` runs the buffered fallback — identical bytes and
    /// guarantees, one syscall per group.
    map: Option<SegmentMap>,
}

impl ActiveSegment {
    fn create(dir: &Path, index: u64, target: u64) -> Result<ActiveSegment, WalError> {
        Self::create_sized(dir, index, target, 0)
    }

    /// Creates segment `index`, mapped at least `min_map` bytes long
    /// (for a group bigger than the whole default mapping). The mapped
    /// file is sized and pre-faulted for its entire life up front; its
    /// un-appended tail reads as zeros, which recovery classifies as
    /// the torn tail it is, and which [`ActiveSegment::seal`] trims.
    fn create_sized(
        dir: &Path,
        index: u64,
        target: u64,
        min_map: usize,
    ) -> Result<ActiveSegment, WalError> {
        let path = dir.join(segment_file_name(index));
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = [0u8; SEGMENT_HEADER_LEN];
        header[..8].copy_from_slice(&WAL_MAGIC);
        header[8..].copy_from_slice(&index.to_be_bytes());
        let want = (target as usize)
            .saturating_add(SEGMENT_HEADER_LEN + SEAL_LEN + MAP_SLACK)
            .max(min_map);
        let mut map =
            if want <= MAX_MAP_LEN { SegmentMap::create(&file, want).ok() } else { None };
        match &mut map {
            Some(map) => map.bytes_mut()[..SEGMENT_HEADER_LEN].copy_from_slice(&header),
            None => file.write_all(&header)?,
        }
        Ok(ActiveSegment {
            dir: dir.to_owned(),
            file,
            index,
            bytes: SEGMENT_HEADER_LEN as u64,
            records: 0,
            fnv: fnv_wide_update(FNV_OFFSET, &header),
            target,
            map,
        })
    }

    /// Puts raw bytes at the current append offset — a `memcpy` for
    /// mapped segments, `write(2)` for the buffered fallback. Does not
    /// advance the append offset (the seam paths deliberately leave
    /// mangled bytes unaccounted). Mapped callers must have run
    /// [`ActiveSegment::ensure_group_fits`] first.
    fn write_raw(&mut self, data: &[u8]) -> io::Result<()> {
        match &mut self.map {
            Some(map) => {
                let at = self.bytes as usize;
                map.bytes_mut()[at..at + data.len()].copy_from_slice(data);
                Ok(())
            }
            None => self.file.write_all(data),
        }
    }

    /// Mapped segments are fixed-size: when the incoming group (plus
    /// the seal that must eventually follow it) would overrun the
    /// mapping, rotate first — into a specially sized segment if the
    /// group alone outgrows the default mapping. Sealing early is
    /// format-legal; `target` is a rotation threshold, not an exact
    /// size. The buffered path has no such limit.
    fn ensure_group_fits(&mut self, incoming: usize) -> Result<(), WalError> {
        let Some(map) = &self.map else { return Ok(()) };
        if self.bytes as usize + incoming + SEAL_LEN <= map.len() {
            return Ok(());
        }
        self.seal()?;
        let min_map = SEGMENT_HEADER_LEN + incoming + SEAL_LEN;
        *self = ActiveSegment::create_sized(&self.dir, self.index + 1, self.target, min_map)?;
        Ok(())
    }

    /// Commits a single record with no group buffer and no fsync: the
    /// record is framed directly into the mapping — the inline commit
    /// of a `never` submit that won the segment lock over an empty
    /// queue. Fault-injection builds route through
    /// [`ActiveSegment::commit_group`] instead, because the seams tear
    /// and corrupt the *framed* bytes, which the zero-copy path never
    /// materializes.
    fn commit_one(
        &mut self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), WalError> {
        let payload_len = checked_payload_len(stream, value_bytes)?;
        let framed = RECORD_OVERHEAD + payload_len;
        self.ensure_group_fits(framed)?;
        if cfg!(feature = "failpoints") {
            // Route through the seam-bearing group path so the chaos
            // suite's torn/corrupt injections cover inline commits too.
            let mut buf = encode_record(stream, client_id, seq, value_bytes)?;
            return self.commit_group(&mut buf, 1, false);
        }
        {
            let start = self.bytes as usize;
            match &mut self.map {
                Some(map) => {
                    let dst = &mut map.bytes_mut()[start..start + framed];
                    dst[..4].copy_from_slice(&(payload_len as u32).to_be_bytes());
                    dst[4..12].copy_from_slice(&client_id.to_be_bytes());
                    dst[12..20].copy_from_slice(&seq.to_be_bytes());
                    dst[20..22].copy_from_slice(&(stream.len() as u16).to_be_bytes());
                    dst[22..22 + stream.len()].copy_from_slice(stream.as_bytes());
                    dst[22 + stream.len()..4 + payload_len].copy_from_slice(value_bytes);
                    let sum = fnv4(&dst[4..4 + payload_len]);
                    dst[4 + payload_len..].copy_from_slice(&sum.to_be_bytes());
                    self.fnv = fnv_wide_update(self.fnv, &sum.to_be_bytes());
                }
                None => {
                    let rec = encode_record(stream, client_id, seq, value_bytes)?;
                    self.file.write_all(&rec)?;
                    self.fnv = fnv_wide_update(self.fnv, &rec[rec.len() - 8..]);
                }
            }
            self.bytes += framed as u64;
            self.records += 1;
            Ok(())
        }
    }

    /// Writes one concatenated group of `count` records and, when the
    /// policy says so, fsyncs it. This is the *only* place record bytes
    /// reach the file, and (with [`ActiveSegment::seal`]) the only place
    /// fsync happens — the `wal-durability` lint pins that shape.
    ///
    /// The fault seams fire here: `wal.append.torn` truncates the group
    /// mid-write, `wal.segment.corrupt` flips a bit in it, and
    /// `wal.fsync.drop` skips the sync. All three model a crash mangling
    /// the in-flight group, so all three poison the log — the group's
    /// appenders get errors, not ACKs.
    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError> {
        if let Some(FaultAction::Truncate { keep }) = oisum_faults::check("wal.append.torn") {
            let keep = keep.min(buf.len());
            self.write_raw(&buf[..keep])?;
            let _ = self.file.sync_data();
            return Err(WalError::Crashed("injected torn append".to_owned()));
        }
        if let Some(FaultAction::BitFlip { offset, bit }) =
            oisum_faults::check("wal.segment.corrupt")
        {
            if !buf.is_empty() {
                let i = offset % buf.len();
                buf[i] ^= 1 << (bit % 8);
            }
            self.write_raw(buf)?;
            let _ = self.file.sync_data();
            return Err(WalError::Crashed("injected segment corruption".to_owned()));
        }
        self.write_raw(buf)?;
        // Fold each record's stored checksum into the seal hash. The
        // walk re-reads only length fields — O(1) per record, not per
        // byte — and cannot run off the end: `buf` is records we
        // framed ourselves moments ago.
        let mut pos = 0;
        while pos < buf.len() {
            // lint:allow(service-unwrap) -- self-framed record, length prefix is present.
            let len = u32::from_be_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let check = &buf[pos + 4 + len..pos + 4 + len + 8];
            self.fnv = fnv_wide_update(self.fnv, check);
            pos += 4 + len + 8;
        }
        self.bytes += buf.len() as u64;
        self.records += count;
        if fsync {
            if oisum_faults::check("wal.fsync.drop").is_some() {
                return Err(WalError::Crashed("injected fsync drop".to_owned()));
            }
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Writes the seal footer — marker, record count, whole-prefix
    /// checksum — and fsyncs. After this the segment is immutable and
    /// fully self-verifying.
    ///
    /// A mapped segment carries a pre-faulted zero tail, which must go
    /// before the footer does: recovery reads zeros after a completed
    /// seal as corruption (data past the seal), but an unsealed file
    /// that simply ends is clean. So the order is unmap, truncate to
    /// the append offset, *then* append the footer — a crash between
    /// any two steps leaves an ordinary unsealed segment whose records
    /// all replay.
    fn seal(&mut self) -> Result<(), WalError> {
        let mut footer = [0u8; SEAL_LEN];
        footer[..4].copy_from_slice(&SEAL_MARKER.to_be_bytes());
        footer[4..12].copy_from_slice(&self.records.to_be_bytes());
        footer[12..].copy_from_slice(&self.fnv.to_be_bytes());
        if self.map.take().is_some() {
            self.file.set_len(self.bytes)?;
        }
        self.file.seek(io::SeekFrom::End(0))?;
        self.file.write_all(&footer)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Seals the current segment and starts the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.seal()?;
        *self = ActiveSegment::create(&self.dir, self.index + 1, self.target)?;
        Ok(())
    }
}

/// The production sink: the inherent methods above, exposed through the
/// protocol's storage seam.
impl SegmentSink for ActiveSegment {
    fn commit_one(
        &mut self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), WalError> {
        ActiveSegment::commit_one(self, stream, client_id, seq, value_bytes)
    }

    fn fits_inline(&self, framed: usize) -> bool {
        // Below `target` is also inside the mapping, which is sized
        // past it by the seal and slack.
        self.bytes + (framed as u64) < self.target
    }

    fn ensure_group_fits(&mut self, incoming: usize) -> Result<(), WalError> {
        ActiveSegment::ensure_group_fits(self, incoming)
    }

    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError> {
        ActiveSegment::commit_group(self, buf, count, fsync)
    }

    fn rotate_if_full(&mut self) -> Result<(), WalError> {
        if self.bytes >= self.target {
            self.rotate()?;
        }
        Ok(())
    }

    fn seal(&mut self) -> Result<(), WalError> {
        ActiveSegment::seal(self)
    }

    fn index(&self) -> u64 {
        self.index
    }
}

/// Resolves a ticket wait: [`Shared::wait_committed`]'s loop only exits
/// once `committed` covers the ticket or the log is poisoned, so
/// anything else here is a logic bug surfaced as a crash verdict.
fn verdict<S: SyncShimLike>(s: S::Guard<'_, CommitQueue>, ticket: u64) -> Result<(), WalError> {
    if s.committed >= ticket {
        Ok(())
    } else {
        // lint:allow(service-unwrap) -- the wait loop guarantees crashed is Some here.
        Err(WalError::Crashed(s.crashed.clone().unwrap_or_default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oisum-wal-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn le_bytes(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
    }

    #[test]
    fn streaming_wide_fnv_matches_oneshot_on_aligned_chunks() {
        // Streaming only composes at 8-byte boundaries — exactly how
        // the seal fold uses it (16-byte header, 8-byte checksums).
        let data: Vec<u8> = (0u16..256).flat_map(|i| i.to_le_bytes()).collect();
        let mut h = FNV_OFFSET;
        for chunk in data.chunks(8) {
            h = fnv_wide_update(h, chunk);
        }
        assert_eq!(h, fnv_wide(&data));
    }

    #[test]
    fn fsync_policy_parses_its_display_forms() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::default(),
            FsyncPolicy::Group { max_batch: 7, max_wait: Duration::from_micros(1500) },
        ] {
            assert_eq!(policy.to_string().parse::<FsyncPolicy>(), Ok(policy));
        }
        assert_eq!("group".parse::<FsyncPolicy>(), Ok(FsyncPolicy::default()));
        for bad in ["", "Always", "group(", "group(64)", "group(64,2ms)", "group(x,1us)"] {
            assert!(bad.parse::<FsyncPolicy>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn lane_fnv_detects_every_single_bit_flip() {
        // The record checksum's whole job: any one flipped payload bit
        // must change the sum, at every lane position and in the
        // sub-block tail. 87 bytes = two full 32-byte blocks + a
        // 23-byte tail that itself spans words and a byte remainder.
        let data: Vec<u8> = (0u8..87).map(|i| i.wrapping_mul(37)).collect();
        let clean = fnv4(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(clean, fnv4(&flipped), "missed flip at byte {byte} bit {bit}");
            }
        }
        // Truncation by one byte must change it too.
        assert_ne!(clean, fnv4(&data[..data.len() - 1]));
        // And the lanes must actually distinguish word positions: a
        // block of one repeated word hashes unlike its rotation.
        let mut a = vec![0u8; 32];
        a[0] = 1;
        let mut b = vec![0u8; 32];
        b[8] = 1;
        assert_ne!(fnv4(&a), fnv4(&b));
    }

    #[test]
    fn wide_fnv_tail_falls_back_to_bytes() {
        // A sub-word tail hashes byte-at-a-time; every byte must count.
        let data = b"order-invariant summation";
        assert_ne!(fnv_wide(data), fnv_wide(&data[..data.len() - 1]));
        let mut flipped = data.to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert_ne!(fnv_wide(data), fnv_wide(&flipped));
    }

    #[test]
    fn record_encoding_is_length_checksum_framed() {
        let rec = encode_record("s", 7, 3, &le_bytes(&[1.5, -2.0])).unwrap();
        let payload_len = u32::from_be_bytes(rec[..4].try_into().unwrap()) as usize;
        assert_eq!(payload_len, RECORD_FIXED + 1 + 16);
        assert_eq!(rec.len(), 4 + payload_len + 8);
        let payload = &rec[4..4 + payload_len];
        assert_eq!(u64::from_be_bytes(payload[..8].try_into().unwrap()), 7);
        assert_eq!(u64::from_be_bytes(payload[8..16].try_into().unwrap()), 3);
        let sum = u64::from_be_bytes(rec[4 + payload_len..].try_into().unwrap());
        assert_eq!(sum, fnv4(payload));
    }

    #[test]
    fn oversized_names_and_payloads_are_refused() {
        let long = "x".repeat(u16::MAX as usize + 1);
        assert!(matches!(
            encode_record(&long, 1, 1, &[]),
            Err(WalError::StreamNameTooLong { .. })
        ));
        let huge = vec![0u8; MAX_RECORD_PAYLOAD];
        assert!(matches!(
            encode_record("s", 1, 1, &huge),
            Err(WalError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn append_close_produces_a_sealed_segment() {
        let dir = temp_dir("sealed");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("s", 1, 1, &le_bytes(&[1.0])).unwrap();
        wal.append("s", 1, 2, &le_bytes(&[2.0, 3.0])).unwrap();
        wal.close().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        let bytes = fs::read(&segments[0].1).unwrap();
        assert_eq!(&bytes[..8], &WAL_MAGIC);
        // Seal footer: marker, 2 records, fold of header + each
        // record's stored checksum in order.
        let tail = &bytes[bytes.len() - SEAL_LEN..];
        assert_eq!(u32::from_be_bytes(tail[..4].try_into().unwrap()), SEAL_MARKER);
        assert_eq!(u64::from_be_bytes(tail[4..12].try_into().unwrap()), 2);
        let mut expected = fnv_wide(&bytes[..SEGMENT_HEADER_LEN]);
        let mut pos = SEGMENT_HEADER_LEN;
        while pos < bytes.len() - SEAL_LEN {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            expected = fnv_wide_update(expected, &bytes[pos + 4 + len..pos + 4 + len + 8]);
            pos += 4 + len + 8;
        }
        assert_eq!(u64::from_be_bytes(tail[12..].try_into().unwrap()), expected);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_segments_rotate_and_every_policy_commits() {
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::Group { max_batch: 4, max_wait: Duration::from_micros(200) },
            FsyncPolicy::Never,
        ] {
            let dir = temp_dir(&format!("rotate-{fsync}"));
            let config = WalConfig { dir: dir.clone(), segment_bytes: 128, fsync };
            let wal = Wal::open(config).unwrap();
            for seq in 1..=20u64 {
                wal.append("stream", 9, seq, &le_bytes(&[seq as f64])).unwrap();
            }
            wal.close().unwrap();
            let segments = list_segments(&dir).unwrap();
            assert!(segments.len() > 1, "128-byte target must rotate ({fsync})");
            // Indices are dense from 0.
            for (want, (got, _)) in segments.iter().enumerate() {
                assert_eq!(*got as usize, want);
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn reopen_starts_a_fresh_segment_and_gc_below_keeps_it() {
        let dir = temp_dir("reopen");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("s", 1, 1, &le_bytes(&[1.0])).unwrap();
        wal.close().unwrap();
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(wal.active_segment(), 1);
        wal.append("s", 1, 2, &le_bytes(&[2.0])).unwrap();
        assert_eq!(wal.gc_below(wal.active_segment()).unwrap(), 1);
        wal.close().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_poisons_pending_and_future_appends() {
        let dir = temp_dir("crash");
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("s", 1, 1, &le_bytes(&[1.0])).unwrap();
        wal.crash();
        assert!(wal.is_crashed());
        assert!(matches!(
            wal.append("s", 1, 2, &le_bytes(&[2.0])),
            Err(WalError::Crashed(_))
        ));
        assert!(matches!(wal.close(), Err(WalError::Crashed(_))));
        fs::remove_dir_all(&dir).ok();
    }

    /// Sealed-record count of the segment at `path` (0 if unsealed).
    fn sealed_records(path: &Path) -> u64 {
        let bytes = fs::read(path).unwrap();
        let tail = &bytes[bytes.len() - SEAL_LEN..];
        if u32::from_be_bytes(tail[..4].try_into().unwrap()) != SEAL_MARKER {
            return 0;
        }
        u64::from_be_bytes(tail[4..12].try_into().unwrap())
    }

    #[test]
    fn single_appender_records_count_as_groups_of_one() {
        // One blocking appender never has company in the queue: under
        // `never` each record commits inline, under `always` the
        // committer finds it alone — every record is its own group
        // (and, under `always`, its own fsync).
        const N: u64 = 40;
        for fsync in [FsyncPolicy::Always, FsyncPolicy::Never] {
            let dir = temp_dir(&format!("groups-{fsync}"));
            let wal = Wal::open(WalConfig { fsync, ..WalConfig::new(&dir) }).unwrap();
            for seq in 1..=N {
                wal.append("s", 1, seq, &le_bytes(&[seq as f64])).unwrap();
            }
            assert_eq!(wal.group_stats(), (N, N), "{fsync}");
            wal.close().unwrap();
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn uncontended_never_submit_commits_inline() {
        let dir = temp_dir("submit-inline");
        let wal =
            Wal::open(WalConfig { fsync: FsyncPolicy::Never, ..WalConfig::new(&dir) }).unwrap();
        for seq in 1..=20u64 {
            let ticket = wal.submit("s", 1, seq, &le_bytes(&[seq as f64])).unwrap();
            assert_eq!(ticket, seq);
            assert!(ticket <= wal.commit_mark(), "ticket {ticket} not covered on return");
        }
        assert_eq!(wal.group_stats(), (20, 20));
        wal.close().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(sealed_records(&segments[0].1), 20);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_and_always_submits_never_commit_inline() {
        // (policy, blocking append?) — a blocking `append` is a submit
        // plus a wait, so it must queue exactly like a bare submit.
        for (fsync, blocking) in [
            (FsyncPolicy::Always, false),
            (FsyncPolicy::default(), false),
            (FsyncPolicy::Always, true),
        ] {
            // No committer yet, so a queued record stays visibly queued.
            let shared = Shared::<StdSyncShim, MemSink>::new(fsync, MemSink::default(), 0);
            std::thread::scope(|scope| {
                let appender = blocking.then(|| {
                    let appender =
                        scope.spawn(|| shared.append("s", 1, 1, &le_bytes(&[1.0])).unwrap());
                    while shared.queue_snapshot().0 == 0 {
                        std::thread::yield_now();
                    }
                    // Time for an inline commit to land, if one were
                    // going to.
                    std::thread::sleep(Duration::from_millis(50));
                    appender
                });
                if !blocking {
                    shared.submit("s", 1, 1, &le_bytes(&[1.0])).unwrap();
                }
                assert!(shared.commit_mark() < 1, "{fsync} committed inline");
                assert_eq!(shared.queue_snapshot(), (1, 0));
                shared.probe(|sink, _, _| assert_eq!(sink.unwrap().records, 0));
                assert!(appender.as_ref().is_none_or(|a| !a.is_finished()), "append returned");
                scope.spawn(|| shared.run_committer());
                shared.wait_committed(1).unwrap();
                shared.request_stop();
            });
            assert_eq!(shared.commit_mark(), 1);
        }
    }

    #[test]
    fn a_record_crossing_the_rotation_threshold_takes_the_queue() {
        // 8 values under a 1-byte name frame to 95 bytes: after the
        // 16-byte header two records fit below a 256-byte threshold,
        // and the third would reach it.
        let dir = temp_dir("submit-rotate");
        fs::create_dir_all(&dir).unwrap();
        let segment = ActiveSegment::create(&dir, 0, 256).unwrap();
        let shared = Shared::<StdSyncShim, ActiveSegment>::new(FsyncPolicy::Never, segment, 0);
        let batch = le_bytes(&[0.5; 8]);
        for seq in 1..=2u64 {
            let ticket = shared.submit("s", 1, seq, &batch).unwrap();
            assert!(ticket <= shared.commit_mark());
        }
        let ticket = shared.submit("s", 1, 3, &batch).unwrap();
        assert_eq!(ticket, 3);
        assert_eq!(shared.commit_mark(), 2, "the crossing record must be queued");
        assert_eq!(shared.active_index(), 0);
        std::thread::scope(|scope| {
            scope.spawn(|| shared.run_committer());
            shared.wait_committed(ticket).unwrap();
            // The committer sealed the full segment before publishing.
            assert_eq!(shared.active_index(), 1);
            shared.request_stop();
        });
        assert_eq!(shared.commit_mark(), 3);
        assert_eq!(shared.group_stats(), (3, 3));
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(sealed_records(&segments[0].1), 3);
        assert_eq!(sealed_records(&segments[1].1), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_commit_waker_sees_every_published_mark_and_the_crash() {
        let shared =
            Shared::<StdSyncShim, MemSink>::new(FsyncPolicy::Always, MemSink::default(), 0);
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let log = std::sync::Arc::clone(&seen);
        assert!(shared.set_commit_waker(Box::new(move |mark| log.lock().unwrap().push(mark))));
        assert!(!shared.set_commit_waker(Box::new(|_| {})), "one waker per log");
        for seq in 1..=3u64 {
            shared.submit("s", 1, seq, &le_bytes(&[1.0])).unwrap();
        }
        std::thread::scope(|scope| {
            scope.spawn(|| shared.run_committer());
            shared.wait_committed(3).unwrap();
            shared.poison("drill".to_owned());
        });
        let seen = seen.lock().unwrap();
        // Every mark the committer published, then the crash wake.
        let groups = shared.probe(|sink, _, _| sink.unwrap().group_ends.clone());
        assert_eq!(seen[..groups.len()], groups[..]);
        assert_eq!(seen.last(), Some(&3));
        assert_eq!(seen.len(), groups.len() + 1);
    }

    #[test]
    fn concurrent_appenders_all_commit() {
        let dir = temp_dir("concurrent");
        let config = WalConfig {
            dir: dir.clone(),
            segment_bytes: 4096,
            fsync: FsyncPolicy::Group { max_batch: 8, max_wait: Duration::from_micros(500) },
        };
        let wal = std::sync::Arc::new(Wal::open(config).unwrap());
        std::thread::scope(|scope| {
            for client in 1..=4u64 {
                let wal = std::sync::Arc::clone(&wal);
                scope.spawn(move || {
                    for seq in 1..=50u64 {
                        wal.append("s", client, seq, &le_bytes(&[client as f64, seq as f64]))
                            .unwrap();
                    }
                });
            }
        });
        wal.close().unwrap();
        // Every segment together holds exactly 200 records.
        let mut records = 0u64;
        for (_, path) in list_segments(&dir).unwrap() {
            let bytes = fs::read(path).unwrap();
            let tail = &bytes[bytes.len() - SEAL_LEN..];
            if u32::from_be_bytes(tail[..4].try_into().unwrap()) == SEAL_MARKER {
                records += u64::from_be_bytes(tail[4..12].try_into().unwrap());
            }
        }
        assert_eq!(records, 200);
        fs::remove_dir_all(&dir).ok();
    }
}
