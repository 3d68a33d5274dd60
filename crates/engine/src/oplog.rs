//! The durable observation log: segmented, append-only, checksummed.
//!
//! Snapshots (PR 7) capture the engine exactly but only at the moment
//! they are taken — a crash loses every observation since the last
//! one, and with it exactly the per-stream history the DPD banks and
//! champion/challenger ensembles depend on. This module pairs the
//! snapshot store with a write-ahead observation log so recovery is
//! *restore newest valid snapshot → replay the log tail past its
//! watermark → serve*, with nothing lost past the last flush.
//!
//! # On-disk layout
//!
//! One durability directory holds both artifacts:
//!
//! ```text
//! dir/
//!   snap-00000000000000018432.snap   snapshot at watermark 18432
//!   wal-00000000000000000000.seg     frames stamped [0, …)
//!   wal-00000000000000020480.seg     frames stamped [20480, …)
//! ```
//!
//! A segment is the 11-byte header `MPPWAL\0` magic + `u32` version
//! (little-endian), then zero or more frames. Each frame is
//!
//! ```text
//! u32 payload_len | payload | u64 FNV-1a(payload)
//! payload = u64 base_stamp | u32 count | count × observation
//! observation = u32 job | u32 rank | u8 kind | u64 value   (17 bytes)
//! ```
//!
//! `base_stamp` is the global engine-clock value the batch's events
//! were stamped from: frame events occupy stamps `[base, base+count)`,
//! which is what lets recovery skip frames a snapshot (whose `clock` is
//! the same counter) already covers — including a partial in-frame skip
//! when the snapshot cut lands inside a frame. Segments are named by
//! the base stamp of their first frame, so the file listing orders the
//! log and retention can reason about coverage without opening files.
//!
//! # Failure model
//!
//! The log is append-only and a crash can stop a write at any byte.
//! Scanning ([`scan_log`]) accepts the longest valid prefix: the first
//! frame whose length, payload, or checksum does not check out marks a
//! *tear*, and everything from the tear onward (including any later
//! segments) is dropped by [`repair`] — a torn frame is never
//! partially applied. All corruption classes are typed
//! ([`WalError`]); none panic.
//!
//! Durability is bounded by the [`FlushPolicy`]: `EveryBatch` fsyncs
//! each frame (lose nothing that was acknowledged durable, pay an
//! fsync per batch), `EveryN(n)` amortises (lose at most `n-1`
//! frames), `OnRotate` only syncs at segment boundaries (cheapest,
//! loses at most a segment). What was not yet synced may or may not
//! survive a crash — recovery replays whatever prefix survived.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::snapshot::fnv1a;
use crate::types::{Observation, StreamKey, StreamKind};

/// Leading bytes of every segment file.
pub const WAL_MAGIC: [u8; 7] = *b"MPPWAL\0";

/// Current segment format version.
pub const WAL_VERSION: u32 = 1;

/// Segment header length: magic + version.
pub const WAL_HEADER_LEN: u64 = WAL_MAGIC.len() as u64 + 4;

/// Encoded size of one observation within a frame payload.
const OBS_LEN: usize = 4 + 4 + 1 + 8;

/// Frame payload prefix: base stamp + count.
const FRAME_PREFIX_LEN: usize = 8 + 4;

/// When the log writer hands bytes to the OS *and* when it forces them
/// to stable storage. The write itself always happens per frame; the
/// policy only controls `fdatasync` cadence — the durability/throughput
/// trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// `fdatasync` after every appended frame. Strongest guarantee:
    /// every batch whose append returned is crash-durable.
    EveryBatch,
    /// `fdatasync` every `n` frames (and at rotation). Loses at most
    /// the last `n-1` frames on a crash. `n` must be positive.
    EveryN(u64),
    /// `fdatasync` only when a segment rotates (and on shutdown).
    /// Cheapest; a crash can lose up to a whole segment of frames.
    OnRotate,
}

impl FlushPolicy {
    /// Stable lower-snake label for telemetry and bench reports.
    pub fn label(self) -> &'static str {
        match self {
            FlushPolicy::EveryBatch => "every_batch",
            FlushPolicy::EveryN(_) => "every_n",
            FlushPolicy::OnRotate => "on_rotate",
        }
    }
}

/// Where and how the engine keeps its durable state. Carried by
/// [`EngineConfig::durability`](crate::EngineConfig); `None` there means
/// no log and no recovery (the pre-durability behaviour).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding segments and snapshots. Created on demand.
    pub dir: PathBuf,
    /// Fsync cadence; see [`FlushPolicy`].
    pub flush: FlushPolicy,
    /// Rotate to a new segment once the current one reaches this many
    /// bytes. Must exceed the header length.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default policy: fsync every
    /// batch, 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            flush: FlushPolicy::EveryBatch,
            segment_bytes: 8 << 20,
        }
    }

    /// Sets the fsync cadence.
    pub fn with_flush(mut self, flush: FlushPolicy) -> Self {
        self.flush = flush;
        self
    }

    /// Sets the segment rotation threshold, in bytes.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(
            self.segment_bytes > WAL_HEADER_LEN,
            "WAL segment size must exceed the {WAL_HEADER_LEN}-byte header"
        );
        assert!(
            !matches!(self.flush, FlushPolicy::EveryN(0)),
            "FlushPolicy::EveryN needs a positive cadence"
        );
    }
}

/// Everything that can be wrong with a segment, typed. Offsets are
/// byte positions within the named segment file.
#[derive(Debug)]
pub enum WalError {
    /// The file does not start with [`WAL_MAGIC`] — not a segment.
    BadMagic { segment: PathBuf },
    /// The segment was written by an incompatible format version.
    VersionMismatch {
        segment: PathBuf,
        found: u32,
        supported: u32,
    },
    /// A frame's length prefix, payload, or trailing checksum runs past
    /// end-of-file, or a checksummed payload does not decode — the
    /// classic torn tail of a crash mid-append.
    TornFrame { segment: PathBuf, offset: u64 },
    /// A complete frame whose stored checksum disagrees with its
    /// payload: bit rot or overwrite, not a clean tear.
    ChecksumMismatch {
        segment: PathBuf,
        offset: u64,
        stored: u64,
        computed: u64,
    },
    /// The file ends inside the segment header itself.
    Truncated { segment: PathBuf, offset: u64 },
    /// The filesystem failed underneath the log.
    Io(io::Error),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::BadMagic { segment } => {
                write!(f, "{}: not a WAL segment (bad magic)", segment.display())
            }
            WalError::VersionMismatch {
                segment,
                found,
                supported,
            } => write!(
                f,
                "{}: WAL version {found} unsupported (this build reads {supported})",
                segment.display()
            ),
            WalError::TornFrame { segment, offset } => {
                write!(f, "{}: torn frame at byte {offset}", segment.display())
            }
            WalError::ChecksumMismatch {
                segment,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "{}: frame checksum mismatch at byte {offset} \
                 (stored {stored:#018x}, computed {computed:#018x})",
                segment.display()
            ),
            WalError::Truncated { segment, offset } => write!(
                f,
                "{}: truncated inside the segment header at byte {offset}",
                segment.display()
            ),
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
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

/// One decoded frame: a batch of observations stamped
/// `[base, base + obs.len())` on the global engine clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Global clock value the batch's stamps were allocated from.
    pub base: u64,
    /// The batch, in submission order.
    pub obs: Vec<Observation>,
}

/// Segment filename for a segment whose first frame starts at `start`.
pub fn segment_name(start: u64) -> String {
    format!("wal-{start:020}.seg")
}

/// Snapshot filename for a snapshot taken at clock `watermark`.
pub fn snapshot_name(watermark: u64) -> String {
    format!("snap-{watermark:020}.snap")
}

fn parse_stamped(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// One segment file on disk, identified by its start stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Path to the segment file.
    pub path: PathBuf,
    /// Stamp of the segment's first frame (from the filename).
    pub start: u64,
}

/// Segment files under `dir`, ascending by start stamp. Files that are
/// not named like segments are ignored. An absent directory lists as
/// empty.
pub fn segment_files(dir: &Path) -> io::Result<Vec<SegmentMeta>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(start) = parse_stamped(name, "wal-", ".seg") {
            out.push(SegmentMeta {
                path: entry.path(),
                start,
            });
        }
    }
    out.sort_unstable_by_key(|s| s.start);
    Ok(out)
}

/// Snapshot files under `dir` as `(watermark, path)`, ascending by
/// watermark. An absent directory lists as empty.
pub fn snapshot_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(w) = parse_stamped(name, "snap-", ".snap") {
            out.push((w, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(w, _)| w);
    Ok(out)
}

/// Writes `bytes` to `path` atomically: into a hidden temp file beside
/// it, fsynced (`sync_all`), then renamed over `path`. A crash mid-write
/// leaves the old file or the new one under the real name, never a torn
/// one. Creates the parent directory if needed.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new("."));
    fs::create_dir_all(dir)?;
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// Writes a snapshot blob into `dir` at `watermark`, atomically (see
/// `write_atomic`): a crash mid-write never leaves a half snapshot
/// under the real name.
pub fn write_snapshot_file(dir: &Path, watermark: u64, bytes: &[u8]) -> io::Result<PathBuf> {
    let path = dir.join(snapshot_name(watermark));
    write_atomic(&path, bytes)?;
    Ok(path)
}

/// Encodes one frame (length prefix, payload, checksum) into `buf`.
pub fn encode_frame(buf: &mut Vec<u8>, base: u64, obs: &[Observation]) {
    let payload_len = FRAME_PREFIX_LEN + obs.len() * OBS_LEN;
    buf.reserve(4 + payload_len + 8);
    let frame_start = buf.len();
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let payload_start = buf.len();
    buf.extend_from_slice(&base.to_le_bytes());
    buf.extend_from_slice(&(obs.len() as u32).to_le_bytes());
    for o in obs {
        buf.extend_from_slice(&o.key.job.to_le_bytes());
        buf.extend_from_slice(&o.key.rank.to_le_bytes());
        buf.push(o.key.kind.index() as u8);
        buf.extend_from_slice(&o.value.to_le_bytes());
    }
    let checksum = fnv1a(&buf[payload_start..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    debug_assert_eq!(buf.len() - frame_start, 4 + payload_len + 8);
}

fn decode_payload(payload: &[u8]) -> Option<WalFrame> {
    if payload.len() < FRAME_PREFIX_LEN {
        return None;
    }
    let base = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let count = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let body = &payload[FRAME_PREFIX_LEN..];
    if body.len() != count * OBS_LEN {
        return None;
    }
    let mut obs = Vec::with_capacity(count);
    for rec in body.chunks_exact(OBS_LEN) {
        let job = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let rank = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        let kind = *StreamKind::ALL.get(usize::from(rec[8]))?;
        let value = u64::from_le_bytes(rec[9..17].try_into().unwrap());
        obs.push(Observation::new(StreamKey::for_job(job, rank, kind), value));
    }
    Some(WalFrame { base, obs })
}

/// Scan of one segment: the longest valid frame prefix plus the first
/// defect, if any.
#[derive(Debug)]
pub struct SegmentScan {
    /// Frames that checked out, in file order.
    pub frames: Vec<WalFrame>,
    /// Byte length of the valid prefix — the truncation point a repair
    /// would cut to. Zero when the header itself is invalid.
    pub valid_len: u64,
    /// The first defect past the valid prefix, if the segment is not
    /// clean.
    pub error: Option<WalError>,
}

/// Decodes `path` front to back, stopping (not failing) at the first
/// invalid byte. Only real I/O errors return `Err`.
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut scan = SegmentScan {
        frames: Vec::new(),
        valid_len: 0,
        error: None,
    };
    if bytes.len() < WAL_HEADER_LEN as usize {
        scan.error = Some(
            if bytes.len() >= WAL_MAGIC.len() || bytes[..] == WAL_MAGIC[..bytes.len()] {
                WalError::Truncated {
                    segment: path.to_path_buf(),
                    offset: bytes.len() as u64,
                }
            } else {
                WalError::BadMagic {
                    segment: path.to_path_buf(),
                }
            },
        );
        return Ok(scan);
    }
    if bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        scan.error = Some(WalError::BadMagic {
            segment: path.to_path_buf(),
        });
        return Ok(scan);
    }
    let version = u32::from_le_bytes(bytes[7..11].try_into().unwrap());
    if version != WAL_VERSION {
        scan.error = Some(WalError::VersionMismatch {
            segment: path.to_path_buf(),
            found: version,
            supported: WAL_VERSION,
        });
        return Ok(scan);
    }
    let mut pos = WAL_HEADER_LEN as usize;
    scan.valid_len = pos as u64;
    while pos < bytes.len() {
        let frame_at = pos as u64;
        if bytes.len() - pos < 4 {
            scan.error = Some(WalError::TornFrame {
                segment: path.to_path_buf(),
                offset: frame_at,
            });
            break;
        }
        let payload_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let total = 4 + payload_len + 8;
        if bytes.len() - pos < total {
            scan.error = Some(WalError::TornFrame {
                segment: path.to_path_buf(),
                offset: frame_at,
            });
            break;
        }
        let payload = &bytes[pos + 4..pos + 4 + payload_len];
        let stored = u64::from_le_bytes(
            bytes[pos + 4 + payload_len..pos + total]
                .try_into()
                .unwrap(),
        );
        let computed = fnv1a(payload);
        if stored != computed {
            scan.error = Some(WalError::ChecksumMismatch {
                segment: path.to_path_buf(),
                offset: frame_at,
                stored,
                computed,
            });
            break;
        }
        match decode_payload(payload) {
            Some(frame) => scan.frames.push(frame),
            None => {
                scan.error = Some(WalError::TornFrame {
                    segment: path.to_path_buf(),
                    offset: frame_at,
                });
                break;
            }
        }
        pos += total;
        scan.valid_len = pos as u64;
    }
    Ok(scan)
}

/// Where a log stopped being valid, and what a repair will discard.
#[derive(Debug)]
pub struct Tear {
    /// Segment holding the first invalid byte.
    pub segment: PathBuf,
    /// Byte offset of the tear within that segment.
    pub offset: u64,
    /// Bytes past the tear across this and all later segments.
    pub dropped_bytes: u64,
    /// The typed defect found at the tear.
    pub error: WalError,
}

/// Scan of a whole log directory: the longest valid frame prefix
/// across all segments (stamp order), plus the tear ending it, if any.
#[derive(Debug)]
pub struct LogScan {
    /// Valid frames from every segment up to the tear, in stamp order.
    pub frames: Vec<WalFrame>,
    /// First defect, if the log is not clean. Everything after it —
    /// the rest of that segment and every later segment — is dead:
    /// frames past a tear may depend on lost stamps and are never
    /// applied.
    pub tear: Option<Tear>,
}

/// Scans every segment under `dir` in stamp order. Stops collecting at
/// the first invalid frame; later segments past a tear count as
/// dropped bytes (their frames are unreachable without the torn
/// stamps). Only real I/O errors return `Err`.
pub fn scan_log(dir: &Path) -> io::Result<LogScan> {
    let segments = segment_files(dir)?;
    let mut out = LogScan {
        frames: Vec::new(),
        tear: None,
    };
    for (i, seg) in segments.iter().enumerate() {
        let scan = scan_segment(&seg.path)?;
        out.frames.extend(scan.frames);
        if let Some(error) = scan.error {
            let seg_len = fs::metadata(&seg.path)?.len();
            let mut dropped = seg_len - scan.valid_len;
            for later in &segments[i + 1..] {
                dropped += fs::metadata(&later.path)?.len();
            }
            out.tear = Some(Tear {
                segment: seg.path.clone(),
                offset: scan.valid_len,
                dropped_bytes: dropped,
                error,
            });
            break;
        }
    }
    // Concurrent clients may append frames out of stamp order; replay
    // wants them monotone. Single-writer logs are already sorted.
    out.frames.sort_by_key(|f| f.base);
    Ok(out)
}

/// Makes the on-disk log match `scan`: truncates the torn segment to
/// its valid prefix (removes it entirely when even the header is bad)
/// and deletes every later segment. A no-op for a clean scan.
pub fn repair(dir: &Path, scan: &LogScan) -> io::Result<()> {
    let Some(tear) = &scan.tear else {
        return Ok(());
    };
    if tear.offset < WAL_HEADER_LEN {
        fs::remove_file(&tear.segment)?;
    } else {
        OpenOptions::new()
            .write(true)
            .open(&tear.segment)?
            .set_len(tear.offset)?;
    }
    let torn_start = tear
        .segment
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| parse_stamped(n, "wal-", ".seg"))
        .unwrap_or(u64::MAX);
    for seg in segment_files(dir)? {
        if seg.start > torn_start {
            fs::remove_file(&seg.path)?;
        }
    }
    Ok(())
}

/// Deletes log artifacts a snapshot at `watermark` makes redundant: a
/// segment whose *successor* starts at or below the watermark is fully
/// covered (every frame it holds ends before the successor begins),
/// and all but the two newest snapshots (the newest plus one fallback
/// for the corrupt-snapshot path). Returns
/// `(segments_removed, snapshots_removed)`.
pub fn retain(dir: &Path, watermark: u64) -> io::Result<(usize, usize)> {
    let segments = segment_files(dir)?;
    let mut segs_removed = 0;
    for pair in segments.windows(2) {
        if pair[1].start <= watermark {
            fs::remove_file(&pair[0].path)?;
            segs_removed += 1;
        }
    }
    let snaps = snapshot_files(dir)?;
    let mut snaps_removed = 0;
    if snaps.len() > 2 {
        for (_, path) in &snaps[..snaps.len() - 2] {
            fs::remove_file(path)?;
            snaps_removed += 1;
        }
    }
    Ok((segs_removed, snaps_removed))
}

/// Result of one [`WalWriter::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppendStats {
    /// Frame bytes written (length prefix + payload + checksum).
    pub bytes: u64,
    /// Whether this append fsynced (per the flush policy).
    pub synced: bool,
    /// Whether this append opened a new segment.
    pub rotated: bool,
    /// Nanoseconds the fsync took; zero when `!synced`.
    pub sync_ns: u64,
}

struct OpenSegment {
    file: File,
    bytes: u64,
}

/// Appender over a log directory. One writer per engine — the
/// persistent engine's dedicated log thread owns it; nothing here is
/// thread-safe by itself.
pub struct WalWriter {
    cfg: DurabilityConfig,
    seg: Option<OpenSegment>,
    frames_since_sync: u64,
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Opens `cfg.dir` for appending, positioned after the last valid
    /// frame. The caller is expected to have [`repair`]ed the log
    /// first (recovery does); a still-torn tail would otherwise be
    /// appended after and shadowed forever.
    pub fn open(cfg: DurabilityConfig) -> io::Result<WalWriter> {
        cfg.validate();
        fs::create_dir_all(&cfg.dir)?;
        let seg = match segment_files(&cfg.dir)?.last() {
            Some(last) => {
                let bytes = fs::metadata(&last.path)?.len();
                if bytes >= cfg.segment_bytes {
                    None // full: the next append rotates.
                } else {
                    let file = OpenOptions::new().append(true).open(&last.path)?;
                    Some(OpenSegment { file, bytes })
                }
            }
            None => None,
        };
        Ok(WalWriter {
            cfg,
            seg,
            frames_since_sync: 0,
            scratch: Vec::new(),
        })
    }

    /// Appends one frame, rotating and fsyncing per the config.
    pub fn append(&mut self, base: u64, obs: &[Observation]) -> io::Result<AppendStats> {
        let mut stats = AppendStats::default();
        let rotate = match &self.seg {
            Some(seg) => seg.bytes >= self.cfg.segment_bytes,
            None => true,
        };
        if rotate {
            // Never leave unsynced frames behind in a closed segment.
            if self.seg.is_some() && self.frames_since_sync > 0 {
                stats.sync_ns += self.sync_now()?;
                stats.synced = true;
            }
            let path = self.cfg.dir.join(segment_name(base));
            let mut file = File::create(&path)?;
            file.write_all(&WAL_MAGIC)?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
            self.seg = Some(OpenSegment {
                file,
                bytes: WAL_HEADER_LEN,
            });
            stats.rotated = true;
        }
        self.scratch.clear();
        encode_frame(&mut self.scratch, base, obs);
        let seg = self.seg.as_mut().expect("segment open after rotation");
        seg.file.write_all(&self.scratch)?;
        seg.bytes += self.scratch.len() as u64;
        stats.bytes = self.scratch.len() as u64;
        self.frames_since_sync += 1;
        let due = match self.cfg.flush {
            FlushPolicy::EveryBatch => true,
            FlushPolicy::EveryN(n) => self.frames_since_sync >= n,
            FlushPolicy::OnRotate => false,
        };
        if due {
            stats.sync_ns += self.sync_now()?;
            stats.synced = true;
        }
        Ok(stats)
    }

    /// Forces pending frames to stable storage regardless of policy.
    /// Returns the fsync latency in nanoseconds, or `None` when
    /// nothing was pending.
    pub fn sync(&mut self) -> io::Result<Option<u64>> {
        if self.frames_since_sync == 0 {
            return Ok(None);
        }
        self.sync_now().map(Some)
    }

    fn sync_now(&mut self) -> io::Result<u64> {
        let Some(seg) = self.seg.as_mut() else {
            return Ok(0);
        };
        let t0 = Instant::now();
        seg.file.sync_data()?;
        self.frames_since_sync = 0;
        Ok(t0.elapsed().as_nanos() as u64)
    }

    /// The active configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpp-oplog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn obs(rank: u32, value: u64) -> Observation {
        Observation::new(StreamKey::new(rank, StreamKind::Sender), value)
    }

    fn batch(start: u64, n: u64) -> Vec<Observation> {
        (0..n)
            .map(|i| obs((start + i) as u32 % 8, start + i))
            .collect()
    }

    #[test]
    fn frames_roundtrip_through_a_segment() {
        let dir = tmpdir("roundtrip");
        let mut w = WalWriter::open(DurabilityConfig::new(&dir)).unwrap();
        let mut base = 0u64;
        let mut expect = Vec::new();
        for n in [1u64, 7, 32] {
            let b = batch(base, n);
            let stats = w.append(base, &b).unwrap();
            assert!(stats.synced, "EveryBatch syncs each frame");
            assert!(stats.bytes > 0);
            expect.push(WalFrame { base, obs: b });
            base += n;
        }
        let scan = scan_log(&dir).unwrap();
        assert!(scan.tear.is_none());
        assert_eq!(scan.frames, expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_names_them_by_stamp() {
        let dir = tmpdir("rotate");
        let cfg = DurabilityConfig::new(&dir)
            .with_segment_bytes(256)
            .with_flush(FlushPolicy::OnRotate);
        let mut w = WalWriter::open(cfg).unwrap();
        let mut base = 0u64;
        for _ in 0..20 {
            let b = batch(base, 4);
            w.append(base, &b).unwrap();
            base += 4;
        }
        w.sync().unwrap();
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() > 1, "256-byte segments must have rotated");
        assert_eq!(segs[0].start, 0);
        for pair in segs.windows(2) {
            assert!(pair[0].start < pair[1].start, "stamp-ordered names");
        }
        let scan = scan_log(&dir).unwrap();
        assert!(scan.tear.is_none());
        assert_eq!(scan.frames.len(), 20);
        let stamps: Vec<u64> = scan.frames.iter().map(|f| f.base).collect();
        assert_eq!(stamps, (0..20).map(|i| i * 4).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_policy_amortises_fsyncs() {
        let dir = tmpdir("everyn");
        let cfg = DurabilityConfig::new(&dir).with_flush(FlushPolicy::EveryN(3));
        let mut w = WalWriter::open(cfg).unwrap();
        let mut synced = 0;
        for i in 0..7u64 {
            let b = batch(i, 1);
            if w.append(i, &b).unwrap().synced {
                synced += 1;
            }
        }
        assert_eq!(synced, 2, "7 frames at n=3 sync twice");
        assert!(w.sync().unwrap().is_some(), "one frame pending");
        assert!(w.sync().unwrap().is_none(), "now clean");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_scans_to_valid_prefix_and_repairs() {
        let dir = tmpdir("torn");
        let mut w = WalWriter::open(DurabilityConfig::new(&dir)).unwrap();
        w.append(0, &batch(0, 8)).unwrap();
        w.append(8, &batch(8, 8)).unwrap();
        drop(w);
        let seg = segment_files(&dir).unwrap().remove(0);
        let len = fs::metadata(&seg.path).unwrap().len();
        // Cut 3 bytes into the second frame's checksum: a torn tail.
        OpenOptions::new()
            .write(true)
            .open(&seg.path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let scan = scan_log(&dir).unwrap();
        assert_eq!(scan.frames.len(), 1, "only the intact frame survives");
        let tear = scan.tear.as_ref().expect("tear detected");
        assert!(matches!(tear.error, WalError::TornFrame { .. }));
        assert_eq!(tear.dropped_bytes, (len - 3) - tear.offset);
        repair(&dir, &scan).unwrap();
        assert_eq!(fs::metadata(&seg.path).unwrap().len(), tear.offset);
        let rescanned = scan_log(&dir).unwrap();
        assert!(rescanned.tear.is_none(), "repaired log is clean");
        assert_eq!(rescanned.frames.len(), 1);
        // And the writer appends cleanly after the cut.
        let mut w = WalWriter::open(DurabilityConfig::new(&dir)).unwrap();
        w.append(8, &batch(8, 8)).unwrap();
        let healed = scan_log(&dir).unwrap();
        assert!(healed.tear.is_none());
        assert_eq!(healed.frames.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_is_a_typed_checksum_mismatch() {
        let dir = tmpdir("flip");
        let mut w = WalWriter::open(DurabilityConfig::new(&dir)).unwrap();
        w.append(0, &batch(0, 8)).unwrap();
        drop(w);
        let seg = segment_files(&dir).unwrap().remove(0);
        let mut bytes = fs::read(&seg.path).unwrap();
        let mid = WAL_HEADER_LEN as usize + 10;
        bytes[mid] ^= 0xff;
        fs::write(&seg.path, &bytes).unwrap();
        let scan = scan_log(&dir).unwrap();
        assert!(scan.frames.is_empty());
        let tear = scan.tear.as_ref().unwrap();
        assert!(
            matches!(tear.error, WalError::ChecksumMismatch { offset, .. }
                if offset == WAL_HEADER_LEN),
            "{:?}",
            tear.error
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tear_in_middle_segment_drops_all_later_segments() {
        let dir = tmpdir("midtear");
        let cfg = DurabilityConfig::new(&dir).with_segment_bytes(128);
        let mut w = WalWriter::open(cfg).unwrap();
        let mut base = 0;
        for _ in 0..12 {
            w.append(base, &batch(base, 4)).unwrap();
            base += 4;
        }
        drop(w);
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() >= 3);
        // Corrupt the *first* segment's first frame.
        let mut bytes = fs::read(&segs[0].path).unwrap();
        let at = WAL_HEADER_LEN as usize + 6;
        bytes[at] ^= 0x55;
        fs::write(&segs[0].path, &bytes).unwrap();
        let scan = scan_log(&dir).unwrap();
        assert!(scan.frames.is_empty(), "nothing before the tear");
        repair(&dir, &scan).unwrap();
        let left = segment_files(&dir).unwrap();
        assert_eq!(left.len(), 1, "later segments removed");
        assert_eq!(
            fs::metadata(&left[0].path).unwrap().len(),
            WAL_HEADER_LEN,
            "torn segment cut back to its header"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let dir = tmpdir("magic");
        let p = dir.join(segment_name(0));
        fs::write(&p, b"NOTAWAL\x01rest").unwrap();
        let scan = scan_segment(&p).unwrap();
        assert!(matches!(scan.error, Some(WalError::BadMagic { .. })));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        fs::write(&p, &bytes).unwrap();
        let scan = scan_segment(&p).unwrap();
        assert!(matches!(
            scan.error,
            Some(WalError::VersionMismatch { found: 99, .. })
        ));
        let short = dir.join(segment_name(1));
        fs::write(&short, &WAL_MAGIC[..4]).unwrap();
        let scan = scan_segment(&short).unwrap();
        assert!(matches!(
            scan.error,
            Some(WalError::Truncated { offset: 4, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_covering_segments_and_two_snapshots() {
        let dir = tmpdir("retain");
        let cfg = DurabilityConfig::new(&dir).with_segment_bytes(128);
        let mut w = WalWriter::open(cfg).unwrap();
        let mut base = 0;
        for _ in 0..12 {
            w.append(base, &batch(base, 4)).unwrap();
            base += 4;
        }
        drop(w);
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() >= 3);
        for wmark in [10, 25, 40] {
            write_snapshot_file(&dir, wmark, b"snapshot bytes").unwrap();
        }
        // Watermark covering everything: all but the last segment go.
        let (segs_gone, snaps_gone) = retain(&dir, base).unwrap();
        assert_eq!(segs_gone, segs.len() - 1);
        assert_eq!(snaps_gone, 1, "keeps newest two snapshots");
        let snaps = snapshot_files(&dir).unwrap();
        assert_eq!(
            snaps.iter().map(|&(w, _)| w).collect::<Vec<_>>(),
            vec![25, 40]
        );
        // The surviving segment still replays.
        let scan = scan_log(&dir).unwrap();
        assert!(scan.tear.is_none());
        assert!(!scan.frames.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_spares_segments_past_the_watermark() {
        let dir = tmpdir("retain-live");
        let cfg = DurabilityConfig::new(&dir).with_segment_bytes(128);
        let mut w = WalWriter::open(cfg).unwrap();
        let mut base = 0;
        for _ in 0..12 {
            w.append(base, &batch(base, 4)).unwrap();
            base += 4;
        }
        drop(w);
        let before = segment_files(&dir).unwrap();
        // A watermark before the second segment covers nothing.
        let (gone, _) = retain(&dir, before[1].start - 1).unwrap();
        assert_eq!(gone, 0);
        assert_eq!(segment_files(&dir).unwrap().len(), before.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_files_list_ascending_and_write_is_atomic() {
        let dir = tmpdir("snapfiles");
        write_snapshot_file(&dir, 300, b"c").unwrap();
        write_snapshot_file(&dir, 100, b"a").unwrap();
        write_snapshot_file(&dir, 200, b"b").unwrap();
        let snaps = snapshot_files(&dir).unwrap();
        assert_eq!(
            snaps.iter().map(|&(w, _)| w).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
        assert_eq!(fs::read(&snaps[0].1).unwrap(), b"a");
        assert!(
            fs::read_dir(&dir).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .contains(".tmp-")),
            "no temp files left behind"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_files_and_creates_the_directory() {
        let dir = tmpdir("atomic").join("nested");
        let path = dir.join("table.bin");
        write_atomic(&path, b"first version").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first version");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            b"second",
            "replaced, not appended"
        );
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["table.bin"], "no temp file left behind");
        let _ = fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn errors_render_with_paths_and_offsets() {
        let seg = PathBuf::from("/x/wal-0.seg");
        let e = WalError::ChecksumMismatch {
            segment: seg.clone(),
            offset: 42,
            stored: 1,
            computed: 2,
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("wal-0.seg"), "{s}");
        let t = WalError::TornFrame {
            segment: seg,
            offset: 7,
        }
        .to_string();
        assert!(t.contains("torn frame at byte 7"), "{t}");
        assert!(WalError::from(io::Error::other("disk gone"))
            .to_string()
            .contains("disk gone"));
    }
    /// A frame whose checksum holds but whose stream-kind byte is past
    /// the kinds there are stops the scan with a torn frame at its own
    /// offset; the frames before it survive.
    #[test]
    fn out_of_range_kind_byte_is_a_torn_frame_at_its_offset() {
        let dir = tmpdir("kind");
        let mut w = WalWriter::open(DurabilityConfig::new(&dir)).unwrap();
        w.append(0, &batch(0, 4)).unwrap();
        w.append(4, &batch(4, 4)).unwrap();
        drop(w);
        let seg = segment_files(&dir).unwrap().remove(0);
        let mut bytes = fs::read(&seg.path).unwrap();
        let mut first = Vec::new();
        encode_frame(&mut first, 0, &batch(0, 4));
        let at = WAL_HEADER_LEN as usize + first.len();
        // The second frame's third event: its kind byte follows the
        // job and rank words.
        let payload = at + 4..at + 4 + FRAME_PREFIX_LEN + 4 * OBS_LEN;
        bytes[payload.start + FRAME_PREFIX_LEN + 2 * OBS_LEN + 8] = StreamKind::ALL.len() as u8;
        let sum = fnv1a(&bytes[payload.clone()]);
        bytes[payload.end..payload.end + 8].copy_from_slice(&sum.to_le_bytes());
        fs::write(&seg.path, &bytes).unwrap();
        let scan = scan_segment(&seg.path).unwrap();
        assert_eq!(
            scan.frames,
            vec![WalFrame {
                base: 0,
                obs: batch(0, 4)
            }]
        );
        assert_eq!(scan.valid_len, at as u64);
        assert!(
            matches!(&scan.error, Some(WalError::TornFrame { offset, .. }) if *offset == at as u64),
            "{:?}",
            scan.error
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
