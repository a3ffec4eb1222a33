//! Zero-dependency framed write-ahead log.
//!
//! This module is the byte-level layer under `lt-serve`'s durable session
//! log: it knows nothing about sessions, only about getting opaque payloads
//! onto disk such that a crash at any instant loses at most the unsynced
//! tail and never corrupts earlier records.
//!
//! # File format
//!
//! ```text
//! magic: 8 bytes          b"LTWAL1\0\n"
//! frame: repeated         [len: u32 LE][crc: u32 LE CRC-32(payload)][payload]
//! ```
//!
//! Readers stop at the first incomplete or checksum-failing frame and report
//! how many trailing bytes were dropped — a torn tail is an expected crash
//! artifact, not an error. Corruption *before* the tail is indistinguishable
//! from a torn tail by design: everything from the first bad frame on is
//! dropped, which is the only safe interpretation without per-record
//! sequence numbers.
//!
//! # Fsync policy
//!
//! [`LogWriter::append`] batches fsyncs: the file is flushed + `fdatasync`'d
//! every `sync_every` records (default 8, `LT_WAL_SYNC_EVERY`). Callers that
//! just acknowledged something to a client call [`LogWriter::sync`]
//! explicitly. A writer opened with `sync: false` never fsyncs; lt-store's
//! redo log opens its writer that way.
//!
//! # Crash injection
//!
//! `LT_WAL_CRASH_AT=<n>` makes the process `abort()` immediately after the
//! n-th appended record (1-based) is made durable; with `LT_WAL_CRASH_TORN=1`
//! a deliberately truncated frame is written first, simulating a tear in the
//! middle of a frame write. The crash-injection harness enumerates kill
//! points with these knobs; production never sets them.

use crate::env;
use crate::hash::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Leading magic bytes of every log file.
pub const MAGIC: &[u8; 8] = b"LTWAL1\0\n";

/// Sanity cap on a single record; anything larger is treated as corruption.
pub const MAX_RECORD_BYTES: usize = 1 << 26;

/// Durability and crash-injection knobs, normally read from the environment.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Whether to fsync at all (default on).
    pub sync: bool,
    /// Auto-fsync after this many appended records (`LT_WAL_SYNC_EVERY`).
    pub sync_every: u64,
    /// Abort the process after the n-th append (`LT_WAL_CRASH_AT`, 1-based).
    pub crash_at: Option<u64>,
    /// Write a torn half-frame before crashing (`LT_WAL_CRASH_TORN`).
    pub crash_torn: bool,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: true,
            sync_every: 8,
            crash_at: None,
            crash_torn: false,
        }
    }
}

impl WalOptions {
    /// The defaults with the `LT_WAL_*` knobs from the environment applied.
    pub fn from_env() -> WalOptions {
        let d = WalOptions::default();
        let crash_at = env::opt("LT_WAL_CRASH_AT", &"none", |&n: &u64| n > 0);
        WalOptions {
            sync_every: env::get("LT_WAL_SYNC_EVERY", d.sync_every, |&n| n > 0),
            crash_torn: crash_at.is_some() && env::flag("LT_WAL_CRASH_TORN"),
            crash_at,
            ..d
        }
    }
}

/// Append handle to a framed log file.
#[derive(Debug)]
pub struct LogWriter {
    file: BufWriter<File>,
    opts: WalOptions,
    appended: u64,
    since_sync: u64,
}

impl LogWriter {
    /// Opens `path` for appending, writing the magic header if the file is
    /// new or empty. The caller is responsible for having truncated any torn
    /// tail first (see [`read_log`] + [`rewrite_log`]); appending after
    /// garbage would hide the new records from replay.
    pub fn open(path: &Path, opts: WalOptions) -> io::Result<LogWriter> {
        let fresh = fs::metadata(path).map(|m| m.len() == 0).unwrap_or(true);
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut w = LogWriter {
            file: BufWriter::new(file),
            opts,
            appended: 0,
            since_sync: 0,
        };
        if fresh {
            w.file.write_all(MAGIC)?;
            w.force_sync()?;
        }
        Ok(w)
    }

    /// Number of records appended through this writer (not counting records
    /// already in the file when it was opened).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one framed record, honoring the batch-fsync policy and the
    /// crash-injection knobs.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        assert!(payload.len() <= MAX_RECORD_BYTES, "wal record too large");
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.appended += 1;
        self.since_sync += 1;
        if self.opts.crash_at == Some(self.appended) {
            self.crash_now();
        }
        if self.since_sync >= self.opts.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends and immediately makes the record durable. Used at
    /// acknowledgement points (session created, terminal transition, feed).
    pub fn append_sync(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append(payload)?;
        self.sync()
    }

    /// Flushes buffered frames and, unless fsync is disabled, `fdatasync`s.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        if self.opts.sync {
            self.file.get_ref().sync_data()?;
        }
        self.since_sync = 0;
        Ok(())
    }

    fn force_sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()
    }

    /// Crash-injection kill point: make everything so far durable (the
    /// harness asserts on what *was* acknowledged), optionally write a torn
    /// half-frame, then abort without unwinding — exactly what a SIGKILL or
    /// power loss leaves behind.
    fn crash_now(&mut self) -> ! {
        let _ = self.force_sync();
        if self.opts.crash_torn {
            // A frame header promising 64 bytes followed by only 7: replay
            // must drop this tail and keep every record before it.
            let _ = self.file.write_all(&64u32.to_le_bytes());
            let _ = self.file.write_all(&0xDEAD_BEEFu32.to_le_bytes());
            let _ = self.file.write_all(b"torn...");
            let _ = self.force_sync();
        }
        eprintln!(
            "lt-wal: LT_WAL_CRASH_AT={} reached, aborting",
            self.appended
        );
        std::process::abort();
    }
}

/// How the tail of a log file looked on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// File ended exactly on a frame boundary.
    Clean,
    /// File ended mid-frame (torn write); `dropped` trailing bytes ignored.
    Torn { dropped: u64 },
    /// A complete frame failed its checksum or had an absurd length;
    /// everything from it on (`dropped` bytes) was ignored.
    Corrupt { dropped: u64 },
}

/// Result of scanning a log file.
#[derive(Debug)]
pub struct ReadLog {
    /// Payloads of every intact frame, in append order.
    pub records: Vec<Vec<u8>>,
    /// State of the file's tail.
    pub tail: Tail,
}

/// Streaming frame reader: yields one intact payload at a time without
/// buffering the rest of the file, so a recovery pass over a large redo
/// log (lt-store's page-image log) holds one record in memory, not the
/// log. Iteration stops at the first incomplete or checksum-failing
/// frame; [`FrameIter::tail`] then reports how the file ended, exactly as
/// [`read_log`] would have (which is now a thin collector over this).
#[derive(Debug)]
pub struct FrameIter {
    reader: Option<BufReader<File>>,
    /// Bytes of the file not yet consumed (past the magic header).
    remaining: u64,
    tail: Option<Tail>,
}

impl FrameIter {
    fn finished(tail: Tail) -> FrameIter {
        FrameIter {
            reader: None,
            remaining: 0,
            tail: Some(tail),
        }
    }

    /// How the file's tail looked: `None` while records remain, `Some`
    /// once the iterator is exhausted (or was exhausted at open).
    pub fn tail(&self) -> Option<Tail> {
        self.tail
    }
}

impl Iterator for FrameIter {
    type Item = io::Result<Vec<u8>>;

    fn next(&mut self) -> Option<io::Result<Vec<u8>>> {
        if self.tail.is_some() {
            return None;
        }
        let reader = self.reader.as_mut()?;
        if self.remaining == 0 {
            self.tail = Some(Tail::Clean);
            return None;
        }
        if self.remaining < 8 {
            self.tail = Some(Tail::Torn {
                dropped: self.remaining,
            });
            return None;
        }
        let mut header = [0u8; 8];
        if let Err(e) = reader.read_exact(&mut header) {
            return Some(Err(e));
        }
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            self.tail = Some(Tail::Corrupt {
                dropped: self.remaining,
            });
            return None;
        }
        if self.remaining - 8 < len as u64 {
            self.tail = Some(Tail::Torn {
                dropped: self.remaining,
            });
            return None;
        }
        let mut payload = vec![0u8; len];
        if let Err(e) = reader.read_exact(&mut payload) {
            return Some(Err(e));
        }
        if crc32(&payload) != crc {
            self.tail = Some(Tail::Corrupt {
                dropped: self.remaining,
            });
            return None;
        }
        self.remaining -= 8 + len as u64;
        Some(Ok(payload))
    }
}

/// Opens `path` for streaming frame iteration. A missing or empty file is
/// an exhausted iterator with a [`Tail::Clean`]; a present file with the
/// wrong magic is an error (it is not a log at all).
pub fn read_frames(path: &Path) -> io::Result<FrameIter> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(FrameIter::finished(Tail::Clean));
        }
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(FrameIter::finished(Tail::Clean));
    }
    if len < MAGIC.len() as u64 {
        return Ok(FrameIter::finished(Tail::Torn { dropped: len }));
    }
    let mut reader = BufReader::new(file);
    let mut magic = [0u8; MAGIC.len()];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not an LTWAL1 log file", path.display()),
        ));
    }
    Ok(FrameIter {
        reader: Some(reader),
        remaining: len - MAGIC.len() as u64,
        tail: None,
    })
}

/// Reads every intact record from `path`. A missing file is an empty log.
pub fn read_log(path: &Path) -> io::Result<ReadLog> {
    let mut frames = read_frames(path)?;
    let mut records = Vec::new();
    for record in &mut frames {
        records.push(record?);
    }
    Ok(ReadLog {
        records,
        tail: frames.tail().unwrap_or(Tail::Clean),
    })
}

/// Atomically replaces the log at `path` with exactly `records`: writes a
/// temp file in the same directory, fsyncs it, renames over `path`, and
/// fsyncs the directory so the rename itself is durable. Used for startup
/// truncation of torn tails and for compaction snapshots.
pub fn rewrite_log<I, B>(path: &Path, records: I, sync: bool) -> io::Result<()>
where
    I: IntoIterator<Item = B>,
    B: AsRef<[u8]>,
{
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
    let tmp: PathBuf = path.with_extension("tmp");
    {
        let mut f = BufWriter::new(File::create(&tmp)?);
        f.write_all(MAGIC)?;
        for rec in records {
            let payload = rec.as_ref();
            assert!(payload.len() <= MAX_RECORD_BYTES, "wal record too large");
            f.write_all(&(payload.len() as u32).to_le_bytes())?;
            f.write_all(&crc32(payload).to_le_bytes())?;
            f.write_all(payload)?;
        }
        f.flush()?;
        if sync {
            f.get_ref().sync_data()?;
        }
    }
    fs::rename(&tmp, path)?;
    if sync && !dir.as_os_str().is_empty() {
        // Make the rename durable; ignore platforms where opening a
        // directory for fsync is unsupported.
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lt_wal_test_{}_{}_{}.wal",
            tag,
            std::process::id(),
            n
        ))
    }

    fn no_sync() -> WalOptions {
        WalOptions {
            sync: false,
            ..WalOptions::default()
        }
    }

    #[test]
    fn round_trips_records() {
        let path = tmp_path("round");
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append(b"alpha").unwrap();
            w.append(b"").unwrap();
            w.append_sync(b"gamma with spaces").unwrap();
        }
        let read = read_log(&path).unwrap();
        assert_eq!(read.tail, Tail::Clean);
        assert_eq!(
            read.records,
            vec![
                b"alpha".to_vec(),
                b"".to_vec(),
                b"gamma with spaces".to_vec()
            ]
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_clean_log() {
        let read = read_log(Path::new("/nonexistent/lt_wal_never_here.wal")).unwrap();
        assert!(read.records.is_empty());
        assert_eq!(read.tail, Tail::Clean);
    }

    #[test]
    fn reopening_appends_after_existing_records() {
        let path = tmp_path("reopen");
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append_sync(b"one").unwrap();
        }
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append_sync(b"two").unwrap();
        }
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(read.tail, Tail::Clean);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let path = tmp_path("torn");
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append_sync(b"kept-1").unwrap();
            w.append_sync(b"kept-2").unwrap();
        }
        // Simulate a crash mid-frame: a header promising 100 bytes, 3 given.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"abc").unwrap();
        drop(f);
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, vec![b"kept-1".to_vec(), b"kept-2".to_vec()]);
        assert_eq!(read.tail, Tail::Torn { dropped: 11 });
        fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_failure_truncates_from_bad_frame() {
        let path = tmp_path("crc");
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append_sync(b"good").unwrap();
            w.append_sync(b"flipped").unwrap();
        }
        // Flip one payload byte of the second record.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, vec![b"good".to_vec()]);
        assert!(matches!(read.tail, Tail::Corrupt { dropped: 15 }));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = tmp_path("rewrite");
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append_sync(b"old-1").unwrap();
            w.append_sync(b"old-2").unwrap();
            w.append_sync(b"old-3").unwrap();
        }
        rewrite_log(&path, [b"new".as_slice()], false).unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, vec![b"new".to_vec()]);
        assert_eq!(read.tail, Tail::Clean);
        // And the log is still appendable after a rewrite.
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append_sync(b"after").unwrap();
        }
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, vec![b"new".to_vec(), b"after".to_vec()]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_iterator_streams_and_reports_a_torn_tail() {
        let path = tmp_path("iter_torn");
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append_sync(b"first").unwrap();
            w.append_sync(b"second").unwrap();
        }
        // A torn frame: header promising 32 bytes, 5 delivered.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&32u32.to_le_bytes()).unwrap();
        f.write_all(&7u32.to_le_bytes()).unwrap();
        f.write_all(b"tornn").unwrap();
        drop(f);

        let mut frames = read_frames(&path).unwrap();
        // Tail is unknown while intact records remain.
        assert_eq!(frames.tail(), None);
        assert_eq!(frames.next().unwrap().unwrap(), b"first".to_vec());
        assert_eq!(frames.tail(), None);
        assert_eq!(frames.next().unwrap().unwrap(), b"second".to_vec());
        // The torn frame ends iteration and is reported, not yielded.
        assert!(frames.next().is_none());
        assert_eq!(frames.tail(), Some(Tail::Torn { dropped: 13 }));
        // Exhausted iterators stay exhausted.
        assert!(frames.next().is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_iterator_edge_cases_match_read_log() {
        // Missing file: exhausted, clean.
        let mut frames = read_frames(Path::new("/nonexistent/lt_wal_iter.wal")).unwrap();
        assert!(frames.next().is_none());
        assert_eq!(frames.tail(), Some(Tail::Clean));

        // Header-only truncation (shorter than a frame header).
        let path = tmp_path("iter_short");
        {
            let mut w = LogWriter::open(&path, no_sync()).unwrap();
            w.append_sync(b"kept").unwrap();
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
        drop(f);
        let mut frames = read_frames(&path).unwrap();
        assert_eq!(frames.next().unwrap().unwrap(), b"kept".to_vec());
        assert!(frames.next().is_none());
        assert_eq!(frames.tail(), Some(Tail::Torn { dropped: 3 }));

        // A checksum failure is Corrupt from the bad frame on.
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3); // drop the torn tail
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let mut frames = read_frames(&path).unwrap();
        assert!(frames.next().is_none());
        assert_eq!(frames.tail(), Some(Tail::Corrupt { dropped: 12 }));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_an_error() {
        let path = tmp_path("magic");
        fs::write(&path, b"definitely not a wal file").unwrap();
        assert!(read_log(&path).is_err());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn options_default_batches_fsync() {
        let o = WalOptions::default();
        assert!(o.sync);
        assert_eq!(o.sync_every, 8);
        assert_eq!(o.crash_at, None);
        assert!(!o.crash_torn);
    }
}
