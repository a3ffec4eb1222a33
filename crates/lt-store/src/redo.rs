//! Physical redo logging on the shared WAL frame layer.
//!
//! The buffer pool follows the write-ahead rule: before a dirty page is
//! written back to the data file, its full after-image is appended to
//! `redo.wal` (one frame per image, [`lt_common::wal`] framing with
//! per-frame crc32). Recovery streams the log with
//! [`lt_common::wal::read_frames`] — torn tails from a crash are detected
//! and dropped by the frame layer — and replays every intact image over the
//! data file, which repairs torn *data* pages. A checkpoint (clean
//! shutdown, or after a bulk load) truncates the log back to its header.
//!
//! The log never fsyncs: the store is a benchmark replica, and the redo
//! rule (image before data write) already repairs torn data pages on
//! recovery; what a lost buffered suffix costs is the tail of a load,
//! never consistency.
//!
//! Crash injection: the writer honours `LT_WAL_CRASH_AT` /
//! `LT_WAL_CRASH_TORN` via [`lt_common::wal::WalOptions::from_env`], so the
//! recovery tests can kill a child process mid-load at a chosen append.

use crate::page::PAGE_SIZE;
use lt_common::obs;
use lt_common::wal::{read_frames, rewrite_log, LogWriter, WalOptions};
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Redo record: one full page after-image.
const TAG_PAGE_IMAGE: u8 = 1;

/// Appends page after-images to the store's redo log.
pub struct RedoLog {
    path: PathBuf,
    writer: LogWriter,
    appends: u64,
}

impl RedoLog {
    /// Opens (or creates) the redo log at `path`.
    pub fn open(path: &Path) -> io::Result<RedoLog> {
        Ok(RedoLog {
            path: path.to_path_buf(),
            writer: LogWriter::open(path, options())?,
            appends: 0,
        })
    }

    /// Logs the after-image of `page_no` (the write-ahead step of a dirty
    /// page write-back).
    pub fn log_page(&mut self, page_no: u64, image: &[u8]) -> io::Result<()> {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        let mut rec = Vec::with_capacity(9 + PAGE_SIZE);
        rec.push(TAG_PAGE_IMAGE);
        rec.extend_from_slice(&page_no.to_le_bytes());
        rec.extend_from_slice(image);
        self.writer.append(&rec)?;
        self.appends += 1;
        obs::counter("store.wal_appends", 1);
        Ok(())
    }

    /// Flushes buffered frames to the OS (fsync only if configured).
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()
    }

    /// Total page images appended through this handle.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Truncates the log after all dirty pages have been flushed: the data
    /// file now *is* the checkpoint, so no image needs replaying.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        rewrite_log(&self.path, std::iter::empty::<Vec<u8>>(), false)?;
        self.writer = LogWriter::open(&self.path, options())?;
        Ok(())
    }
}

/// The redo log's writer options: crash injection from the environment,
/// fsync off.
fn options() -> WalOptions {
    WalOptions {
        sync: false,
        ..WalOptions::from_env()
    }
}

/// Replays every intact page image in `redo` over `data`, growing the data
/// file as needed, and returns the number of images applied. Later images
/// of the same page win (append order). A torn or corrupt tail ends replay
/// silently — exactly the frames the crashed process never promised.
pub fn recover(redo: &Path, data: &Path) -> io::Result<u64> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(data)?;
    let mut applied = 0u64;
    for frame in read_frames(redo)? {
        let rec = frame?;
        if rec.len() != 1 + 8 + PAGE_SIZE || rec[0] != TAG_PAGE_IMAGE {
            // Unknown record shape: a versioning bug, not a torn write
            // (framing already checksums) — stop replay conservatively.
            break;
        }
        let page_no = u64::from_le_bytes(rec[1..9].try_into().unwrap());
        file.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))?;
        file.write_all(&rec[9..])?;
        applied += 1;
    }
    file.flush()?;
    Ok(applied)
}

/// Reads one page image straight from the data file (recovery validation
/// and tests; normal reads go through the buffer pool).
pub fn read_page_direct(data: &Path, page_no: u64) -> io::Result<Vec<u8>> {
    let mut file = std::fs::File::open(data)?;
    file.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))?;
    let mut buf = vec![0u8; PAGE_SIZE];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lt_store_redo_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn recovery_replays_images_in_order() {
        let dir = tmpdir("replay");
        let redo = dir.join("redo.wal");
        let data = dir.join("data.pages");
        let mut log = RedoLog::open(&redo).unwrap();
        let mut img1 = vec![0u8; PAGE_SIZE];
        page::init(&mut img1, page::PageKind::Heap, 1);
        page::insert(&mut img1, b"first").unwrap();
        page::seal(&mut img1);
        log.log_page(0, &img1).unwrap();
        // A second image of the same page must win.
        let mut img2 = img1.clone();
        page::insert(&mut img2, b"second").unwrap();
        page::seal(&mut img2);
        log.log_page(0, &img2).unwrap();
        log.sync().unwrap();
        assert_eq!(log.appends(), 2);

        let applied = recover(&redo, &data).unwrap();
        assert_eq!(applied, 2);
        let got = read_page_direct(&data, 0).unwrap();
        assert!(page::verify(&got));
        assert_eq!(page::count(&got), 2);
        assert_eq!(page::get(&got, 1), b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_the_log() {
        let dir = tmpdir("ckpt");
        let redo = dir.join("redo.wal");
        let data = dir.join("data.pages");
        let mut log = RedoLog::open(&redo).unwrap();
        let img = vec![0u8; PAGE_SIZE];
        log.log_page(5, &img).unwrap();
        log.checkpoint().unwrap();
        assert_eq!(recover(&redo, &data).unwrap(), 0);
        // The log is usable again after the checkpoint.
        log.log_page(6, &img).unwrap();
        log.sync().unwrap();
        assert_eq!(recover(&redo, &data).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
