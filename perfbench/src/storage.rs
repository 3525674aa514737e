//! The storage the durable workload's log writes through: the real
//! filesystem, with `fsync` turned into a counted no-op.
//!
//! On the 2-core host the figures are recorded on, one `fdatasync` takes
//! 0.2 ms at the median but 1–10 ms whenever the shared disk is busy,
//! and that share moves from minute to minute; with 40–400 group commits
//! a second blocking an event loop each, every latency figure of the
//! workload then follows the disk rather than the program (request p90
//! measured at 0.1–1.2 ms across runs of the same build). The log still
//! seals, chains, writes and renames through the real filesystem, the
//! store still asks for every sync (counted as `core.wal.fsyncs_per_op`),
//! recovery still replays what was written, and traced runs time real
//! group commits with `fsync` separately (`core.wal.flush_ms`).

use sgx_sim::storage::{OpenMode, RealFs, StorageFile, StorageFs};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

#[derive(Debug)]
pub struct NoSyncFs;

struct NoSyncFile(Box<dyn StorageFile>);

impl Write for NoSyncFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl StorageFile for NoSyncFile {
    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl StorageFs for NoSyncFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(NoSyncFile(RealFs.open(path, mode)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.list_dir(dir)
    }
}
