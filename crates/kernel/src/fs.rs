//! A miniature in-memory filesystem and pipes.
//!
//! Enough VFS behaviour for the LMBench-style microbenchmarks (`open`,
//! `close`, `read`, `write`, `stat`, `fstat`, pipe latency) and for the
//! NGINX-style static-file serving workload. File contents are held as real
//! bytes so the LTP-style regression suite can diff observable behaviour
//! between kernel configurations.

use std::collections::HashMap;

use ptstore_core::MIB;
use serde::{Deserialize, Serialize};

use crate::error::KernelError;

/// The most bytes a ramfs file may hold. File contents live on the host, so
/// a write that would grow a file past this fails instead of asking the
/// host for whatever length the caller names.
pub const MAX_FILE_SIZE: u64 = 64 * MIB;

/// File metadata returned by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileStat {
    /// Size in bytes.
    pub size: u64,
    /// Mode bits (plain rw-r--r-- default).
    pub mode: u32,
    /// Inode number.
    pub ino: u64,
}

/// One ramfs file.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct FileNode {
    data: Vec<u8>,
    mode: u32,
    ino: u64,
}

/// The in-memory filesystem.
#[derive(Debug, Clone, Default)]
pub struct RamFs {
    files: HashMap<String, FileNode>,
    next_ino: u64,
}

impl RamFs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Self {
            files: HashMap::new(),
            next_ino: 2,
        }
    }

    /// Creates (or truncates) a file with the given content.
    pub fn create(&mut self, name: &str, data: Vec<u8>) {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.files.insert(
            name.to_string(),
            FileNode {
                data,
                mode: 0o644,
                ino,
            },
        );
    }

    /// True when the file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Removes a file.
    pub fn unlink(&mut self, name: &str) -> bool {
        self.files.remove(name).is_some()
    }

    /// `stat` metadata.
    pub fn stat(&self, name: &str) -> Option<FileStat> {
        self.files.get(name).map(|f| FileStat {
            size: f.data.len() as u64,
            mode: f.mode,
            ino: f.ino,
        })
    }

    /// Reads up to `len` bytes at `offset`; returns the bytes read.
    pub fn read(&self, name: &str, offset: u64, len: u64) -> Option<&[u8]> {
        let f = self.files.get(name)?;
        let size = f.data.len() as u64;
        let start = offset.min(size);
        let end = offset.checked_add(len).map_or(size, |end| end.min(size));
        Some(&f.data[start as usize..end as usize])
    }

    /// Writes `data` at `offset`, extending the file as needed; returns the
    /// new size.
    ///
    /// # Errors
    /// [`KernelError::NoSuchFile`] for a missing file, and
    /// [`KernelError::OutOfMemory`] when the file would grow past
    /// [`MAX_FILE_SIZE`]; either leaves the file as it was.
    pub fn write(
        &mut self,
        name: &str,
        offset: u64,
        data: impl ExactSizeIterator<Item = u8>,
    ) -> Result<u64, KernelError> {
        let f = self.files.get_mut(name).ok_or(KernelError::NoSuchFile)?;
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= MAX_FILE_SIZE)
            .ok_or(KernelError::OutOfMemory)?;
        let (start, end) = (offset as usize, end as usize);
        if f.data.len() < end {
            f.data.resize(end, 0);
        }
        for (byte, b) in f.data[start..end].iter_mut().zip(data) {
            *byte = b;
        }
        Ok(f.data.len() as u64)
    }
}

/// Pipe capacity (bytes), as in Linux.
pub const PIPE_CAPACITY: usize = 65536;

/// One pipe: a bounded byte FIFO with reader/writer liveness bits.
#[derive(Debug, Clone, Default)]
pub struct Pipe {
    buf: std::collections::VecDeque<u8>,
    /// Number of live read ends.
    pub readers: u32,
    /// Number of live write ends.
    pub writers: u32,
}

impl Pipe {
    /// A fresh pipe with one reader and one writer.
    pub fn new() -> Self {
        Self {
            buf: std::collections::VecDeque::new(),
            readers: 1,
            writers: 1,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes up to capacity; returns bytes accepted (0 = would block).
    pub fn write(&mut self, data: impl ExactSizeIterator<Item = u8>) -> usize {
        let n = (PIPE_CAPACITY - self.buf.len()).min(data.len());
        self.buf.extend(data.take(n));
        n
    }

    /// Takes up to `len` bytes off the front (none = would block or EOF).
    /// Dropping the iterator unread still takes them.
    pub fn read(&mut self, len: usize) -> std::collections::vec_deque::Drain<'_, u8> {
        let n = len.min(self.buf.len());
        self.buf.drain(..n)
    }

    /// EOF condition: no writers and drained.
    pub fn at_eof(&self) -> bool {
        self.writers == 0 && self.buf.is_empty()
    }
}

/// The pipe table.
#[derive(Debug, Clone, Default)]
pub struct PipeTable {
    pipes: HashMap<u32, Pipe>,
    next_id: u32,
}

impl PipeTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a pipe, returning its id.
    pub fn create(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.pipes.insert(id, Pipe::new());
        id
    }

    /// Looks up a pipe.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut Pipe> {
        self.pipes.get_mut(&id)
    }

    /// Drops an end; removes the pipe when both sides are gone.
    pub fn close_end(&mut self, id: u32, write_end: bool) {
        let remove = if let Some(p) = self.pipes.get_mut(&id) {
            if write_end {
                p.writers = p.writers.saturating_sub(1);
            } else {
                p.readers = p.readers.saturating_sub(1);
            }
            p.readers == 0 && p.writers == 0
        } else {
            false
        };
        if remove {
            self.pipes.remove(&id);
        }
    }

    /// Duplicates an end (fork inherits fds).
    pub fn dup_end(&mut self, id: u32, write_end: bool) {
        if let Some(p) = self.pipes.get_mut(&id) {
            if write_end {
                p.writers += 1;
            } else {
                p.readers += 1;
            }
        }
    }

    /// Live pipe count.
    pub fn len(&self) -> usize {
        self.pipes.len()
    }

    /// True when no pipes exist.
    pub fn is_empty(&self) -> bool {
        self.pipes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramfs_crud() {
        let mut fs = RamFs::new();
        fs.create("/etc/passwd", b"root:x:0:0".to_vec());
        assert!(fs.exists("/etc/passwd"));
        let st = fs.stat("/etc/passwd").unwrap();
        assert_eq!(st.size, 10);
        assert_eq!(fs.read("/etc/passwd", 5, 100).unwrap(), b"x:0:0");
        fs.write("/etc/passwd", 10, b"!".iter().copied()).unwrap();
        assert_eq!(fs.stat("/etc/passwd").unwrap().size, 11);
        assert!(fs.unlink("/etc/passwd"));
        assert!(!fs.exists("/etc/passwd"));
        assert_eq!(fs.stat("/nope"), None);
    }

    #[test]
    fn ramfs_read_past_end() {
        let mut fs = RamFs::new();
        fs.create("f", b"abc".to_vec());
        assert_eq!(fs.read("f", 2, 10).unwrap(), b"c");
        assert_eq!(fs.read("f", 5, 10).unwrap(), b"");
    }

    #[test]
    fn inodes_are_unique() {
        let mut fs = RamFs::new();
        fs.create("a", vec![]);
        fs.create("b", vec![]);
        assert_ne!(fs.stat("a").unwrap().ino, fs.stat("b").unwrap().ino);
    }

    #[test]
    fn pipe_fifo_order_and_capacity() {
        let mut p = Pipe::new();
        assert_eq!(p.write(b"hello".iter().copied()), 5);
        assert_eq!(p.read(2).collect::<Vec<u8>>(), b"he");
        assert_eq!(p.read(10).collect::<Vec<u8>>(), b"llo");
        assert!(p.is_empty());
        // Capacity bound.
        let big = vec![0u8; PIPE_CAPACITY + 10];
        assert_eq!(p.write(big.iter().copied()), PIPE_CAPACITY);
        assert_eq!(
            p.write(b"x".iter().copied()),
            0,
            "full pipe accepts nothing"
        );
    }

    #[test]
    fn pipe_table_lifecycle() {
        let mut t = PipeTable::new();
        let id = t.create();
        assert_eq!(t.len(), 1);
        t.dup_end(id, true); // forked writer
        t.close_end(id, true);
        t.close_end(id, false);
        assert_eq!(t.len(), 1, "one writer still alive");
        t.close_end(id, true);
        assert!(t.is_empty());
    }

    #[test]
    fn pipe_eof() {
        let mut p = Pipe::new();
        p.write(b"x".iter().copied());
        p.writers = 0;
        assert!(!p.at_eof());
        p.read(1);
        assert!(p.at_eof());
    }
}
