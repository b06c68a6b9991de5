//! Minimal memory-mapping support for the zero-copy trace reader.
//!
//! The replay path wants the trace file paged in lazily by the kernel
//! instead of slurped through `read(2)` into a heap buffer, so huge
//! recorded traces replay at memory speed without a load phase. We bind
//! the three syscalls we need (`mmap`, `munmap`, `madvise`) directly —
//! the workspace vendors no `libc` crate, but the symbols are in every
//! libc the std links against on Unix.
//!
//! Non-Unix builds fall back to reading the file into an owned buffer:
//! same bytes, same API, no mapping.

#![allow(unsafe_code)]

use std::fs::File;
use std::io;

/// Page-in advice forwarded to `madvise(2)`. Purely a performance hint;
/// failures are ignored (older kernels reject some advice on
/// file-backed mappings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Expect sequential reads: aggressive readahead.
    Sequential,
    /// Expect access soon: start paging in now.
    WillNeed,
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_WILLNEED: c_int = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

/// A read-only memory map of an entire file (or, off Unix, an owned
/// copy of its contents — callers cannot tell the difference).
#[derive(Debug)]
pub struct Mmap {
    #[cfg(unix)]
    ptr: *mut u8,
    #[cfg(unix)]
    len: usize,
    #[cfg(not(unix))]
    buf: Vec<u8>,
}

// SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) for its
// whole lifetime, so shared references can move across threads freely.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only in its entirety.
    ///
    /// # Errors
    ///
    /// Propagates metadata/`mmap` failures from the OS.
    #[cfg(unix)]
    pub fn map_file(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;

        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            // mmap(2) rejects zero-length maps; an empty file needs no
            // mapping to present an empty slice.
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: fd is a valid open file for the duration of the call;
        // a fresh PROT_READ/MAP_PRIVATE mapping aliases nothing we hold.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr.cast(),
            len,
        })
    }

    /// Fallback for targets without `mmap`: reads the file into memory.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    #[cfg(not(unix))]
    pub fn map_file(file: &File) -> io::Result<Mmap> {
        use std::io::Read;

        let mut buf = Vec::new();
        let mut f = file;
        f.read_to_end(&mut buf)?;
        Ok(Mmap { buf })
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        #[cfg(unix)]
        {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: [ptr, ptr+len) is a live PROT_READ mapping owned
            // by self; nothing mutates it (MAP_PRIVATE isolates us from
            // concurrent writers of the underlying file, bar the usual
            // mmap coherence caveat, which read-only replay accepts).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
        #[cfg(not(unix))]
        {
            &self.buf
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forwards paging advice to the kernel (no-op off Unix or on
    /// kernels that reject the advice).
    pub fn advise(&self, advice: Advice) {
        #[cfg(unix)]
        if self.len > 0 {
            let adv = match advice {
                Advice::Sequential => sys::MADV_SEQUENTIAL,
                Advice::WillNeed => sys::MADV_WILLNEED,
            };
            // SAFETY: [ptr, ptr+len) is a live mapping owned by self;
            // madvise does not invalidate or mutate its contents for
            // these advice values, and an error return is ignored.
            unsafe {
                let _ = sys::madvise(self.ptr.cast(), self.len, adv);
            }
        }
        #[cfg(not(unix))]
        let _ = advice;
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: ptr/len came from a successful mmap that nothing
            // else unmapped; all slices borrowed from self are gone.
            unsafe {
                let _ = sys::munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hpage-mmap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        let payload = b"zero-copy replay".repeat(1000);
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let map = Mmap::map_file(&File::open(&path).unwrap()).unwrap();
        map.advise(Advice::Sequential);
        map.advise(Advice::WillNeed);
        assert_eq!(map.as_slice(), &payload[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let map = Mmap::map_file(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), &[] as &[u8]);
        std::fs::remove_file(&path).unwrap();
    }
}
