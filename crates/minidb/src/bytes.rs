//! Corrupt-tolerant little-endian byte readers for on-disk decoders.
//!
//! Every on-disk structure (page headers, slot arrays, tuple headers, the
//! transaction status log, the relation map) is decoded through these
//! helpers instead of `slice[a..b].try_into().unwrap()`. A short or
//! out-of-range slice yields [`DbError::Corrupt`] rather than a panic, so
//! structurally damaged input surfaces as an error the [`crate::check`]
//! verifier can report.

use crate::error::{DbError, DbResult};

fn short(what: &str, have: usize, off: usize, want: usize) -> DbError {
    DbError::Corrupt(format!(
        "short {what}: need {want} bytes at offset {off}, have {have}"
    ))
}

/// Reads a little-endian `u16` at `off`, or `Err(Corrupt)` if out of range.
pub(crate) fn le_u16(b: &[u8], off: usize) -> DbResult<u16> {
    match b.get(off..off.wrapping_add(2)) {
        Some(s) => {
            let mut a = [0u8; 2];
            a.copy_from_slice(s);
            Ok(u16::from_le_bytes(a))
        }
        None => Err(short("u16", b.len(), off, 2)),
    }
}

/// Reads a little-endian `u32` at `off`, or `Err(Corrupt)` if out of range.
pub(crate) fn le_u32(b: &[u8], off: usize) -> DbResult<u32> {
    match b.get(off..off.wrapping_add(4)) {
        Some(s) => {
            let mut a = [0u8; 4];
            a.copy_from_slice(s);
            Ok(u32::from_le_bytes(a))
        }
        None => Err(short("u32", b.len(), off, 4)),
    }
}

/// Reads a little-endian `u64` at `off`, or `Err(Corrupt)` if out of range.
pub(crate) fn le_u64(b: &[u8], off: usize) -> DbResult<u64> {
    match b.get(off..off.wrapping_add(8)) {
        Some(s) => {
            let mut a = [0u8; 8];
            a.copy_from_slice(s);
            Ok(u64::from_le_bytes(a))
        }
        None => Err(short("u64", b.len(), off, 8)),
    }
}

/// FNV-1a over `data`: the checksum of the log, the metadata journal and
/// the wire protocol.
pub(crate) fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A bounds-checked little-endian reader over a byte string: a read past
/// the end is `Corrupt`, never a panic.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        let end = self.pos.checked_add(n);
        match end.and_then(|e| self.buf.get(self.pos..e)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(short("field", self.buf.len(), self.pos, n)),
        }
    }

    pub(crate) fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> DbResult<u16> {
        le_u16(self.take(2)?, 0)
    }

    pub(crate) fn u32(&mut self) -> DbResult<u32> {
        le_u32(self.take(4)?, 0)
    }

    pub(crate) fn u64(&mut self) -> DbResult<u64> {
        le_u64(self.take(8)?, 0)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> DbResult<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DbError::Corrupt("bad utf8 in metadata".into()))
    }

    /// Whether every byte has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_range() {
        let b = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        assert_eq!(le_u16(&b, 0).unwrap(), 0x0201);
        assert_eq!(le_u32(&b, 1).unwrap(), 0x0504_0302);
        assert_eq!(le_u64(&b, 1).unwrap(), 0x0908_0706_0504_0302);
    }

    #[test]
    fn short_reads_are_corrupt_not_panics() {
        let b = [0u8; 4];
        assert!(le_u16(&b, 3).is_err());
        assert!(le_u32(&b, 1).is_err());
        assert!(le_u64(&b, 0).is_err());
        assert!(le_u64(&b, usize::MAX).is_err(), "offset overflow guarded");
    }
}
