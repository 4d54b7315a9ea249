//! What every workload provides, and the helpers they share.

use inversion::{Fd, InvClient, InvResult, RemoteClient, SeekWhence};

use crate::record::{Call, Recorder, OP_TRIES};
use crate::rig::Rig;

/// A workload: a testbed built and populated from the seed, then driven
/// one block of operations at a time by a single client in a closed loop.
pub trait Workload: Sized {
    /// Set-ups per run; the median is reported as `setup_s`. Cheap
    /// set-ups repeat more, to steady the median.
    const SETUP_REPS: usize;

    /// Builds the testbed, generates the operation plan from `seed`, and
    /// populates (and for some workloads warms) the file system. An error
    /// means setup could not complete even with retries.
    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String>;

    fn rig(&self) -> &Rig;

    /// Runs the next block of the plan. An error is an oracle mismatch:
    /// the file system returned something other than what was committed.
    fn block(&mut self, rec: &mut Recorder) -> Result<(), String>;
}

/// Runs a set-up step as one workload operation (see [`Recorder::op`]);
/// set-up cannot go on without it, so an operation that still fails after
/// every retry ends the run.
pub fn retry<T>(
    rec: &mut Recorder,
    what: &str,
    attempt: impl FnMut(&mut Recorder) -> Option<T>,
) -> Result<T, String> {
    rec.op(attempt).ok_or_else(|| {
        format!(
            "setup step {what:?} failed {OP_TRIES} times; first errors: {:?}",
            rec.first_errors()
        )
    })
}

/// Checks bytes read at `off` against the shadow copy: a read of `want`
/// bytes must return exactly what was committed, short only at end of file.
pub fn check_bytes(shadow: &[u8], off: u64, got: &[u8], want: usize) -> Result<(), String> {
    let start = usize::try_from(off).map_err(|_| format!("offset {off} out of range"))?;
    let end = start.saturating_add(want).min(shadow.len());
    let expect = shadow.get(start..end).unwrap_or(&[]);
    if got == expect {
        Ok(())
    } else {
        Err(format!(
            "read of {want} bytes at offset {off} returned {} bytes that differ from the {} committed",
            got.len(),
            expect.len()
        ))
    }
}

/// The positioned read both clients offer, so `read_at` serves both.
pub trait Reader {
    fn seek(&mut self, fd: Fd, off: u64) -> InvResult<u64>;
    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> InvResult<usize>;
}

impl Reader for RemoteClient {
    fn seek(&mut self, fd: Fd, off: u64) -> InvResult<u64> {
        self.p_lseek(fd, off as i64, SeekWhence::Set)
    }

    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> InvResult<usize> {
        self.p_read(fd, buf)
    }
}

impl Reader for InvClient {
    fn seek(&mut self, fd: Fd, off: u64) -> InvResult<u64> {
        self.p_lseek(fd, off as i64, SeekWhence::Set)
    }

    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> InvResult<usize> {
        self.p_read(fd, buf)
    }
}

/// Seeks to `off` and reads `buf.len()` bytes as one operation, checking
/// them against the shadow copy of the file.
pub fn read_at(
    rec: &mut Recorder,
    rig: &Rig,
    c: &mut impl Reader,
    fd: Fd,
    off: u64,
    buf: &mut [u8],
    shadow: &[u8],
) -> Result<(), String> {
    let read = rec.op(|rec| {
        rec.call(rig, Call::Lseek, || c.seek(fd, off))?;
        rec.call(rig, Call::Read, || c.read(fd, buf))
    });
    match read {
        Some(n) => check_bytes(shadow, off, &buf[..n], buf.len()),
        None => Ok(()),
    }
}
