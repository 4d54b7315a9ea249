//! `paper_cs`: the paper's client/server configuration and page-sized tests.
//!
//! A remote client over the simulated 10 Mbit/s Ethernet works on the
//! paper's 25 MB file through the Berkeley pool of 300 × 8 KB frames
//! (2.4 MB), so the file is about ten times the cache. Each round flushes
//! every cache, as the paper did before each test, then runs scaled-down
//! versions of its page-sized tests: random 1-byte reads, sequential and
//! random 8 KB reads, and random 8 KB writes, each in its own committed
//! transaction.

use inversion::{CreateMode, Fd, RemoteClient, SeekWhence, CHUNK_SIZE};

use crate::record::{Call, Recorder, Txn};
use crate::rig::Rig;
use crate::rng::{payload, Rng};
use crate::workload::{check_bytes, read_at, retry, Workload};

/// The paper's benchmark file.
const FILE_BYTES: u64 = 25 << 20;
/// Inversion's page-sized unit: one chunk.
const PAGE: usize = CHUNK_SIZE;
/// Whole pages in the file (the last, partial chunk is never a target).
const PAGES: u64 = FILE_BYTES / PAGE as u64;
/// Pages per setup transaction. A single 25 MB transaction exhausts the
/// pool on every run, so setup writes in bounded transactions and retries
/// a batch that fails; every failed call counts in `failed_op_ratio`.
const SETUP_PAGES_PER_TXN: u64 = 32;

const BYTE_READS: usize = 8;
const SEQ_PAGES: u64 = 16;
const RAND_PAGES: usize = 16;
const WRITES: usize = 8;
/// Rounds generated before timing; the timed loop cycles through them.
const PLAN_ROUNDS: usize = 2048;

/// One flush-then-test round, generated from the seed.
struct Round {
    byte_offsets: [u64; BYTE_READS],
    seq_first_page: u64,
    rand_pages: [u64; RAND_PAGES],
    /// (page, payload seed) per write transaction.
    writes: [(u64, u64); WRITES],
}

pub struct PaperCs {
    rig: Rig,
    client: RemoteClient,
    fd: Fd,
    /// Every committed byte of the file.
    shadow: Vec<u8>,
    plan: Vec<Round>,
    next: usize,
    op: u64,
}

impl Workload for PaperCs {
    const SETUP_REPS: usize = 7;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<PaperCs, String> {
        let mut rng = Rng::new(seed);
        let plan = (0..PLAN_ROUNDS)
            .map(|_| Round {
                byte_offsets: std::array::from_fn(|_| rng.below(FILE_BYTES)),
                seq_first_page: rng.below(PAGES - SEQ_PAGES),
                rand_pages: std::array::from_fn(|_| rng.below(PAGES)),
                writes: std::array::from_fn(|_| (rng.below(PAGES), rng.next_u64())),
            })
            .collect();
        let mut shadow = vec![0u8; FILE_BYTES as usize];
        rng.fill(&mut shadow);

        let rig = Rig::paper().map_err(|e| format!("testbed: {e}"))?;
        let mut c = rig.tb.remote_client();
        let fd = retry(rec, "create /bench", |rec| {
            rec.call(&rig, Call::Begin, || c.p_begin())?;
            let fd = rec.call(&rig, Call::Creat, || {
                c.p_creat("/bench", CreateMode::default())
            });
            let committed = fd.and_then(|_| rec.call(&rig, Call::Commit, || c.p_commit()));
            if committed.is_none() {
                abort(&mut c);
            }
            committed.and(fd)
        })?;
        for first in (0..FILE_BYTES.div_ceil(PAGE as u64)).step_by(SETUP_PAGES_PER_TXN as usize) {
            let start = first * PAGE as u64;
            let end = ((first + SETUP_PAGES_PER_TXN) * PAGE as u64).min(FILE_BYTES);
            retry(rec, "populate /bench", |rec| {
                rec.call(&rig, Call::Begin, || c.p_begin())?;
                let wrote = write_range(
                    rec,
                    &rig,
                    &mut c,
                    fd,
                    start,
                    &shadow[start as usize..end as usize],
                );
                let committed = wrote.and_then(|_| rec.call(&rig, Call::Commit, || c.p_commit()));
                if committed.is_none() {
                    abort(&mut c);
                }
                committed
            })?;
        }
        Ok(PaperCs {
            rig,
            client: c,
            fd,
            shadow,
            plan,
            next: 0,
            op: 0,
        })
    }

    fn rig(&self) -> &Rig {
        &self.rig
    }

    /// One round: flush every cache, then the page-sized tests.
    fn block(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let PaperCs {
            rig,
            client: c,
            fd,
            shadow,
            plan,
            next,
            op,
        } = self;
        let (fd, round) = (*fd, &plan[*next % plan.len()]);
        *next += 1;
        let mut next_op = || {
            *op += 1;
            *op
        };

        // The flush fails while the checkpointer has pages pinned; a retry
        // goes through.
        rec.set_parent(next_op());
        rec.op(|rec| {
            rec.call(rig, Call::Flush, || {
                rig.tb.fs.db().flush_caches().map_err(Into::into)
            })
        });

        let mut byte = [0u8; 1];
        for &off in &round.byte_offsets {
            rec.set_parent(next_op());
            read_at(rec, rig, c, fd, off, &mut byte, shadow)?;
        }

        let mut page = vec![0u8; PAGE];
        rec.set_parent(next_op());
        let mut off = round.seq_first_page * PAGE as u64;
        // One seek, then each page read is an operation of its own; after
        // a failed read the offset is unknown, so its retry seeks again.
        let mut positioned = false;
        for _ in 0..SEQ_PAGES {
            let read = rec.op(|rec| {
                if !positioned {
                    rec.call(rig, Call::Lseek, || {
                        c.p_lseek(fd, off as i64, SeekWhence::Set)
                    })?;
                }
                let n = rec.call(rig, Call::Read, || c.p_read(fd, &mut page));
                positioned = n.is_some();
                n
            });
            let Some(n) = read else {
                break;
            };
            check_bytes(shadow, off, &page[..n], PAGE)?;
            off += n as u64;
        }

        for &p in &round.rand_pages {
            rec.set_parent(next_op());
            read_at(rec, rig, c, fd, p * PAGE as u64, &mut page, shadow)?;
        }

        for &(p, seed) in &round.writes {
            rec.set_parent(next_op());
            let off = p * PAGE as u64;
            let data = payload(seed, PAGE);
            let committed = rec.op(|rec| {
                let start = rig.tb.clock.now().as_nanos();
                let done = rec
                    .call(rig, Call::Begin, || c.p_begin())
                    .and_then(|_| write_range(rec, rig, c, fd, off, &data))
                    .and_then(|_| rec.call(rig, Call::Commit, || c.p_commit()));
                if done.is_none() {
                    abort(c);
                }
                done.map(|()| start)
            });
            if let Some(start) = committed {
                shadow[off as usize..off as usize + PAGE].copy_from_slice(&data);
                rec.txn(rig, Txn::Write, start);
            }
        }
        Ok(())
    }
}

/// Seeks to `off` and writes `data` page by page inside the open
/// transaction.
fn write_range(
    rec: &mut Recorder,
    rig: &Rig,
    c: &mut RemoteClient,
    fd: Fd,
    off: u64,
    data: &[u8],
) -> Option<()> {
    rec.call(rig, Call::Lseek, || {
        c.p_lseek(fd, off as i64, SeekWhence::Set)
    })?;
    for page in data.chunks(PAGE) {
        rec.call(rig, Call::Write, || c.p_write(fd, page))?;
    }
    Some(())
}

/// Ends a transaction that failed part-way. When the failure was the
/// commit itself the server has already aborted, and this abort reports
/// that no transaction is open; either way none is open afterwards.
fn abort(c: &mut RemoteClient) {
    let _ = c.p_abort();
}
