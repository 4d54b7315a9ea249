//! Timing, failure accounting and tracing around every file-API call.
//!
//! Every call a workload makes goes through [`Recorder::call`]. Untraced,
//! that costs two host-clock and two virtual-clock reads. In a traced
//! block it also records a [`Span`] and a counter [`Sample`] on each side
//! of the call, adding the counters that moved to the call's class.

use std::time::Instant;

use inversion::{InvError, InvResult};

use crate::rig::{Rig, Sample};
use crate::workload::Workload;

macro_rules! calls {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// A file-API call class (plus the harness's cache flush).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Call {
            $($variant,)*
        }

        impl Call {
            pub const ALL: &'static [Call] = &[$(Call::$variant,)*];

            pub fn name(self) -> &'static str {
                match self {
                    $(Call::$variant => $name,)*
                }
            }
        }
    };
}

calls!(
    Begin => "p_begin",
    Commit => "p_commit",
    Abort => "p_abort",
    Creat => "p_creat",
    Open => "p_open",
    Close => "p_close",
    Read => "p_read",
    Write => "p_write",
    Lseek => "p_lseek",
    Stat => "p_stat",
    Mkdir => "p_mkdir",
    Readdir => "p_readdir",
    Unlink => "p_unlink",
    Flush => "flush_caches",
);

const NCALLS: usize = Call::ALL.len();

/// Attempts at one workload operation before it counts as failed. The
/// buffer pool's exhaustion is transient (the checkpointer holds the pins),
/// so a retry after an abort goes through.
pub const OP_TRIES: usize = 50;

/// A committed transaction class, timed begin to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Txn {
    /// A data write (`paper_cs`).
    Write = 0,
    /// A file creation with its first write (`namespace`).
    Create = 1,
}

/// One traced call. Times are nanoseconds from the start of the run
/// (host) and from the testbed's epoch (virtual).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: Call,
    /// The workload operation (or transaction) the call belongs to.
    pub parent: u64,
    pub host_start: u64,
    pub host_end: u64,
    pub virt_start: u64,
    pub virt_end: u64,
    pub ok: bool,
}

/// Calls completed, and the host time taken, in one kind of block.
#[derive(Debug, Default, Clone, Copy)]
pub struct Blocks {
    pub calls: u64,
    pub host_s: f64,
    /// The part of `host_s` spent in calls that failed.
    pub failed_host_s: f64,
}

impl Blocks {
    /// Completed calls per host second.
    pub fn rate(&self) -> Option<f64> {
        (self.host_s > 0.0).then(|| self.calls as f64 / self.host_s)
    }
}

/// Everything measured about a run's calls.
pub struct Recorder {
    host0: Instant,
    /// Latency samples are kept only in the timed phase, not in setup.
    measuring: bool,
    tracing: bool,
    parent: u64,
    /// Workload operations started, and those still failing after
    /// [`OP_TRIES`] attempts, setup included.
    pub ops: u64,
    pub ops_failed: u64,
    /// Operations that needed more than one attempt.
    pub ops_retried: u64,
    /// Calls attempted and failed, setup retries included.
    pub attempted: u64,
    pub failed: u64,
    pub fail_buffer_exhausted: u64,
    pub fail_other: u64,
    /// Host seconds spent in calls that failed.
    pub failed_host_s: f64,
    /// Per call class: host and virtual nanoseconds of each successful call.
    pub host_ns: Vec<Vec<u64>>,
    pub virt_ns: Vec<Vec<u64>>,
    /// Per [`Txn`] class: virtual nanoseconds, begin to commit.
    pub txn_virt_ns: [Vec<u64>; 2],
    /// Completed calls and host time in untraced and traced blocks.
    pub untraced: Blocks,
    pub traced: Blocks,
    /// Counters moved inside traced calls, per call class, and the number
    /// of traced calls of that class.
    pub class_delta: Vec<Sample>,
    pub class_calls: Vec<u64>,
    /// Counters moved over all traced blocks.
    pub traced_delta: Sample,
    pub spans: Vec<Span>,
    first_errors: Vec<String>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            host0: Instant::now(),
            measuring: false,
            tracing: false,
            parent: 0,
            ops: 0,
            ops_failed: 0,
            ops_retried: 0,
            attempted: 0,
            failed: 0,
            fail_buffer_exhausted: 0,
            fail_other: 0,
            failed_host_s: 0.0,
            host_ns: vec![Vec::new(); NCALLS],
            virt_ns: vec![Vec::new(); NCALLS],
            txn_virt_ns: [Vec::new(), Vec::new()],
            untraced: Blocks::default(),
            traced: Blocks::default(),
            class_delta: vec![Sample::default(); NCALLS],
            class_calls: vec![0; NCALLS],
            traced_delta: Sample::default(),
            spans: Vec::new(),
            first_errors: Vec::new(),
        }
    }

    /// Starts the timed phase: from here on latencies are kept.
    pub fn start_measuring(&mut self) {
        self.measuring = true;
    }

    /// Names the workload operation subsequent spans belong to.
    pub fn set_parent(&mut self, parent: u64) {
        self.parent = parent;
    }

    /// Runs one block of workload operations, traced or not, and charges
    /// its calls and host time to that kind of block.
    pub fn block<W: Workload>(&mut self, w: &mut W, traced: bool) -> Result<(), String> {
        self.tracing = traced;
        let before = traced.then(|| w.rig().sample());
        let ok0 = self.completed();
        let failed0 = self.failed_host_s;
        let t0 = Instant::now();
        let out = w.block(self);
        let host_s = t0.elapsed().as_secs_f64();
        let calls = self.completed() - ok0;
        let kind = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        kind.calls += calls;
        kind.host_s += host_s;
        kind.failed_host_s += self.failed_host_s - failed0;
        if let Some(before) = before {
            self.traced_delta.add(&w.rig().sample().since(&before));
        }
        self.tracing = false;
        out
    }

    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Runs one workload operation: `attempt` makes its calls and returns
    /// `None` when one of them failed, having ended any transaction it
    /// opened. A failed attempt is retried, up to [`OP_TRIES`] in all;
    /// every failed call stays counted by kind, so a retried operation
    /// shows in `failed_op_ratio` and `fail.*` but not in `ops_failed`.
    pub fn op<T>(&mut self, mut attempt: impl FnMut(&mut Recorder) -> Option<T>) -> Option<T> {
        self.ops += 1;
        for i in 0..OP_TRIES {
            if let Some(v) = attempt(self) {
                self.ops_retried += u64::from(i > 0);
                return Some(v);
            }
        }
        self.ops_retried += 1;
        self.ops_failed += 1;
        None
    }

    /// Makes one call, timing it in host and virtual time. A failure is
    /// counted by kind and returns `None`; the operation making the call
    /// aborts any open transaction and tries again (see [`Recorder::op`]).
    pub fn call<T>(
        &mut self,
        rig: &Rig,
        call: Call,
        f: impl FnOnce() -> InvResult<T>,
    ) -> Option<T> {
        self.attempted += 1;
        let before = self.tracing.then(|| rig.sample());
        let h0 = Instant::now();
        let v0 = rig.tb.clock.now().as_nanos();
        let out = f();
        let v1 = rig.tb.clock.now().as_nanos();
        let h1 = Instant::now();
        let ok = out.is_ok();
        if let Some(before) = before {
            let i = call as usize;
            self.class_delta[i].add(&rig.sample().since(&before));
            self.class_calls[i] += 1;
            self.spans.push(Span {
                call,
                parent: self.parent,
                host_start: h0.duration_since(self.host0).as_nanos() as u64,
                host_end: h1.duration_since(self.host0).as_nanos() as u64,
                virt_start: v0,
                virt_end: v1,
                ok,
            });
        }
        match out {
            Ok(v) => {
                if self.measuring {
                    let i = call as usize;
                    self.host_ns[i].push(h1.duration_since(h0).as_nanos() as u64);
                    self.virt_ns[i].push(v1.saturating_sub(v0));
                }
                Some(v)
            }
            Err(e) => {
                self.failed_host_s += h1.duration_since(h0).as_secs_f64();
                self.fail(call, &e);
                None
            }
        }
    }

    fn fail(&mut self, call: Call, e: &InvError) {
        self.failed += 1;
        let msg = format!("{}: {e}", call.name());
        if msg.contains("buffer pool exhausted") {
            self.fail_buffer_exhausted += 1;
        } else {
            self.fail_other += 1;
        }
        if self.first_errors.len() < 5 && !self.first_errors.contains(&msg) {
            self.first_errors.push(msg);
        }
    }

    /// Records a committed transaction that began at virtual `start_ns`.
    pub fn txn(&mut self, rig: &Rig, kind: Txn, start_ns: u64) {
        if self.measuring {
            let took = rig.tb.clock.now().as_nanos().saturating_sub(start_ns);
            self.txn_virt_ns[kind as usize].push(took);
        }
    }

    /// The first few distinct failure messages, for the run log.
    pub fn first_errors(&self) -> &[String] {
        &self.first_errors
    }
}

/// The `p`-th percentile (0 < `p` <= 100) by nearest rank; `None` when
/// there are no samples.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}
