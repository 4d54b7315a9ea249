//! The metadata journal: how the catalog and the device block maps reach
//! stable storage.
//!
//! Every Inversion file is a relation plus a chunk index, so a file create
//! is DDL. Rewriting a whole catalog or block-map image per DDL statement
//! makes a create cost O(namespace); the journal makes it O(change). A
//! region of blocks holds:
//!
//! ```text
//! [control 0][control 1][image slot 0 ...][image slot 1 ...][log ...]
//! ```
//!
//! * **Image slots.** A full image of the structure, in one of two slots.
//! * **Control blocks.** Each names an epoch, the slot holding that
//!   epoch's image, and the image's length and checksum. Epoch `e` is
//!   written to control block `e % 2`, so a torn control write leaves the
//!   previous epoch's control intact. Formatting starts past the newest
//!   epoch a previous journal in the region reached, so none of that
//!   journal's records can pass for ours.
//! * **Log.** A byte stream of delta records after the image, packed into
//!   blocks: `[len u32][epoch u64][seq u64][payload][fnv1a u32]`. A persist
//!   appends one record, rewriting only the log's tail block(s), then syncs
//!   the device once.
//!
//! **Compaction.** When the log outgrows its bound (a multiple of the image
//! size, so image rewrites stay amortized O(1) per record), or when the
//! owner asks for a full image, the journal writes the current image into
//! the *inactive* slot, syncs, then writes the next epoch's control block
//! and syncs again. A crash before that control write leaves the old
//! image and its log untouched; after it, the new image with an empty log.
//!
//! **Recovery.** Pick the valid control block with the highest epoch, load
//! its image (checksum-verified), then replay records from the start of the
//! log until the first one with a bad checksum, a foreign epoch, or an
//! out-of-order sequence number: those are a torn tail or a previous
//! epoch's leftovers, never acknowledged state.
//!
//! The journal knows nothing about what the bytes mean: the catalog and the
//! device managers encode their own images and deltas, and a delta must be
//! idempotent over any image at least as new as the one it follows.

use crate::bytes::{fnv1a, le_u32, le_u64};
use crate::error::{DbError, DbResult};
use crate::smgr::SharedDevice;
use simdev::{BlockDevice, DevError};

const CTRL_MAGIC: u32 = 0x4C4E_4A4D; // "MJNL"
/// Bytes of a control block that carry data: magic, epoch, slot, image
/// length, image checksum, then the control checksum.
const CTRL_LEN: usize = 4 + 8 + 1 + 8 + 4;
/// Record framing: a 20-byte header plus a 4-byte trailing checksum.
const REC_HDR: usize = 4 + 8 + 8;
const REC_OVERHEAD: usize = REC_HDR + 4;
/// The log may grow to this multiple of the image before compaction...
const COMPACT_RATIO: u64 = 4;
/// ...but is never compacted below this many bytes.
const COMPACT_MIN: u64 = 256 * 1024;
/// Smallest usable region: two control blocks, two one-block slots, and
/// a two-block log.
const MIN_REGION: u64 = 6;

/// Blocks to reserve at the front of a device that also holds data: about
/// 1/64 of it, at least 64 blocks and at most 8192 (64 MB).
pub fn region_for(nblocks: u64) -> u64 {
    (nblocks / 64).clamp(64, 8192).min(nblocks)
}

/// Where the pieces of a region live.
#[derive(Debug, Clone, Copy)]
struct Layout {
    first: u64,
    slot_blocks: u64,
    log_blocks: u64,
    bs: usize,
}

impl Layout {
    fn new(first: u64, blocks: u64, bs: usize) -> DbResult<Layout> {
        if blocks < MIN_REGION {
            return Err(DbError::Invalid(format!(
                "metadata region of {blocks} blocks is below the minimum {MIN_REGION}"
            )));
        }
        let slot_blocks = (blocks - 2) / 4;
        Ok(Layout {
            first,
            slot_blocks,
            log_blocks: blocks - 2 - 2 * slot_blocks,
            bs,
        })
    }

    fn control(&self, epoch: u64) -> u64 {
        self.first + epoch % 2
    }

    fn slot(&self, slot: u8) -> u64 {
        self.first + 2 + slot as u64 * self.slot_blocks
    }

    fn log(&self) -> u64 {
        self.first + 2 + 2 * self.slot_blocks
    }

    fn log_bytes(&self) -> u64 {
        self.log_blocks * self.bs as u64
    }
}

/// One decoded control block.
#[derive(Debug, Clone, Copy)]
struct Control {
    epoch: u64,
    slot: u8,
    image_len: u64,
    image_ck: u32,
}

impl Control {
    fn encode(&self, bs: usize) -> Vec<u8> {
        let mut blk = vec![0u8; bs];
        blk[0..4].copy_from_slice(&CTRL_MAGIC.to_le_bytes());
        blk[4..12].copy_from_slice(&self.epoch.to_le_bytes());
        blk[12] = self.slot;
        blk[13..21].copy_from_slice(&self.image_len.to_le_bytes());
        blk[21..25].copy_from_slice(&self.image_ck.to_le_bytes());
        let ck = fnv1a(&blk[..CTRL_LEN]);
        blk[CTRL_LEN..CTRL_LEN + 4].copy_from_slice(&ck.to_le_bytes());
        blk
    }

    /// `None` for a block that is blank, torn or foreign.
    fn decode(blk: &[u8]) -> Option<Control> {
        if le_u32(blk, 0).ok()? != CTRL_MAGIC
            || le_u32(blk, CTRL_LEN).ok()? != fnv1a(blk.get(..CTRL_LEN)?)
        {
            return None;
        }
        let slot = *blk.get(12)?;
        (slot <= 1).then_some(Control {
            epoch: le_u64(blk, 4).ok()?,
            slot,
            image_len: le_u64(blk, 13).ok()?,
            image_ck: le_u32(blk, 21).ok()?,
        })
    }
}

/// The valid control block with the highest epoch, if any.
fn newest_control(d: &mut dyn BlockDevice, layout: &Layout) -> DbResult<Option<Control>> {
    let mut blk = vec![0u8; layout.bs];
    let mut best: Option<Control> = None;
    for which in 0..2 {
        d.read_block(layout.control(which), &mut blk)?;
        if let Some(c) = Control::decode(&blk) {
            if best.is_none_or(|b| c.epoch > b.epoch) {
                best = Some(c);
            }
        }
    }
    Ok(best)
}

/// A metadata journal over a block region of one device.
pub struct MetaJournal {
    dev: SharedDevice,
    layout: Layout,
    /// The current epoch's control contents.
    ctrl: Control,
    /// Sequence number of the next record in this epoch.
    next_seq: u64,
    /// Log byte offset where the next record goes.
    log_end: u64,
    /// The log's partial tail block: bytes `[log_end - log_end % bs,
    /// log_end)`, rewritten together with the next record.
    tail: Vec<u8>,
}

impl MetaJournal {
    /// Formats `blocks` blocks from `first` on `dev` with `image` as the
    /// epoch-1 image and an empty log, and syncs.
    pub fn format(
        dev: SharedDevice,
        first: u64,
        blocks: u64,
        image: &[u8],
    ) -> DbResult<MetaJournal> {
        // A journal formatted here before may have left control blocks and
        // log records behind: start past its newest epoch, so none of its
        // records can replay into ours, and blank its other control block.
        let (layout, epoch) = {
            let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
            let mut d = dev.lock();
            let layout = Layout::new(first, blocks, d.block_size())?;
            let epoch = newest_control(&mut *d, &layout)?.map_or(0, |c| c.epoch);
            d.write_block(layout.control(epoch), &vec![0u8; layout.bs])?;
            (layout, epoch)
        };
        let mut j = MetaJournal {
            dev,
            layout,
            ctrl: Control {
                epoch,
                slot: 1,
                image_len: 0,
                image_ck: 0,
            },
            next_seq: 0,
            log_end: 0,
            tail: Vec::new(),
        };
        j.rewrite(image)?;
        Ok(j)
    }

    /// Reopens the journal in `blocks` blocks from `first`: returns it
    /// positioned after the last valid record, the image, and every valid
    /// record in order.
    pub fn open(
        dev: SharedDevice,
        first: u64,
        blocks: u64,
    ) -> DbResult<(MetaJournal, Vec<u8>, Vec<Vec<u8>>)> {
        let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut d = dev.lock();
        let bs = d.block_size();
        let layout = Layout::new(first, blocks, bs)?;
        let ctrl = newest_control(&mut *d, &layout)?
            .ok_or_else(|| DbError::Corrupt("metadata journal was never formatted".into()))?;
        let mut blk = vec![0u8; bs];
        if ctrl.image_len > layout.slot_blocks * bs as u64 {
            return Err(DbError::Corrupt(
                "metadata image length out of range".into(),
            ));
        }
        let mut image = Vec::with_capacity(ctrl.image_len as usize);
        let mut blkno = layout.slot(ctrl.slot);
        while (image.len() as u64) < ctrl.image_len {
            d.read_block(blkno, &mut blk)?;
            let n = (ctrl.image_len as usize - image.len()).min(bs);
            image.extend_from_slice(&blk[..n]);
            blkno += 1;
        }
        if fnv1a(&image) != ctrl.image_ck {
            return Err(DbError::Corrupt("metadata image checksum".into()));
        }

        // The log, read block by block only as far as records continue.
        let mut stream: Vec<u8> = Vec::new();
        let mut fill = |stream: &mut Vec<u8>, want: u64| -> DbResult<bool> {
            if want > layout.log_bytes() {
                return Ok(false);
            }
            while (stream.len() as u64) < want {
                d.read_block(layout.log() + (stream.len() / bs) as u64, &mut blk)?;
                stream.extend_from_slice(&blk);
            }
            Ok(true)
        };
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut seq = 0u64;
        while fill(&mut stream, (pos + REC_HDR) as u64)? {
            let len = le_u32(&stream, pos)? as usize;
            if le_u64(&stream, pos + 4)? != ctrl.epoch
                || le_u64(&stream, pos + 12)? != seq
                || !fill(&mut stream, (pos + REC_OVERHEAD + len) as u64)?
            {
                break;
            }
            let body_end = pos + REC_HDR + len;
            if le_u32(&stream, body_end)? != fnv1a(&stream[pos..body_end]) {
                break;
            }
            records.push(stream[pos + REC_HDR..body_end].to_vec());
            pos = body_end + 4;
            seq += 1;
        }
        let tail = stream[pos - pos % bs..pos].to_vec();
        drop(d);
        let j = MetaJournal {
            dev,
            layout,
            ctrl,
            next_seq: seq,
            log_end: pos as u64,
            tail,
        };
        Ok((j, image, records))
    }

    /// Appends `delta` as one record and syncs. When the record would push
    /// the log past its bound, writes `image()` instead (a compaction); the
    /// image must include everything `delta` describes.
    pub fn persist(&mut self, delta: &[u8], image: impl FnOnce() -> Vec<u8>) -> DbResult<()> {
        let end = self.log_end + (REC_OVERHEAD + delta.len()) as u64;
        let bound = (COMPACT_RATIO * self.ctrl.image_len).max(COMPACT_MIN);
        if end > bound.min(self.layout.log_bytes()) {
            return self.rewrite(&image());
        }
        let len = u32::try_from(delta.len())
            .map_err(|_| DbError::Invalid("metadata record over 4 GB".into()))?;
        let kept = self.tail.len();
        self.tail.extend_from_slice(&len.to_le_bytes());
        self.tail.extend_from_slice(&self.ctrl.epoch.to_le_bytes());
        self.tail.extend_from_slice(&self.next_seq.to_le_bytes());
        self.tail.extend_from_slice(delta);
        let ck = fnv1a(&self.tail[kept..]);
        self.tail.extend_from_slice(&ck.to_le_bytes());
        let bs = self.layout.bs;
        let first_blk = self.layout.log() + self.log_end / bs as u64;
        if let Err(e) = self.write_blocks(first_blk, &self.tail) {
            self.tail.truncate(kept);
            return Err(e);
        }
        self.log_end = end;
        self.next_seq += 1;
        let full = self.tail.len() / bs * bs;
        self.tail.drain(..full);
        Ok(())
    }

    /// Writes `image` as the next epoch's image (a compaction) and syncs.
    pub fn rewrite(&mut self, image: &[u8]) -> DbResult<()> {
        let bs = self.layout.bs;
        if image.len() as u64 > self.layout.slot_blocks * bs as u64 {
            return Err(DbError::Device(DevError::NoSpace));
        }
        let next = Control {
            epoch: self.ctrl.epoch + 1,
            slot: 1 - self.ctrl.slot,
            image_len: image.len() as u64,
            image_ck: fnv1a(image),
        };
        self.write_blocks(self.layout.slot(next.slot), image)?;
        self.write_blocks(self.layout.control(next.epoch), &next.encode(bs))?;
        self.ctrl = next;
        self.next_seq = 0;
        self.log_end = 0;
        self.tail.clear();
        Ok(())
    }

    /// Bytes of log written since the last image.
    #[cfg(test)]
    pub(crate) fn log_len(&self) -> u64 {
        self.log_end
    }

    /// The current image's epoch (bumped by every compaction).
    #[cfg(test)]
    pub(crate) fn epoch(&self) -> u64 {
        self.ctrl.epoch
    }

    /// Writes `bytes` (zero-padded to whole blocks) from block `first`,
    /// then syncs.
    fn write_blocks(&self, first: u64, bytes: &[u8]) -> DbResult<()> {
        let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut d = self.dev.lock();
        let bs = self.layout.bs;
        let mut blk = vec![0u8; bs];
        for (i, chunk) in bytes.chunks(bs).enumerate() {
            blk[..chunk.len()].copy_from_slice(chunk);
            blk[chunk.len()..].fill(0);
            d.write_block(first + i as u64, &blk)?;
        }
        d.sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smgr::shared_device;
    use simdev::{DiskProfile, MagneticDisk, SimClock};

    fn dev(nblocks: u64) -> SharedDevice {
        shared_device(MagneticDisk::new(
            "meta",
            SimClock::new(),
            DiskProfile::tiny_for_tests(nblocks),
        ))
    }

    #[test]
    fn records_replay_after_image() {
        let d = dev(256);
        let mut j = MetaJournal::format(d.clone(), 0, 256, b"image-1").unwrap();
        for i in 0..50u32 {
            j.persist(&i.to_le_bytes(), Vec::new).unwrap();
        }
        let (j2, image, recs) = MetaJournal::open(d, 0, 256).unwrap();
        assert_eq!(image, b"image-1");
        assert_eq!(recs.len(), 50);
        assert_eq!(recs[49], 49u32.to_le_bytes());
        assert_eq!(j2.log_len(), j.log_len());
    }

    #[test]
    fn reopened_journal_keeps_appending_in_place() {
        let d = dev(256);
        let mut j = MetaJournal::format(d.clone(), 0, 256, b"img").unwrap();
        j.persist(b"a", Vec::new).unwrap();
        let (mut j, _, _) = MetaJournal::open(d.clone(), 0, 256).unwrap();
        j.persist(b"b", Vec::new).unwrap();
        let (_, _, recs) = MetaJournal::open(d, 0, 256).unwrap();
        assert_eq!(recs, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn full_log_compacts_into_the_other_slot() {
        // 64 blocks: 15-block slots and a 32-block (256 KB) log.
        let d = dev(64);
        let mut j = MetaJournal::format(d.clone(), 0, 64, b"v0").unwrap();
        let rec = vec![7u8; 10_000];
        let mut compacted = 0;
        for i in 0..60u32 {
            let before = j.epoch();
            j.persist(&rec, || format!("v{i}").into_bytes()).unwrap();
            if j.epoch() != before {
                compacted += 1;
            }
        }
        assert!(compacted >= 2, "the 256 KB log must have filled twice");
        let (_, image, recs) = MetaJournal::open(d, 0, 64).unwrap();
        assert!(image.starts_with(b"v"));
        assert_eq!(
            recs.len() as u64,
            j.log_len() / (rec.len() + REC_OVERHEAD) as u64
        );
    }

    #[test]
    fn torn_tail_record_is_dropped() {
        let d = dev(256);
        let mut j = MetaJournal::format(d.clone(), 0, 256, b"img").unwrap();
        j.persist(b"first", Vec::new).unwrap();
        j.persist(b"second", Vec::new).unwrap();
        // Damage the last byte of the second record's checksum.
        let layout = Layout::new(0, 256, simdev::BLOCK_SIZE).unwrap();
        let mut blk = vec![0u8; simdev::BLOCK_SIZE];
        d.lock().read_block(layout.log(), &mut blk).unwrap();
        blk[j.log_len() as usize - 1] ^= 0xFF;
        d.lock().write_block(layout.log(), &blk).unwrap();
        let (mut j, _, recs) = MetaJournal::open(d.clone(), 0, 256).unwrap();
        assert_eq!(recs, vec![b"first".to_vec()]);
        // Appending overwrites the torn record.
        j.persist(b"third", Vec::new).unwrap();
        let (_, _, recs) = MetaJournal::open(d, 0, 256).unwrap();
        assert_eq!(recs, vec![b"first".to_vec(), b"third".to_vec()]);
    }

    #[test]
    fn torn_control_falls_back_to_the_previous_epoch() {
        let d = dev(256);
        let mut j = MetaJournal::format(d.clone(), 0, 256, b"old").unwrap();
        j.persist(b"delta", Vec::new).unwrap();
        j.rewrite(b"new").unwrap();
        let layout = Layout::new(0, 256, simdev::BLOCK_SIZE).unwrap();
        d.lock()
            .write_block(layout.control(j.epoch()), &vec![0xAB; simdev::BLOCK_SIZE])
            .unwrap();
        let (_, image, recs) = MetaJournal::open(d, 0, 256).unwrap();
        assert_eq!(image, b"old");
        assert_eq!(recs, vec![b"delta".to_vec()]);
    }

    #[test]
    fn reformat_hides_the_previous_journal() {
        let d = dev(256);
        let mut j = MetaJournal::format(d.clone(), 0, 256, b"old").unwrap();
        j.rewrite(b"older-epoch-2").unwrap();
        MetaJournal::format(d.clone(), 0, 256, b"fresh").unwrap();
        let (_, image, recs) = MetaJournal::open(d, 0, 256).unwrap();
        assert_eq!(image, b"fresh");
        assert!(recs.is_empty());
    }

    #[test]
    fn reformat_never_replays_the_previous_journals_records() {
        // The old journal's second record starts exactly where the new
        // journal's first one ends, with the sequence number it expects.
        let d = dev(256);
        let first = vec![1u8; simdev::BLOCK_SIZE - REC_OVERHEAD];
        let mut j = MetaJournal::format(d.clone(), 0, 256, b"old").unwrap();
        j.persist(&first, Vec::new).unwrap();
        j.persist(b"stale", Vec::new).unwrap();
        let mut j = MetaJournal::format(d.clone(), 0, 256, b"new").unwrap();
        j.persist(&first, Vec::new).unwrap();
        let (_, image, recs) = MetaJournal::open(d, 0, 256).unwrap();
        assert_eq!(image, b"new");
        assert_eq!(recs, vec![first]);
    }

    #[test]
    fn oversized_image_is_device_full_and_blank_region_is_corrupt() {
        let d = dev(64);
        let mut j = MetaJournal::format(d.clone(), 0, 64, b"x").unwrap();
        let big = vec![1u8; 16 * simdev::BLOCK_SIZE];
        assert!(matches!(
            j.rewrite(&big),
            Err(DbError::Device(DevError::NoSpace))
        ));
        assert!(matches!(
            MetaJournal::open(dev(64), 0, 64),
            Err(DbError::Corrupt(_))
        ));
    }
}
