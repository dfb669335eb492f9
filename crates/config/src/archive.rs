//! Delta-encoded snapshot storage.
//!
//! The paper's archive holds ~450 GB of configuration text, but successive
//! snapshots of one device differ in a handful of lines; storing every
//! snapshot in full is what made the seed pipeline allocation-bound.
//! [`SnapshotArchive`] stores, per device, the **base** snapshot as a
//! sequence of interned line ids plus one [`LineDelta`] per subsequent
//! snapshot, and keeps a single materialized line sequence (the newest
//! state) so appends stay O(changed lines). Repeated lines — and config
//! lines repeat massively across devices of a network — are interned once
//! in a per-archive [`LineTable`] and referenced by 4-byte ids.
//!
//! Reconstruction is exact: `lines.join("\n")` plus the recorded byte
//! length disambiguates the trailing newline, so `device_texts` returns
//! the original snapshot bytes bit-for-bit (debug builds assert it on
//! every push). See DESIGN.md ("Delta-encoded snapshot archive") for the
//! format, the interning scheme and the parse-cache invalidation rules.

use crate::error::ConfigError;
use crate::snapshot::{Login, Snapshot, SnapshotMeta};
use mpa_model::{DeviceId, Timestamp};
use serde::{Deserialize, Error as SerdeError, Reader, Serialize, Writer};
use std::collections::{BTreeMap, HashMap};

/// Id of an interned configuration line within an archive's [`LineTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LineId(pub u32);

/// Fast multiply-mix hash of a line's bytes (FxHash-style), for the
/// intern index. The hash function cannot affect behavior — collisions
/// are resolved by exact comparison against the arena, and line ids are
/// assigned in first-appearance order — so a cheap mix beats SipHash on
/// the interning hot path (every line of every snapshot passes through).
fn hash_line(line: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let bytes = line.as_bytes();
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("exact chunk"));
        h = (h.rotate_left(5) ^ v).wrapping_mul(K);
    }
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    // mpa-lint: allow(R7) -- chunks_exact(8) remainder is < 8 bytes, the buffer's exact size
    last[..rem.len()].copy_from_slice(rem);
    (h.rotate_left(5) ^ u64::from_le_bytes(last)).wrapping_mul(K)
}

/// Interning table: each distinct config line is stored once, packed into
/// a single text arena (`text` + byte spans) rather than one `String`
/// allocation per line — replay touches lines by id in effectively random
/// order, so keeping them contiguous is worth real wall-clock at paper
/// scale, and the arena halves the table's footprint versus the old
/// `Vec<String>` + `HashMap<String, _>` pair that stored every line twice.
///
/// The reverse index is a lookup-only `HashMap` (never iterated, hash
/// collisions resolved by exact compare), so the archive's behavior stays
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LineTable {
    /// All distinct line text, concatenated in id order.
    text: String,
    /// Byte range of each line id within `text`.
    spans: Vec<(u32, u32)>,
    /// Line-hash → ids with that hash.
    index: HashMap<u64, Vec<u32>>,
}

impl LineTable {
    /// Append a line known to be absent, returning its new id.
    fn insert_new(&mut self, line: &str) -> LineId {
        let id = u32::try_from(self.spans.len()).expect("line table overflow");
        let start = u32::try_from(self.text.len()).expect("line arena overflow");
        self.text.push_str(line);
        let end = u32::try_from(self.text.len()).expect("line arena overflow");
        self.spans.push((start, end));
        self.index.entry(hash_line(line)).or_default().push(id);
        LineId(id)
    }

    fn intern(&mut self, line: &str) -> LineId {
        let hit = self
            .index
            .get(&hash_line(line))
            .and_then(|cands| cands.iter().copied().find(|&id| self.get(LineId(id)) == line));
        if let Some(id) = hit {
            // One line + its newline that the full-text store would have
            // duplicated. `merge` re-interns through this same path, so
            // org-level dedup is counted too.
            mpa_obs::counters::ARCHIVE_LINE_HITS.incr();
            mpa_obs::counters::ARCHIVE_BYTES_SAVED.add(line.len() as u64 + 1);
            return LineId(id);
        }
        mpa_obs::counters::ARCHIVE_LINES_INTERNED.incr();
        self.insert_new(line)
    }

    /// Append another table's lines wholesale, assigning them the next
    /// contiguous id range, and return the base offset (`other`'s local id
    /// `i` is now `base + i` here). Lines present in both tables are *not*
    /// deduplicated — each keeps its own id — but [`Self::intern`] still
    /// canonicalizes lookups to the lowest matching id because every hash
    /// bucket's candidates remain in ascending id order (shards are
    /// appended in order, and each shard's bucket was ascending).
    ///
    /// This is the offset-partitioned merge primitive: pure memcpy plus a
    /// bucket extension, no per-line hashing or intern probes.
    fn append_table(&mut self, other: LineTable) -> u32 {
        let base = u32::try_from(self.spans.len()).expect("line table overflow");
        let shift = u32::try_from(self.text.len()).expect("line arena overflow");
        self.text.push_str(&other.text);
        let _: u32 = u32::try_from(self.text.len()).expect("line arena overflow");
        self.spans.extend(other.spans.iter().map(|&(s, e)| (s + shift, e + shift)));
        // Bucket order across hash keys cannot affect the result: distinct
        // hashes land in distinct buckets, and within one bucket the
        // shard's candidate list is appended wholesale, preserving order.
        // mpa-lint: allow(R2) -- per-key bucket merge; cross-key iteration order is immaterial
        for (hash, ids) in other.index { self.extend_bucket(hash, &ids, base) }
        mpa_obs::counters::ARCHIVE_MERGE_TABLE_LINES.add(other.spans.len() as u64);
        base
    }

    /// Append one shard bucket's candidate ids (shifted by `base`) to the
    /// matching bucket of this table's intern index.
    fn extend_bucket(&mut self, hash: u64, ids: &[u32], base: u32) {
        self.index.entry(hash).or_default().extend(ids.iter().map(|&i| i + base));
    }

    fn get(&self, id: LineId) -> &str {
        let (start, end) = self.spans[id.0 as usize];
        &self.text[start as usize..end as usize]
    }

    /// Number of interned lines (ids are dense: `0..len()`).
    fn len(&self) -> usize {
        self.spans.len()
    }

    /// All interned lines, in id order.
    fn line_strs(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(|&(start, end)| &self.text[start as usize..end as usize])
    }

    /// Bytes of distinct line text held by the table.
    fn content_bytes(&self) -> usize {
        self.text.len()
    }
}

/// On the wire: the lines as a JSON array of strings, in id order.
impl Serialize for LineTable {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self.line_strs());
    }
}

impl Deserialize for LineTable {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, SerdeError> {
        // Straight into the arena. The lines are distinct by construction:
        // they come from a serialized intern table.
        let mut table = Self::default();
        r.seq(|r| {
            table.insert_new(&r.str()?);
            Ok(())
        })?;
        Ok(table)
    }
}

/// A single-hunk line-level edit between two snapshots: at line `at`,
/// `removed` is replaced by `added`.
///
/// Built by trimming the common prefix and suffix of the two line
/// sequences, so it is trivially invertible: [`LineDelta::apply`] and
/// [`LineDelta::revert`] are exact inverses (property-tested).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineDelta {
    /// Line offset of the replaced region.
    pub at: u32,
    /// Line ids the older snapshot had in the region.
    pub removed: Vec<LineId>,
    /// Line ids the newer snapshot has in the region.
    pub added: Vec<LineId>,
}

impl LineDelta {
    /// The delta transforming `old` into `new`.
    pub fn between(old: &[LineId], new: &[LineId]) -> Self {
        let max = old.len().min(new.len());
        let mut prefix = 0;
        while prefix < max && old[prefix] == new[prefix] {
            prefix += 1;
        }
        let mut suffix = 0;
        while suffix < max - prefix
            // mpa-lint: allow(R7) -- suffix < max - prefix keeps both offsets within the shorter side
            && old[old.len() - 1 - suffix] == new[new.len() - 1 - suffix]
        {
            suffix += 1;
        }
        Self {
            at: u32::try_from(prefix).expect("snapshot line count overflow"),
            // mpa-lint: allow(R7) -- prefix + suffix <= old.len() by the scan loop bounds above
            removed: old[prefix..old.len() - suffix].to_vec(),
            // mpa-lint: allow(R7) -- prefix + suffix <= new.len() by the scan loop bounds above
            added: new[prefix..new.len() - suffix].to_vec(),
        }
    }

    /// Transform `lines` forward (older → newer state).
    pub fn apply(&self, lines: &mut Vec<LineId>) {
        let at = self.at as usize;
        debug_assert_eq!(&lines[at..at + self.removed.len()], &self.removed[..]);
        lines.splice(at..at + self.removed.len(), self.added.iter().copied());
    }

    /// Transform `lines` backward (newer → older state).
    pub fn revert(&self, lines: &mut Vec<LineId>) {
        let at = self.at as usize;
        debug_assert_eq!(&lines[at..at + self.added.len()], &self.added[..]);
        lines.splice(at..at + self.added.len(), self.removed.iter().copied());
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// Borrowed view of one stored delta, arena-backed (see
/// [`DeviceHistory`]): the same shape as [`LineDelta`] but with the id
/// slices pointing into the device's packed delta stream.
#[derive(Debug, Clone, Copy)]
pub struct DeltaRef<'a> {
    /// Line offset of the replaced region.
    pub at: u32,
    /// Line ids the older snapshot had in the region.
    pub removed: &'a [LineId],
    /// Line ids the newer snapshot has in the region.
    pub added: &'a [LineId],
}

impl DeltaRef<'_> {
    /// Transform `lines` forward (older → newer state).
    pub fn apply(&self, lines: &mut Vec<LineId>) {
        let at = self.at as usize;
        debug_assert_eq!(&lines[at..at + self.removed.len()], self.removed);
        lines.splice(at..at + self.removed.len(), self.added.iter().copied());
    }

    /// Transform `lines` backward (newer → older state).
    pub fn revert(&self, lines: &mut Vec<LineId>) {
        let at = self.at as usize;
        debug_assert_eq!(&lines[at..at + self.added.len()], self.added);
        lines.splice(at..at + self.added.len(), self.removed.iter().copied());
    }

    /// An owned [`LineDelta`] with the same content.
    pub fn to_owned(self) -> LineDelta {
        LineDelta { at: self.at, removed: self.removed.to_vec(), added: self.added.to_vec() }
    }
}

/// Written exactly as the [`LineDelta`] it views.
impl Serialize for DeltaRef<'_> {
    fn serialize(&self, w: &mut Writer) {
        w.raw("{\"at\":");
        self.at.serialize(w);
        w.raw(",\"removed\":");
        self.removed.serialize(w);
        w.raw(",\"added\":");
        self.added.serialize(w);
        w.raw("}");
    }
}

/// Bounds of one delta inside a [`DeviceHistory`]'s packed id stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeltaMeta {
    /// Line offset of the replaced region.
    at: u32,
    /// Start of this delta's ids in `delta_ids` (removed first).
    off: u32,
    n_removed: u32,
    n_added: u32,
}

/// One device's archived history: metadata per snapshot, the base line
/// sequence, one delta per subsequent snapshot, and the materialized
/// newest state (`tip`, rebuilt on deserialize, never serialized).
///
/// The deltas are stored as a packed stream — one flat `Vec<LineId>` for
/// every delta's removed+added ids plus fixed-size [`DeltaMeta`] bounds —
/// instead of one `LineDelta` (two heap `Vec`s) per snapshot. Replay
/// walks every delta of every device, so at paper scale (~500K deltas)
/// the packed layout trades ~1M scattered small allocations for two
/// cache-friendly arrays per device; it also makes shard remapping in
/// [`SnapshotArchive::merge_all`] a single linear pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DeviceHistory {
    metas: Vec<SnapshotMeta>,
    /// Byte length of each snapshot's text (disambiguates the trailing
    /// newline on reconstruction and preserves `total_bytes` semantics).
    text_lens: Vec<usize>,
    base: Vec<LineId>,
    /// `delta(i)` transforms snapshot `i` into snapshot `i + 1`.
    delta_meta: Vec<DeltaMeta>,
    /// Packed removed+added ids of every delta, in delta order.
    delta_ids: Vec<LineId>,
    tip: Vec<LineId>,
}

impl DeviceHistory {
    fn n_deltas(&self) -> usize {
        self.delta_meta.len()
    }

    /// The `i`-th stored delta as a borrowed view.
    fn delta(&self, i: usize) -> DeltaRef<'_> {
        let m = self.delta_meta[i];
        let off = m.off as usize;
        let mid = off + m.n_removed as usize;
        DeltaRef {
            at: m.at,
            removed: &self.delta_ids[off..mid],
            added: &self.delta_ids[mid..mid + m.n_added as usize],
        }
    }

    /// Append a delta to the packed stream.
    fn push_delta(&mut self, d: &LineDelta) {
        let off = u32::try_from(self.delta_ids.len()).expect("delta stream overflow");
        self.delta_meta.push(DeltaMeta {
            at: d.at,
            off,
            n_removed: u32::try_from(d.removed.len()).expect("delta hunk overflow"),
            n_added: u32::try_from(d.added.len()).expect("delta hunk overflow"),
        });
        self.delta_ids.extend_from_slice(&d.removed);
        self.delta_ids.extend_from_slice(&d.added);
    }

    /// Replay the deltas from `base` to rebuild `tip`. A damaged file can
    /// hold a history that does not replay; that fails here, checked,
    /// rather than panicking in a splice.
    fn rebuild_tip(&mut self) -> Result<(), &'static str> {
        if self.text_lens.len() != self.metas.len() || self.n_deltas() + 1 != self.metas.len() {
            return Err("snapshot, length and delta counts disagree");
        }
        let mut cur = self.base.clone();
        for i in 0..self.n_deltas() {
            let d = self.delta(i);
            if cur.get(d.at as usize..d.at as usize + d.removed.len()) != Some(d.removed) {
                return Err("a delta does not fit the snapshot it applies to");
            }
            d.apply(&mut cur);
        }
        self.tip = cur;
        Ok(())
    }

    fn stored_ids(&self) -> usize {
        self.base.len() + self.delta_ids.len()
    }

    /// Add a constant offset to every stored line id in place (shard-local
    /// → offset-partitioned global ids during
    /// [`SnapshotArchive::merge_all`], phase 2). Branch-free linear pass;
    /// no table lookups.
    fn shift_ids(&mut self, base: u32) {
        fn shift_seq(seq: &mut [LineId], base: u32) {
            for id in seq.iter_mut() {
                id.0 += base;
            }
        }
        shift_seq(&mut self.base, base);
        shift_seq(&mut self.delta_ids, base);
        shift_seq(&mut self.tip, base);
    }

    /// Rewrite every stored line id through `remap` in place (used by the
    /// pairwise [`SnapshotArchive::merge`], which re-interns into the
    /// absorbing table), returning the number of ids rewritten.
    fn remap_ids(&mut self, remap: &[LineId]) -> u64 {
        fn map_seq(seq: &mut [LineId], remap: &[LineId]) -> u64 {
            for id in seq.iter_mut() {
                *id = remap[id.0 as usize];
            }
            seq.len() as u64
        }
        map_seq(&mut self.base, remap)
            + map_seq(&mut self.delta_ids, remap)
            + map_seq(&mut self.tip, remap)
    }
}

/// The wire names of a [`DeviceHistory`]'s fields. The wire format keeps one
/// `LineDelta` object per delta: the packed stream is an in-memory layout,
/// not a format.
const HISTORY_FIELDS: [&str; 4] = ["metas", "text_lens", "base", "deltas"];

impl Serialize for DeviceHistory {
    fn serialize(&self, w: &mut Writer) {
        w.raw("{\"metas\":");
        self.metas.serialize(w);
        w.raw(",\"text_lens\":");
        self.text_lens.serialize(w);
        w.raw(",\"base\":");
        self.base.serialize(w);
        w.raw(",\"deltas\":");
        w.seq((0..self.n_deltas()).map(|i| self.delta(i)));
        w.raw("}");
    }
}

impl Deserialize for DeviceHistory {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, SerdeError> {
        // Fields in any order, unknown keys skipped, like a derived impl;
        // each delta goes straight onto the packed stream.
        let (mut hist, mut seen) = (Self::default(), [false; 4]);
        r.object(|r, key| {
            let Some(i) = HISTORY_FIELDS.iter().position(|&f| f == key).filter(|&i| !seen[i])
            else {
                return r.skip();
            };
            seen[i] = true;
            match i {
                0 => Vec::deserialize(r).map(|v| hist.metas = v),
                1 => Vec::deserialize(r).map(|v| hist.text_lens = v),
                2 => Vec::deserialize(r).map(|v| hist.base = v),
                _ => r.seq(|r| LineDelta::deserialize(r).map(|d| hist.push_delta(&d))),
            }
            .map_err(|e| e.within("DeviceHistory", key))
        })?;
        for (field, seen) in HISTORY_FIELDS.iter().zip(seen) {
            r.required(seen.then_some(()), "DeviceHistory", field)?;
        }
        hist.rebuild_tip().map_err(|e| r.error(format!("DeviceHistory: {e}")))?;
        Ok(hist)
    }
}

/// Split snapshot text into the line sequence the archive stores. One
/// trailing newline (the normal case for rendered configs) is absorbed
/// into the recorded byte length rather than producing an empty line.
fn split_lines(text: &str) -> std::str::Split<'_, char> {
    text.strip_suffix('\n').unwrap_or(text).split('\n')
}

/// Rebuild snapshot text from interned lines and its recorded byte length.
fn materialize(table: &LineTable, lines: &[LineId], text_len: usize) -> String {
    let mut out = String::with_capacity(text_len);
    for (i, &id) in lines.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(table.get(id));
    }
    if out.len() + 1 == text_len {
        out.push('\n');
    }
    debug_assert_eq!(out.len(), text_len, "reconstruction length mismatch");
    out
}

/// Per-device, chronologically ordered snapshot store, delta-encoded.
///
/// Appends go through [`Self::push`]; materializing accessors
/// ([`Self::device_texts`], [`Self::latest_at`]) return owned text, and
/// [`Self::delta_cursor`] walks a history at the line-id level without
/// rendering any (the inference pipeline's path).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SnapshotArchive {
    table: LineTable,
    by_device: BTreeMap<DeviceId, DeviceHistory>,
}

impl Deserialize for SnapshotArchive {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, SerdeError> {
        // The derived reader, declared under this type's name so that its
        // errors read the same.
        #[derive(Deserialize)]
        struct SnapshotArchive {
            table: LineTable,
            by_device: BTreeMap<DeviceId, DeviceHistory>,
        }
        let SnapshotArchive { table, by_device } = SnapshotArchive::deserialize(r)?;
        // Replay indexes the line table with every stored id, so an id past
        // its end must fail here, not panic in inference.
        for (dev, hist) in &by_device {
            if hist.base.iter().chain(&hist.delta_ids).any(|id| id.0 as usize >= table.len()) {
                return Err(r.error(format!(
                    "SnapshotArchive: device {dev} names a line past the {}-line table",
                    table.len()
                )));
            }
        }
        Ok(Self { table, by_device })
    }
}

impl SnapshotArchive {
    /// Empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a snapshot. Snapshots must arrive in non-decreasing time order
    /// per device (the NMS receives syslog events in order).
    pub fn push(&mut self, snapshot: Snapshot) -> Result<(), ConfigError> {
        let Snapshot { meta, text } = snapshot;
        let hist = self.by_device.entry(meta.device).or_default();
        if let Some(last) = hist.metas.last() {
            if meta.time < last.time {
                // mpa-lint: allow(R8) -- cold rejection path; allocates only to build the error
                return Err(ConfigError::OutOfOrderSnapshot { device: meta.device.to_string() });
            }
        }
        let ids: Vec<LineId> = split_lines(&text).map(|l| self.table.intern(l)).collect();
        if hist.metas.is_empty() {
            hist.base.clone_from(&ids);
        } else {
            hist.push_delta(&LineDelta::between(&hist.tip, &ids));
        }
        debug_assert_eq!(materialize(&self.table, &ids, text.len()), text);
        hist.tip = ids;
        hist.text_lens.push(text.len());
        hist.metas.push(meta);
        Ok(())
    }

    /// Devices with at least one snapshot, ascending.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.by_device.keys().copied()
    }

    /// Total number of snapshots across all devices.
    pub fn n_snapshots(&self) -> usize {
        self.by_device.values().map(|h| h.metas.len()).sum()
    }

    /// Total bytes of configuration text the archive represents (the sum of
    /// all snapshots' materialized lengths — the Table 2 `config_bytes`
    /// figure, unchanged from the full-text store).
    pub fn total_bytes(&self) -> usize {
        self.by_device.values().map(|h| h.text_lens.iter().sum::<usize>()).sum()
    }

    /// Bytes actually held by the delta-encoded representation: distinct
    /// line text plus four bytes per stored line id (base sequences and
    /// delta hunks). The compression headline is
    /// `total_bytes() / text_bytes()`.
    pub fn text_bytes(&self) -> usize {
        let ids: usize = self.by_device.values().map(DeviceHistory::stored_ids).sum();
        self.table.content_bytes() + 4 * ids
    }

    /// Snapshot metadata of a device, oldest first.
    pub fn device_metas(&self, dev: DeviceId) -> &[SnapshotMeta] {
        self.by_device.get(&dev).map(|h| h.metas.as_slice()).unwrap_or(&[])
    }

    /// Materialize every snapshot text of a device, oldest first (parallel
    /// to [`Self::device_metas`]). This is the replay path: one forward
    /// pass applying deltas, so the cost is O(total text), not
    /// O(snapshots × text).
    pub fn device_texts(&self, dev: DeviceId) -> Vec<String> {
        let Some(hist) = self.by_device.get(&dev) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(hist.metas.len());
        let mut cur = hist.base.clone();
        for (i, &len) in hist.text_lens.iter().enumerate() {
            if i > 0 {
                hist.delta(i - 1).apply(&mut cur);
            }
            out.push(materialize(&self.table, &cur, len));
        }
        out
    }

    /// Walk a device's history at the **delta level**, without materializing
    /// any text: the returned cursor starts on the oldest snapshot and
    /// exposes the interned line-id state, byte length and metadata of one
    /// snapshot at a time; [`DeltaCursor::advance`] applies the next stored
    /// [`LineDelta`] in place and hands it back, so a consumer can derive
    /// per-snapshot work from the changed region alone. This is the
    /// patch-iteration API behind the delta-native inference path (see
    /// [`crate::incremental`]). `None` if the device has no snapshots.
    pub fn delta_cursor(&self, dev: DeviceId) -> Option<DeltaCursor<'_>> {
        let hist = self.by_device.get(&dev)?;
        if hist.metas.is_empty() {
            return None;
        }
        Some(DeltaCursor { archive: self, hist, cur: hist.base.clone(), ix: 0 })
    }

    /// The text of one interned line (no trailing newline).
    pub fn line_text(&self, id: LineId) -> &str {
        self.table.get(id)
    }

    /// Number of distinct lines interned in this archive's table. Line ids
    /// are dense: every `LineId(i)` with `i < n_interned_lines()` is valid.
    pub fn n_interned_lines(&self) -> usize {
        self.table.len()
    }

    /// Materialize a device's whole history as owned snapshots.
    pub fn device_history(&self, dev: DeviceId) -> Vec<Snapshot> {
        self.device_metas(dev)
            .iter()
            .cloned()
            .zip(self.device_texts(dev))
            .map(|(meta, text)| Snapshot { meta, text })
            .collect()
    }

    /// The newest snapshot at or before `t`, materialized, if any.
    pub fn latest_at(&self, dev: DeviceId, t: Timestamp) -> Option<Snapshot> {
        let metas = self.device_metas(dev);
        let ix = metas.partition_point(|m| m.time <= t).checked_sub(1)?;
        // Replay backward from the tip: the queried snapshot is usually
        // near the end of the history.
        let hist = &self.by_device[&dev];
        let mut cur = hist.tip.clone();
        for i in (ix..hist.n_deltas()).rev() {
            hist.delta(i).revert(&mut cur);
        }
        Some(Snapshot {
            meta: metas[ix].clone(),
            text: materialize(&self.table, &cur, hist.text_lens[ix]),
        })
    }

    /// Absorb another archive (e.g. one network's), re-interning its lines
    /// into this archive's table.
    ///
    /// # Panics
    /// Panics if the two archives share a device — device histories are
    /// whole units; per-network archives are always device-disjoint.
    pub fn merge(&mut self, other: SnapshotArchive) {
        let SnapshotArchive { table: other_table, by_device: other_devices } = other;
        let remap: Vec<LineId> =
            other_table.line_strs().map(|l| self.table.intern(l)).collect();
        for (dev, mut hist) in other_devices {
            let n = hist.remap_ids(&remap);
            mpa_obs::counters::ARCHIVE_MERGE_REMAPPED_LINES.add(n);
            let prev = self.by_device.insert(dev, hist);
            assert!(prev.is_none(), "device {dev:?} present in both merged archives");
        }
    }

    /// Deterministically merge many device-disjoint shard archives (e.g.
    /// one per network) into one, with **offset-partitioned** global id
    /// allocation: shard `s`'s local id `i` becomes global id
    /// `base(s) + i`, where `base(s)` is the total line count of the
    /// shards before it.
    ///
    /// 1. **Table concatenation (sequential, memcpy-bound).** Each shard's
    ///    text arena and spans are appended to the global table and its
    ///    hash buckets extended with the shifted ids — no re-hashing of
    ///    line text, no per-line intern probes. A line shared by several
    ///    shards is stored once per shard; lookups through
    ///    [`LineTable::intern`] (the serve-session ingest path) still
    ///    dedup, resolving to the lowest matching id, because bucket
    ///    candidates stay in ascending id order. The cost counter is
    ///    `archive_merge_table_lines`: O(distinct lines per shard).
    /// 2. **Offset shift (parallel).** Every stored id of a shard's device
    ///    histories is incremented by the shard's constant base on the
    ///    worker threads — a branch-free linear pass with no table
    ///    lookups, replacing the old per-id remap through a translation
    ///    vector (which cost O(total delta-stream ids) and dominated the
    ///    merge at paper scale: 99.2M remapped ids).
    ///
    /// Both phases are pure functions of the shard order, so the result is
    /// identical at any thread count. Per-device semantics are unchanged —
    /// a history's ids all come from one shard, so materialization,
    /// replay, dedup and serde round-trips behave exactly as before; only
    /// the global id values (an internal naming) differ from what a
    /// pairwise [`Self::merge`] fold would assign.
    ///
    /// # Panics
    /// Panics if two shards share a device.
    pub fn merge_all(shards: Vec<SnapshotArchive>) -> SnapshotArchive {
        let mut table = LineTable::default();
        let parts: Vec<(u32, BTreeMap<DeviceId, DeviceHistory>)> = shards
            .into_iter()
            .map(|shard| {
                let base = table.append_table(shard.table);
                (base, shard.by_device)
            })
            .collect();
        let shifted = mpa_exec::par_map_owned(parts, |_, (base, mut by_device)| {
            for hist in by_device.values_mut() {
                hist.shift_ids(base);
            }
            by_device
        });
        let mut by_device: BTreeMap<DeviceId, DeviceHistory> = BTreeMap::new();
        for shard in shifted {
            for (dev, hist) in shard {
                let prev = by_device.insert(dev, hist);
                assert!(prev.is_none(), "device {dev:?} present in multiple merged shards");
            }
        }
        SnapshotArchive { table, by_device }
    }
}

/// Forward iteration over one device's archived history at the delta
/// level (see [`SnapshotArchive::delta_cursor`]).
///
/// The cursor always sits **on** a snapshot: accessors describe the current
/// one, and [`Self::advance`] replays the stored delta into the next state.
/// Replay cost is O(changed lines) per step, and no text is ever rendered —
/// consumers that need line content resolve individual ids through
/// [`SnapshotArchive::line_text`].
#[derive(Debug)]
pub struct DeltaCursor<'a> {
    archive: &'a SnapshotArchive,
    hist: &'a DeviceHistory,
    cur: Vec<LineId>,
    ix: usize,
}

impl<'a> DeltaCursor<'a> {
    /// Total snapshots in the device's history (≥ 1).
    pub fn len(&self) -> usize {
        self.hist.metas.len()
    }

    /// Always false: a cursor only exists for a non-empty history.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the snapshot the cursor is on (0 = oldest).
    pub fn index(&self) -> usize {
        self.ix
    }

    /// Interned line-id sequence of the current snapshot.
    pub fn lines(&self) -> &[LineId] {
        &self.cur
    }

    /// Byte length of the current snapshot's text (together with
    /// [`Self::lines`] this identifies the text exactly, trailing newline
    /// included).
    pub fn text_len(&self) -> usize {
        self.hist.text_lens[self.ix]
    }

    /// Metadata of the current snapshot.
    pub fn meta(&self) -> &'a SnapshotMeta {
        &self.hist.metas[self.ix]
    }

    /// The text of one interned line (convenience over the archive).
    pub fn line_text(&self, id: LineId) -> &'a str {
        self.archive.table.get(id)
    }

    /// Step to the next snapshot, applying its delta to the cursor state,
    /// and return the delta that was applied. `None` at the end of the
    /// history (the cursor stays on the last snapshot).
    pub fn advance(&mut self) -> Option<DeltaRef<'a>> {
        if self.ix >= self.hist.n_deltas() {
            return None;
        }
        let delta = self.hist.delta(self.ix);
        delta.apply(&mut self.cur);
        self.ix += 1;
        Some(delta)
    }
}

/// Accumulates snapshots for one simulated network and delta-encodes them
/// into a [`SnapshotArchive`].
///
/// The simulator emits snapshots in *event* order while the archive wants
/// *time* order (timestamps are drawn randomly within a month), so the
/// builder records each snapshot's interned line sequence and defers
/// sorting, adjacent-duplicate dropping and delta encoding to
/// [`ArchiveBuilder::finish`]. A single render buffer is reused across all
/// snapshots of the network, and the line-id sequences of *all* pending
/// snapshots live in one pooled arena (`ids`) addressed by per-snapshot
/// spans — at paper scale the old one-`Vec<LineId>`-per-snapshot layout
/// cost 531k short-lived allocations in the generate hot loop.
#[derive(Debug, Default)]
pub struct ArchiveBuilder {
    table: LineTable,
    scratch: String,
    /// Pooled line-id arena; every pending snapshot's sequence is a span
    /// of this vector. Append-only until `finish`.
    ids: Vec<LineId>,
    pending: BTreeMap<DeviceId, Vec<PendingSnapshot>>,
}

#[derive(Debug)]
struct PendingSnapshot {
    time: Timestamp,
    login: Login,
    text_len: usize,
    /// Span of this snapshot's line ids within the builder's pooled arena.
    off: u32,
    len: u32,
}

impl PendingSnapshot {
    fn range(&self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

impl ArchiveBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one snapshot: `render` writes the config text into the shared
    /// scratch buffer (already cleared), which is then interned line by line.
    pub fn record_with(
        &mut self,
        device: DeviceId,
        time: Timestamp,
        login: Login,
        render: impl FnOnce(&mut String),
    ) {
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        render(&mut scratch);
        let off = self.arena_off();
        for l in split_lines(&scratch) {
            let id = self.table.intern(l);
            self.ids.push(id);
        }
        self.push_pending(device, time, login, scratch.len(), off);
        self.scratch = scratch;
    }

    /// Record one snapshot whose interned line sequence the caller
    /// produces directly (the delta-native generator splices cached chunk
    /// sequences instead of rendering text): `fill` **appends** the
    /// snapshot's line ids to the pooled arena it is handed. `text_len`
    /// must be the byte length of the text those lines materialize to,
    /// trailing newline included.
    pub fn record_lines_with(
        &mut self,
        device: DeviceId,
        time: Timestamp,
        login: Login,
        text_len: usize,
        fill: impl FnOnce(&mut Vec<LineId>),
    ) {
        let off = self.arena_off();
        fill(&mut self.ids);
        self.push_pending(device, time, login, text_len, off);
    }

    /// Intern `text` line by line, appending the ids to `out` (which may
    /// be the caller's own buffer — this does not touch the pooled arena).
    /// Used by [`RenderCache`] to intern novel chunk text through the
    /// builder's table. `text` must be non-empty and newline-terminated
    /// (chunk renderers guarantee both).
    pub fn intern_lines_into(&mut self, text: &str, out: &mut Vec<LineId>) {
        debug_assert!(!text.is_empty() && text.ends_with('\n'));
        for l in split_lines(text) {
            out.push(self.table.intern(l));
        }
    }

    fn arena_off(&self) -> u32 {
        u32::try_from(self.ids.len()).expect("pending id arena overflow")
    }

    fn push_pending(
        &mut self,
        device: DeviceId,
        time: Timestamp,
        login: Login,
        text_len: usize,
        off: u32,
    ) {
        let len = self.arena_off() - off;
        self.pending
            .entry(device)
            .or_default()
            .push(PendingSnapshot { time, login, text_len, off, len });
    }

    /// Sort per device by time (stable, preserving event order within equal
    /// timestamps), drop time-adjacent duplicates (an NMS only commits a
    /// snapshot when the text actually changed), and delta-encode.
    pub fn finish(self) -> SnapshotArchive {
        let ids = self.ids;
        let mut by_device = BTreeMap::new();
        for (dev, mut pending) in self.pending {
            pending.sort_by_key(|p| p.time);
            pending.dedup_by(|b, a| a.text_len == b.text_len && ids[a.range()] == ids[b.range()]);
            let mut hist = DeviceHistory::default();
            for (i, snap) in pending.into_iter().enumerate() {
                let lines = &ids[snap.range()];
                if i == 0 {
                    hist.base.extend_from_slice(lines);
                } else {
                    hist.push_delta(&LineDelta::between(&hist.tip, lines));
                }
                hist.tip.clear();
                hist.tip.extend_from_slice(lines);
                hist.text_lens.push(snap.text_len);
                hist.metas.push(SnapshotMeta { device: dev, time: snap.time, login: snap.login });
            }
            by_device.insert(dev, hist);
        }
        SnapshotArchive { table: self.table, by_device }
    }
}

/// Per-network render cache for the delta-native generator: maps a chunk's
/// rendered text to its interned line-id sequence, so revisiting a chunk
/// state (ops toggle between a handful of values) skips per-line interning
/// entirely.
///
/// Keys are the exact chunk bytes — the candidate's stored text is compared
/// on every probe, so hash collisions cannot alias distinct chunks — and
/// both texts and id sequences live in packed arenas (two `Vec`s total,
/// regardless of entry count). Slots are returned as dense `u32` handles
/// for the generator's per-device chunk maps.
///
/// All `gen_*` counters are maintained here, which gives the balance
/// invariant the CLI tests assert:
/// `gen_render_cache_hits + gen_render_cache_misses == gen_chunks_rendered`.
#[derive(Debug, Default)]
pub struct RenderCache {
    /// Arena of cached chunk texts, concatenated.
    text: String,
    /// Arena of cached line-id sequences, concatenated.
    ids: Vec<LineId>,
    /// Per-slot `(text_start, text_end, ids_start, ids_end)`.
    slots: Vec<(u32, u32, u32, u32)>,
    /// Text-hash → candidate slots (lookup-only; exact compare resolves).
    index: HashMap<u64, Vec<u32>>,
}

impl RenderCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `chunk_text`'s interned line sequence, interning
    /// through `builder` on first sight. `chunk_text` must be non-empty
    /// (callers skip empty chunk renders).
    pub fn slot_for(&mut self, builder: &mut ArchiveBuilder, chunk_text: &str) -> u32 {
        debug_assert!(!chunk_text.is_empty());
        mpa_obs::counters::GEN_CHUNKS_RENDERED.incr();
        mpa_obs::counters::GEN_BYTES_RENDERED.add(chunk_text.len() as u64);
        let hash = hash_line(chunk_text);
        let hit = self.index.get(&hash).and_then(|cands| {
            cands.iter().copied().find(|&slot| self.slot_text(slot) == chunk_text)
        });
        if let Some(slot) = hit {
            mpa_obs::counters::GEN_RENDER_CACHE_HITS.incr();
            mpa_obs::counters::GEN_LINES_RENDERED.add(self.ids(slot).len() as u64);
            return slot;
        }
        mpa_obs::counters::GEN_RENDER_CACHE_MISSES.incr();
        let slot = u32::try_from(self.slots.len()).expect("render cache overflow");
        let text_start = u32::try_from(self.text.len()).expect("render cache arena overflow");
        self.text.push_str(chunk_text);
        let text_end = u32::try_from(self.text.len()).expect("render cache arena overflow");
        let ids_start = u32::try_from(self.ids.len()).expect("render cache arena overflow");
        let mut ids = std::mem::take(&mut self.ids);
        builder.intern_lines_into(chunk_text, &mut ids);
        self.ids = ids;
        let ids_end = u32::try_from(self.ids.len()).expect("render cache arena overflow");
        mpa_obs::counters::GEN_LINES_RENDERED.add((ids_end - ids_start) as u64);
        self.slots.push((text_start, text_end, ids_start, ids_end));
        self.index.entry(hash).or_default().push(slot);
        slot
    }

    /// The interned line-id sequence of a slot.
    pub fn ids(&self, slot: u32) -> &[LineId] {
        let (_, _, s, e) = self.slots[slot as usize];
        &self.ids[s as usize..e as usize]
    }

    /// Byte length of a slot's chunk text (newline-terminated).
    pub fn text_len(&self, slot: u32) -> usize {
        let (s, e, _, _) = self.slots[slot as usize];
        (e - s) as usize
    }

    /// Number of distinct chunk texts cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot_text(&self, slot: u32) -> &str {
        let (s, e, _, _) = self.slots[slot as usize];
        &self.text[s as usize..e as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(dev: u32, t: u64, login: &str, text: &str) -> Snapshot {
        Snapshot {
            meta: SnapshotMeta {
                device: DeviceId(dev),
                time: Timestamp(t),
                login: Login::new(login),
            },
            text: text.to_string(),
        }
    }

    #[test]
    fn push_and_query_history() {
        let mut a = SnapshotArchive::new();
        a.push(snap(1, 10, "alice", "v1")).unwrap();
        a.push(snap(1, 20, "bob", "v2")).unwrap();
        a.push(snap(2, 15, "svc-auto", "w1")).unwrap();
        assert_eq!(a.n_snapshots(), 3);
        assert_eq!(a.device_metas(DeviceId(1)).len(), 2);
        assert_eq!(a.devices().collect::<Vec<_>>(), vec![DeviceId(1), DeviceId(2)]);
        assert_eq!(a.total_bytes(), 6);
        assert_eq!(a.device_texts(DeviceId(1)), vec!["v1".to_string(), "v2".to_string()]);
        let hist = a.device_history(DeviceId(1));
        assert_eq!(hist[1].meta.login, Login::new("bob"));
        assert_eq!(hist[1].text, "v2");
    }

    #[test]
    fn rejects_out_of_order() {
        let mut a = SnapshotArchive::new();
        a.push(snap(1, 20, "alice", "v1")).unwrap();
        let err = a.push(snap(1, 10, "alice", "v0")).unwrap_err();
        assert!(matches!(err, ConfigError::OutOfOrderSnapshot { .. }));
        // Equal timestamps are allowed (two changes in the same minute).
        a.push(snap(1, 20, "alice", "v2")).unwrap();
    }

    #[test]
    fn latest_at_boundaries() {
        let mut a = SnapshotArchive::new();
        a.push(snap(1, 10, "x", "v1")).unwrap();
        a.push(snap(1, 20, "x", "v2")).unwrap();
        assert!(a.latest_at(DeviceId(1), Timestamp(5)).is_none());
        assert_eq!(a.latest_at(DeviceId(1), Timestamp(10)).unwrap().text, "v1");
        assert_eq!(a.latest_at(DeviceId(1), Timestamp(15)).unwrap().text, "v1");
        assert_eq!(a.latest_at(DeviceId(1), Timestamp(99)).unwrap().text, "v2");
        assert!(a.latest_at(DeviceId(9), Timestamp(99)).is_none());
    }

    #[test]
    fn reconstruction_is_exact_including_odd_texts() {
        // Internal blank lines, missing trailing newline, empty text,
        // bare newline: every shape must round-trip bit-for-bit.
        let texts = ["a\nb\n", "a\n\nb", "", "\n", "x", "x\n\n"];
        let mut a = SnapshotArchive::new();
        for (i, t) in texts.iter().enumerate() {
            a.push(snap(7, i as u64, "x", t)).unwrap();
        }
        assert_eq!(a.device_texts(DeviceId(7)), texts);
        assert_eq!(a.total_bytes(), texts.iter().map(|t| t.len()).sum::<usize>());
    }

    #[test]
    fn interning_shrinks_repeated_content() {
        let shared = "line one\nline two\nline three\n";
        let mut a = SnapshotArchive::new();
        for dev in 0..50u32 {
            a.push(snap(dev, 0, "x", shared)).unwrap();
            a.push(snap(dev, 9, "x", &format!("{shared}extra {dev}\n"))).unwrap();
        }
        assert!(
            a.text_bytes() < a.total_bytes(),
            "delta encoding should beat full text: {} vs {}",
            a.text_bytes(),
            a.total_bytes()
        );
    }

    #[test]
    fn delta_between_apply_revert_round_trip() {
        let old: Vec<LineId> = [0u32, 1, 2, 3, 4].iter().map(|&i| LineId(i)).collect();
        let new: Vec<LineId> = [0u32, 1, 9, 8, 3, 4].iter().map(|&i| LineId(i)).collect();
        let d = LineDelta::between(&old, &new);
        assert_eq!(d.at, 2);
        assert_eq!(d.removed, vec![LineId(2)]);
        assert_eq!(d.added, vec![LineId(9), LineId(8)]);
        let mut cur = old.clone();
        d.apply(&mut cur);
        assert_eq!(cur, new);
        d.revert(&mut cur);
        assert_eq!(cur, old);
        assert!(LineDelta::between(&old, &old).is_empty());
    }

    #[test]
    fn builder_matches_push_built_archive() {
        // Same snapshots, recorded out of time order through the builder,
        // must materialize identically to an in-order push sequence.
        let texts = ["hostname h\n!\n", "hostname h\n!\nvlan 10\n name v10\n!\n"];
        let mut pushed = SnapshotArchive::new();
        pushed.push(snap(3, 10, "a", texts[0])).unwrap();
        pushed.push(snap(3, 20, "b", texts[1])).unwrap();

        let mut b = ArchiveBuilder::new();
        b.record_with(DeviceId(3), Timestamp(20), Login::new("b"), |s| s.push_str(texts[1]));
        b.record_with(DeviceId(3), Timestamp(10), Login::new("a"), |s| s.push_str(texts[0]));
        let built = b.finish();

        assert_eq!(built.device_history(DeviceId(3)), pushed.device_history(DeviceId(3)));
        assert_eq!(built.total_bytes(), pushed.total_bytes());
    }

    #[test]
    fn record_lines_with_matches_record_with() {
        // Splicing cached chunk sequences through the render cache must
        // produce the same archive as rendering full text, including the
        // intern table (chunk texts concatenate to the full documents).
        let chunks = ["hostname h\n!\n", "vlan 10\n name v10\n!\n"];
        let docs: [String; 3] = [
            chunks[0].to_string(),
            format!("{}{}", chunks[0], chunks[1]),
            chunks[0].to_string(),
        ];

        let mut full = ArchiveBuilder::new();
        for (t, doc) in docs.iter().enumerate() {
            full.record_with(DeviceId(1), Timestamp(t as u64), Login::new("x"), |s| {
                s.push_str(doc)
            });
        }

        let mut delta = ArchiveBuilder::new();
        let mut cache = RenderCache::new();
        let s0 = cache.slot_for(&mut delta, chunks[0]);
        delta.record_lines_with(DeviceId(1), Timestamp(0), Login::new("x"), docs[0].len(), {
            let ids: Vec<LineId> = cache.ids(s0).to_vec();
            move |out| out.extend_from_slice(&ids)
        });
        let s1 = cache.slot_for(&mut delta, chunks[1]);
        assert_eq!(cache.text_len(s0) + cache.text_len(s1), docs[1].len());
        delta.record_lines_with(DeviceId(1), Timestamp(1), Login::new("x"), docs[1].len(), {
            let mut ids: Vec<LineId> = cache.ids(s0).to_vec();
            ids.extend_from_slice(cache.ids(s1));
            move |out| out.extend_from_slice(&ids)
        });
        // Revisit of the first state: pure cache hits.
        let s0_again = cache.slot_for(&mut delta, chunks[0]);
        assert_eq!(s0, s0_again, "revisited chunk text must hit its slot");
        delta.record_lines_with(DeviceId(1), Timestamp(2), Login::new("x"), docs[2].len(), {
            let ids: Vec<LineId> = cache.ids(s0).to_vec();
            move |out| out.extend_from_slice(&ids)
        });

        let full = full.finish();
        let delta = delta.finish();
        assert_eq!(full, delta, "delta-spliced archive must equal full-render archive");
        assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&delta).unwrap()
        );
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn merge_all_uses_offset_partitioned_ids() {
        let mut a = SnapshotArchive::new();
        a.push(snap(1, 0, "x", "shared\na-only\n")).unwrap();
        let mut b = SnapshotArchive::new();
        b.push(snap(2, 0, "y", "shared\nb-only\n")).unwrap();
        let (a_lines, b_lines) = (a.n_interned_lines(), b.n_interned_lines());
        let before = mpa_obs::counters::snapshot();
        let merged = SnapshotArchive::merge_all(vec![a, b]);
        let diff = mpa_obs::counters::snapshot_diff(&before, &mpa_obs::counters::snapshot());
        let get = |name: &str| diff.iter().find(|(n, _)| *n == name).unwrap().1;
        // Table concatenation: every shard line appended, nothing remapped.
        assert!(get("archive_merge_table_lines") >= (a_lines + b_lines) as u64);
        // Duplicated "shared" keeps one id per shard; texts reconstruct.
        assert_eq!(merged.n_interned_lines(), a_lines + b_lines);
        assert_eq!(merged.device_texts(DeviceId(1)), vec!["shared\na-only\n"]);
        assert_eq!(merged.device_texts(DeviceId(2)), vec!["shared\nb-only\n"]);
        // Lookup interning still canonicalizes to the lowest id: a fresh
        // push of "shared" must not grow the table.
        let mut merged = merged;
        let lines_before = merged.n_interned_lines();
        merged.push(snap(3, 1, "z", "shared\n")).unwrap();
        assert_eq!(merged.n_interned_lines(), lines_before);
        assert_eq!(merged.device_texts(DeviceId(3)), vec!["shared\n"]);
    }

    #[test]
    fn builder_drops_time_adjacent_duplicates() {
        let mut b = ArchiveBuilder::new();
        for (t, text) in [(5, "a\n"), (10, "b\n"), (15, "b\n"), (20, "a\n")] {
            b.record_with(DeviceId(1), Timestamp(t), Login::new("x"), |s| s.push_str(text));
        }
        let a = b.finish();
        // The t=15 duplicate of "b" is dropped; the t=20 return to "a" is
        // a real change and stays.
        assert_eq!(a.device_texts(DeviceId(1)), vec!["a\n", "b\n", "a\n"]);
    }

    #[test]
    fn merge_remaps_lines_across_tables() {
        let mut left = SnapshotArchive::new();
        left.push(snap(1, 0, "x", "shared line\nleft only\n")).unwrap();
        let mut right = SnapshotArchive::new();
        right.push(snap(2, 0, "y", "right only\nshared line\n")).unwrap();
        let right_texts = right.device_texts(DeviceId(2));
        left.merge(right);
        assert_eq!(left.n_snapshots(), 2);
        assert_eq!(left.device_texts(DeviceId(2)), right_texts);
        // "shared line" interned once.
        assert_eq!(left.table.line_strs().filter(|l| *l == "shared line").count(), 1);
    }

    #[test]
    #[should_panic(expected = "present in both")]
    fn merge_panics_on_device_collision() {
        let mut left = SnapshotArchive::new();
        left.push(snap(1, 0, "x", "a\n")).unwrap();
        let mut right = SnapshotArchive::new();
        right.push(snap(1, 0, "y", "b\n")).unwrap();
        left.merge(right);
    }

    #[test]
    fn serde_round_trip_rebuilds_materialization_state() {
        let mut a = SnapshotArchive::new();
        a.push(snap(1, 0, "x", "hostname h\n!\n")).unwrap();
        a.push(snap(1, 9, "y", "hostname h\n!\nvlan 10\n name v\n!\n")).unwrap();
        a.push(snap(2, 4, "z", "hostname g\n!\n")).unwrap();
        let json = serde_json::to_string(&a).expect("serialize");
        let back: SnapshotArchive = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(a, back, "tip must be rebuilt identically on deserialize");
        // And the rebuilt archive accepts further pushes.
        let mut back = back;
        back.push(snap(1, 12, "x", "hostname h\n!\n")).unwrap();
        assert_eq!(back.device_texts(DeviceId(1)).last().unwrap(), "hostname h\n!\n");
    }

    #[test]
    fn interning_is_counted() {
        let before = mpa_obs::counters::snapshot();
        let mut a = SnapshotArchive::new();
        a.push(snap(1, 0, "x", "dup\ndup\nuniq\n")).unwrap();
        let diff = mpa_obs::counters::snapshot_diff(&before, &mpa_obs::counters::snapshot());
        let get = |name: &str| diff.iter().find(|(n, _)| *n == name).unwrap().1;
        // Lower bounds: other tests intern concurrently in this process.
        assert!(get("archive_lines_interned") >= 2, "dup + uniq stored once each");
        assert!(get("archive_line_hits") >= 1, "second dup is a hit");
        assert!(get("archive_bytes_saved") >= 4, "len(\"dup\") + newline");
    }

    #[test]
    fn delta_cursor_replays_history_without_materializing() {
        let texts = ["a\nb\n", "a\nc\nb\n", "a\nc\nb\n", "a\nb"];
        let mut a = SnapshotArchive::new();
        for (i, t) in texts.iter().enumerate() {
            a.push(snap(5, i as u64 * 10, "x", t)).unwrap();
        }
        let mut cur = a.delta_cursor(DeviceId(5)).expect("history exists");
        assert_eq!(cur.len(), 4);
        assert!(!cur.is_empty());
        let mut seen = Vec::new();
        loop {
            // Re-materialize through the cursor's state to prove it tracks
            // each snapshot exactly (trailing newline via text_len).
            let mut text = String::new();
            for (k, &id) in cur.lines().iter().enumerate() {
                if k > 0 {
                    text.push('\n');
                }
                text.push_str(cur.line_text(id));
            }
            if text.len() + 1 == cur.text_len() {
                text.push('\n');
            }
            assert_eq!(cur.meta().time, Timestamp(cur.index() as u64 * 10));
            seen.push(text);
            if cur.advance().is_none() {
                break;
            }
        }
        assert_eq!(seen, texts);
        assert!(a.delta_cursor(DeviceId(99)).is_none());
        assert!(a.n_interned_lines() >= 3, "a, b, c interned");
        assert_eq!(a.line_text(LineId(0)), "a");
    }

    #[test]
    fn user_directory_still_classifies() {
        use crate::snapshot::UserDirectory;
        let dir = UserDirectory::new(["svc-netauto".to_string()]);
        assert!(dir.is_automated(&Login::new("svc-netauto")));
        assert!(!dir.is_automated(&Login::new("alice")));
    }
}
