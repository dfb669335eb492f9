//! Delta-native incremental inference over the snapshot archive.
//!
//! The full-parse pipeline materializes every distinct snapshot (~GBs of
//! text at paper scale), re-parses each one and diffs adjacent parses —
//! even though the archive already stores each history as base + line
//! deltas and successive snapshots differ in a handful of lines. This
//! module derives the same stanza-level change records **from the delta
//! stream**: string parsing happens only for stanza *segments* whose
//! interned line-id span has never been seen before, so the string-level
//! cost is proportional to changed bytes, not total bytes.
//!
//! The machinery, per network (one [`DeltaInference`] per
//! `infer_network` call, devices processed sequentially inside it):
//!
//! 1. **Line classification** ([`LineClasses`], built once per archive):
//!    every interned line is classified per dialect with a single byte —
//!    skip/indent/header for the block dialect, skip/leaf/open/close for
//!    the brace dialect. Classification agrees with the full parsers by
//!    construction (same trim/prefix rules, unit-tested against them).
//! 2. **Segmentation** (integer-only, per distinct snapshot state): the
//!    line-id sequence is cut into stanza segments — header to next
//!    header (block), balanced top-level brace group (brace). Malformed
//!    states (orphan indent, unbalanced braces, no hostname) are flagged
//!    unparseable exactly where the full parser errors.
//! 3. **Segment cache** (the incremental stanza index): segments are
//!    keyed by their exact id span; only novel spans are rendered and
//!    parsed — through the *same* parser cores as the full path
//!    (`parse_block_lines` / `parse_tree` + `brace_stanzas`) — into owned
//!    stanzas with interned `(dialect, kind, name)` keys ([`KeyId`]).
//!    Invalidation is automatic: any line change produces a different id
//!    span, which simply misses the cache; unchanged segments can never
//!    be stale because the key *is* the content.
//! 4. **Summaries + diff**: each parseable state keeps its key-sorted
//!    winner list (last stanza per key, matching the full diff's
//!    last-duplicate-wins indexing); diffing two states is a merge walk
//!    emitting `diff_configs`-equivalent added/removed/updated records
//!    without touching stanza text unless a key's winner moved.
//!
//! Equivalence with the full path is enforced by property tests
//! (arbitrary histories, both dialects, reverts, trailing-newline edge
//! cases) and by the pipeline-level oracle (`mpa_metrics::infer_full`).

use crate::archive::{LineId, SnapshotArchive};
use crate::diff::{ChangeAction, StanzaChange};
use crate::parse::{brace_stanzas, parse_block_lines, parse_tree, BlockLines};
use crate::parse::{ParsedConfig, ParsedStanza};
use crate::typemap::{map_stanza_kind, ChangeType};
use mpa_model::device::Dialect;
use mpa_model::DeviceId;
use std::borrow::Cow;
use std::collections::HashMap;

// Per-line classes, one byte per interned line per dialect.
const BLOCK_SKIP: u8 = 0; // blank or `!` comment — ignored by the parser
const BLOCK_INDENT: u8 = 1; // indented body line — attaches to the stanza above
const BLOCK_HEADER: u8 = 2; // column-zero header — starts a stanza
const BLOCK_HOSTNAME: u8 = 3; // header whose kind is `hostname`
const BRACE_SKIP: u8 = 0; // blank — ignored
const BRACE_LEAF: u8 = 1; // statement line
const BRACE_OPEN: u8 = 2; // `... {` — opens a block
const BRACE_CLOSE: u8 = 3; // `}` — closes a block

/// Per-dialect structural class of every interned line in an archive.
///
/// Built once (before the per-network fan-out) and shared read-only by all
/// workers: classification is a pure function of line text, so a single
/// `Vec<u8>` lookup replaces all string inspection in the per-snapshot
/// segmentation scans. The intern table only grows, so a long-lived
/// owner keeps the classes current with [`Self::extend`].
#[derive(Debug, PartialEq, Eq)]
pub struct LineClasses {
    block: Vec<u8>,
    brace: Vec<u8>,
}

impl LineClasses {
    /// Classify every interned line of `archive`, for both dialects.
    pub fn new(archive: &SnapshotArchive) -> Self {
        let mut classes = Self { block: Vec::new(), brace: Vec::new() };
        classes.extend(archive);
        classes
    }

    /// Classify the lines `archive` interned since these classes were
    /// built from it.
    pub fn extend(&mut self, archive: &SnapshotArchive) {
        let n = archive.n_interned_lines();
        self.block.reserve(n.saturating_sub(self.block.len()));
        self.brace.reserve(n.saturating_sub(self.brace.len()));
        for i in self.block.len()..n {
            let line = archive.line_text(LineId(i as u32));
            self.block.push(classify_block(line));
            self.brace.push(classify_brace(line));
        }
    }

    fn of(&self, dialect: Dialect) -> &[u8] {
        match dialect {
            Dialect::BlockKeyword => &self.block,
            Dialect::BraceHierarchy => &self.brace,
        }
    }
}

/// Block-dialect class of one line, mirroring `parse_block_lines` exactly:
/// the skip check runs before the indent check, and a header is a
/// `hostname` header iff its first whitespace token is `hostname` (the
/// only way `classify_block_header` yields that kind, keyword rule and
/// open-world fallback alike).
fn classify_block(raw: &str) -> u8 {
    let t = raw.trim();
    if t.is_empty() || t == "!" {
        return BLOCK_SKIP;
    }
    if raw.starts_with(' ') || raw.starts_with('\t') {
        return BLOCK_INDENT;
    }
    if raw.split_whitespace().next() == Some("hostname") {
        return BLOCK_HOSTNAME;
    }
    BLOCK_HEADER
}

/// Brace-dialect class of one line, mirroring `parse_tree` exactly
/// (trim first; the open check precedes the close check).
fn classify_brace(raw: &str) -> u8 {
    let t = raw.trim();
    if t.is_empty() {
        BRACE_SKIP
    } else if t.ends_with('{') {
        BRACE_OPEN
    } else if t == "}" {
        BRACE_CLOSE
    } else {
        BRACE_LEAF
    }
}

fn dialect_ix(dialect: Dialect) -> usize {
    match dialect {
        Dialect::BlockKeyword => 0,
        Dialect::BraceHierarchy => 1,
    }
}

/// Fast multiply-mix hash of an id span (FxHash-style). Replay hashes
/// every snapshot's full id sequence and every segment span once, so this
/// sits on the replay hot path where SipHash is measurably slower. The
/// hash function cannot affect outputs: collisions are resolved by exact
/// span comparison and slot/entry ids are assigned in first-appearance
/// order, so any hash yields identical results — only lookup speed varies.
#[inline]
fn hash_ids(ids: &[LineId], seed: u64) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95; // FxHash's 64-bit multiplier
    let mut h = seed.wrapping_add(ids.len() as u64).wrapping_mul(K);
    for &LineId(id) in ids {
        h = (h.rotate_left(5) ^ u64::from(id)).wrapping_mul(K);
    }
    h
}

/// Interned `(dialect, kind, name)` stanza key. Ids are assigned in
/// first-appearance order within one [`DeltaInference`] engine and are
/// only meaningful there; use [`DeltaInference::change_type`] and
/// [`DeltaInference::stanza_changes`] to resolve them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(u32);

/// Stanza-key interner with memoized vendor-agnostic change types.
#[derive(Debug, Default)]
struct KeyInterner {
    /// Lookup-only (never iterated), so determinism is unaffected.
    map: HashMap<(usize, String, String), u32>,
    /// `(kind, name)` per id, in intern order.
    names: Vec<(String, String)>,
    /// `map_stanza_kind(dialect, kind)` per id, computed once.
    types: Vec<ChangeType>,
}

impl KeyInterner {
    fn intern(&mut self, dialect: Dialect, kind: &str, name: &str) -> KeyId {
        // mpa-lint: allow(R8) -- probe key allocation; hits the map and returns on the hot path
        let probe = (dialect_ix(dialect), kind.to_string(), name.to_string());
        if let Some(&id) = self.map.get(&probe) {
            return KeyId(id);
        }
        let id = u32::try_from(self.names.len()).expect("stanza key overflow");
        // mpa-lint: allow(R8) -- cold intern-miss path: each distinct stanza key is cloned once ever
        self.names.push((probe.1.clone(), probe.2.clone()));
        self.types.push(map_stanza_kind(dialect, kind));
        self.map.insert(probe, id);
        KeyId(id)
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// One cached stanza of a parsed segment (owned: segments outlive any
/// single snapshot state).
#[derive(Debug)]
struct SegStanza {
    key: KeyId,
    kind: String,
    name: String,
    lines: Vec<String>,
}

/// One parsed stanza segment: the unit of incremental re-parsing.
#[derive(Debug)]
struct Segment {
    stanzas: Vec<SegStanza>,
    /// Hostname effect of this segment in document-order folding:
    /// `None` = no hostname declaration; `Some(h)` = sets the hostname to
    /// `h`, where `h == None` resets it (the block dialect's bare
    /// `hostname` header).
    hostname: Option<Option<String>>,
}

/// The incremental stanza index for one dialect: parsed segments keyed by
/// their exact interned line-id span.
#[derive(Debug, Default)]
struct SegCache {
    entries: Vec<Segment>,
    /// Arena of the entries' id spans (the cache key material).
    ids: Vec<LineId>,
    /// Per-entry `(start, end)` into `ids`.
    spans: Vec<(usize, usize)>,
    /// Span-hash → candidate entries. Lookup-only; collisions resolved by
    /// comparing the stored spans, so determinism is unaffected.
    index: HashMap<u64, Vec<u32>>,
}

/// The analysis of one distinct snapshot state: its segment list, its
/// key-sorted winner summary, and the folded hostname. `None` for states
/// the full parser would reject.
#[derive(Debug)]
struct SlotParse {
    segs: Vec<u32>,
    /// `(key, entry, stanza_ix)` of the *last* stanza per key, sorted by
    /// key — the winner under the full diff's last-duplicate-wins map.
    summary: Vec<(KeyId, u32, u32)>,
    hostname: String,
}

/// One device's replayed history: the canonical distinct-state slot of
/// every snapshot plus each distinct state's analysis. Produced by
/// [`DeltaInference::replay_device`]; indices mirror
/// [`SnapshotArchive::device_metas`].
#[derive(Debug)]
pub struct DeviceReplay {
    dialect: Dialect,
    canon: Vec<u32>,
    slots: Vec<Option<SlotParse>>,
}

impl DeviceReplay {
    /// Snapshots in the replayed history.
    pub fn n_snapshots(&self) -> usize {
        self.canon.len()
    }

    /// Distinct snapshot states (dedup on `(line ids, byte length)`,
    /// identical to a full-text first-seen dedup; property-tested).
    pub fn n_distinct(&self) -> usize {
        self.slots.len()
    }

    /// Distinct-state slot carrying snapshot `ix` (first-appearance order).
    pub fn slot(&self, ix: usize) -> u32 {
        self.canon[ix]
    }

    /// Whether a distinct state parses (the full parser would succeed).
    pub fn parseable(&self, slot: u32) -> bool {
        self.slots[slot as usize].is_some()
    }
}

/// The per-network delta-native inference engine. See the module docs for
/// the architecture; one engine serves every device of a network so the
/// segment cache is shared across devices (stanzas repeat heavily within
/// a network).
#[derive(Debug)]
pub struct DeltaInference<'a> {
    archive: &'a SnapshotArchive,
    classes: &'a LineClasses,
    keys: KeyInterner,
    caches: [SegCache; 2],
    // Winner-stamping scratch (generation-tagged, grown to the key count).
    mark: Vec<u64>,
    win: Vec<(u32, u32)>,
    gen: u64,
    // Per-device state-dedup scratch, cleared by each `replay_device`.
    dedup_index: HashMap<u64, Vec<u32>>,
    state_ids: Vec<LineId>,
    state_spans: Vec<(usize, usize, usize)>,
    // Render scratch for novel brace segments.
    scratch: String,
}

impl<'a> DeltaInference<'a> {
    /// An engine over `archive` using the prebuilt `classes`.
    pub fn new(archive: &'a SnapshotArchive, classes: &'a LineClasses) -> Self {
        Self {
            archive,
            classes,
            keys: KeyInterner::default(),
            caches: [SegCache::default(), SegCache::default()],
            mark: Vec::new(),
            win: Vec::new(),
            gen: 0,
            dedup_index: HashMap::new(),
            state_ids: Vec::new(),
            state_spans: Vec::new(),
            scratch: String::new(),
        }
    }

    /// Replay one device's history through the delta cursor: dedup states
    /// on `(line ids, byte length)` and analyze each distinct state once
    /// (segmentation always; string parsing only for cache-novel
    /// segments). `None` if the device has no snapshots.
    pub fn replay_device(&mut self, dev: DeviceId, dialect: Dialect) -> Option<DeviceReplay> {
        let mut cursor = self.archive.delta_cursor(dev)?;
        self.dedup_index.clear();
        self.state_ids.clear();
        self.state_spans.clear();
        let mut canon: Vec<u32> = Vec::with_capacity(cursor.len());
        let mut slots: Vec<Option<SlotParse>> = Vec::new();
        loop {
            let text_len = cursor.text_len();
            let hash = hash_ids(cursor.lines(), text_len as u64);
            let found = self.dedup_index.get(&hash).and_then(|cands| {
                cands.iter().copied().find(|&s| {
                    let (start, end, len) = self.state_spans[s as usize];
                    len == text_len && self.state_ids[start..end] == *cursor.lines()
                })
            });
            let slot = match found {
                Some(s) => s,
                None => {
                    let s = u32::try_from(slots.len()).expect("distinct state overflow");
                    let start = self.state_ids.len();
                    self.state_ids.extend_from_slice(cursor.lines());
                    self.state_spans.push((start, self.state_ids.len(), text_len));
                    self.dedup_index.entry(hash).or_default().push(s);
                    let parse = self.analyze_state(dialect, cursor.lines());
                    slots.push(parse);
                    s
                }
            };
            canon.push(slot);
            if cursor.advance().is_none() {
                break;
            }
        }
        Some(DeviceReplay { dialect, canon, slots })
    }

    /// Segment one distinct state and fold its hostname; `None` where the
    /// full parser would error (orphan indent, unbalanced braces, missing
    /// hostname). Integer-only except for cache-novel segments.
    fn analyze_state(&mut self, dialect: Dialect, ids: &[LineId]) -> Option<SlotParse> {
        let classes = self.classes.of(dialect);
        let mut segs: Vec<u32> = Vec::new();
        match dialect {
            Dialect::BlockKeyword => {
                let mut i = 0;
                // Preamble: skips are fine, an indented line is an orphan.
                while i < ids.len() {
                    match classes[ids[i].0 as usize] {
                        BLOCK_SKIP => i += 1,
                        BLOCK_INDENT => return None,
                        _ => break,
                    }
                }
                // Each segment: one header plus everything up to the next
                // header (body lines and interior/trailing skips included,
                // so the span key covers exactly the lines whose change
                // could affect this stanza).
                while i < ids.len() {
                    let start = i;
                    i += 1;
                    while i < ids.len()
                        && !matches!(
                            classes[ids[i].0 as usize],
                            BLOCK_HEADER | BLOCK_HOSTNAME
                        )
                    {
                        i += 1;
                    }
                    segs.push(self.seg_for(dialect, &ids[start..i]));
                }
            }
            Dialect::BraceHierarchy => {
                let mut i = 0;
                while i < ids.len() {
                    match classes[ids[i].0 as usize] {
                        // Root-level leaves are discarded by the full
                        // parser; skips are ignored everywhere.
                        BRACE_SKIP | BRACE_LEAF => i += 1,
                        // A close at depth zero is unbalanced.
                        BRACE_CLOSE => return None,
                        _open => {
                            let start = i;
                            let mut depth = 1usize;
                            i += 1;
                            while i < ids.len() && depth > 0 {
                                match classes[ids[i].0 as usize] {
                                    BRACE_OPEN => depth += 1,
                                    BRACE_CLOSE => depth -= 1,
                                    _ => {}
                                }
                                i += 1;
                            }
                            if depth > 0 {
                                return None; // EOF inside a block
                            }
                            segs.push(self.seg_for(dialect, &ids[start..i]));
                        }
                    }
                }
            }
        }
        // Hostname fold in document order (later declarations win; a
        // block-dialect bare `hostname` resets).
        let mut hostname: Option<String> = None;
        {
            // mpa-lint: allow(R7) -- dialect_ix maps the two-variant Dialect onto the two cache slots
            let cache = &self.caches[dialect_ix(dialect)];
            for &seg in &segs {
                if let Some(update) = &cache.entries[seg as usize].hostname {
                    hostname = update.clone();
                }
            }
        }
        let hostname = hostname?;
        let summary = self.build_summary(dialect, &segs);
        Some(SlotParse { segs, summary, hostname })
    }

    /// The cache entry for an id span, parsing it if novel.
    fn seg_for(&mut self, dialect: Dialect, ids: &[LineId]) -> u32 {
        let tag = dialect_ix(dialect);
        let hash = hash_ids(ids, 0);
        if let Some(cands) = self.caches[tag].index.get(&hash) {
            let cache = &self.caches[tag];
            for &e in cands {
                let (start, end) = cache.spans[e as usize];
                if cache.ids[start..end] == *ids {
                    return e;
                }
            }
        }
        let (seg, bytes) =
            parse_segment(self.archive, &mut self.keys, &mut self.scratch, dialect, ids);
        mpa_obs::counters::INFER_STANZAS_REPARSED.add(seg.stanzas.len() as u64);
        mpa_obs::counters::INFER_DELTA_BYTES.add(bytes);
        let cache = &mut self.caches[tag];
        let e = u32::try_from(cache.entries.len()).expect("segment cache overflow");
        let start = cache.ids.len();
        cache.ids.extend_from_slice(ids);
        cache.spans.push((start, cache.ids.len()));
        cache.index.entry(hash).or_default().push(e);
        cache.entries.push(seg);
        e
    }

    /// Key-sorted winner list of one state: the last stanza per key in
    /// document order, which is what the full diff's map indexing keeps.
    fn build_summary(&mut self, dialect: Dialect, segs: &[u32]) -> Vec<(KeyId, u32, u32)> {
        let nk = self.keys.len();
        if self.mark.len() < nk {
            self.mark.resize(nk, 0);
            self.win.resize(nk, (0, 0));
        }
        self.gen += 1;
        let g = self.gen;
        let mut out: Vec<(KeyId, u32, u32)> = Vec::new();
        // mpa-lint: allow(R7) -- dialect_ix maps the two-variant Dialect onto the two cache slots
        let cache = &self.caches[dialect_ix(dialect)];
        for &seg in segs {
            for (ti, st) in cache.entries[seg as usize].stanzas.iter().enumerate() {
                let k = st.key.0 as usize;
                if self.mark[k] != g {
                    self.mark[k] = g;
                    out.push((st.key, 0, 0));
                }
                self.win[k] = (seg, ti as u32);
            }
        }
        out.sort_unstable_by_key(|&(k, _, _)| k);
        for entry in &mut out {
            let (seg, ti) = self.win[entry.0 .0 as usize];
            entry.1 = seg;
            entry.2 = ti;
        }
        out
    }

    /// Stanza changes between two parseable distinct states, written into
    /// `out` as `(key, action)` pairs ordered by key id. Equivalent to
    /// `diff_configs` on the two states' full parses (property-tested),
    /// computed as a merge walk of the winner summaries: stanza text is
    /// only compared when a key's winner moved between states.
    ///
    /// # Panics
    /// Panics if either slot is unparseable — callers must route only
    /// parseable states here, as the full path routes only successful
    /// parses into its diff.
    pub fn changes_between(
        &self,
        replay: &DeviceReplay,
        old_slot: u32,
        new_slot: u32,
        out: &mut Vec<(KeyId, ChangeAction)>,
    ) {
        out.clear();
        if old_slot == new_slot {
            return;
        }
        let old = replay.slots[old_slot as usize].as_ref().expect("old state parseable");
        let new = replay.slots[new_slot as usize].as_ref().expect("new state parseable");
        // mpa-lint: allow(R7) -- dialect_ix maps the two-variant Dialect onto the two cache slots
        let cache = &self.caches[dialect_ix(replay.dialect)];
        let (a, b) = (&old.summary, &new.summary);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push((a[i].0, ChangeAction::Removed));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((b[j].0, ChangeAction::Added));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if (a[i].1, a[i].2) != (b[j].1, b[j].2) {
                        let sa = &cache.entries[a[i].1 as usize].stanzas[a[i].2 as usize];
                        let sb = &cache.entries[b[j].1 as usize].stanzas[b[j].2 as usize];
                        if sa.lines != sb.lines {
                            out.push((a[i].0, ChangeAction::Updated));
                        }
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        for e in &a[i..] {
            out.push((e.0, ChangeAction::Removed));
        }
        for e in &b[j..] {
            out.push((e.0, ChangeAction::Added));
        }
    }

    /// The vendor-agnostic change type of an interned stanza key.
    pub fn change_type(&self, key: KeyId) -> ChangeType {
        self.keys.types[key.0 as usize]
    }

    /// Rendered stanza changes between two parseable states, sorted by
    /// `(kind, name)` — byte-equivalent to `diff_configs` on the full
    /// parses of the two states.
    pub fn stanza_changes(
        &self,
        replay: &DeviceReplay,
        old_slot: u32,
        new_slot: u32,
    ) -> Vec<StanzaChange> {
        let mut pairs = Vec::new();
        self.changes_between(replay, old_slot, new_slot, &mut pairs);
        let mut out: Vec<StanzaChange> = pairs
            .into_iter()
            .map(|(key, action)| {
                let (kind, name) = &self.keys.names[key.0 as usize];
                StanzaChange {
                    kind: kind.clone(),
                    name: name.clone(),
                    action,
                    change_type: self.keys.types[key.0 as usize],
                }
            })
            .collect();
        out.sort_by(|x, y| (&x.kind, &x.name).cmp(&(&y.kind, &y.name)));
        out
    }

    /// Assemble the full parsed configuration of a parseable state from
    /// its cached segments (borrowing the cached stanza text; equal to the
    /// full parser's output). `None` for unparseable states.
    pub fn state_config<'s>(
        &'s self,
        replay: &'s DeviceReplay,
        slot: u32,
    ) -> Option<ParsedConfig<'s>> {
        let state = replay.slots[slot as usize].as_ref()?;
        // mpa-lint: allow(R7) -- dialect_ix maps the two-variant Dialect onto the two cache slots
        let cache = &self.caches[dialect_ix(replay.dialect)];
        let mut stanzas = Vec::new();
        for &seg in &state.segs {
            for st in &cache.entries[seg as usize].stanzas {
                stanzas.push(ParsedStanza {
                    kind: Cow::Borrowed(st.kind.as_str()),
                    name: Cow::Borrowed(st.name.as_str()),
                    lines: st.lines.iter().map(|l| Cow::Borrowed(l.as_str())).collect(),
                });
            }
        }
        Some(ParsedConfig {
            hostname: Cow::Borrowed(state.hostname.as_str()),
            dialect: replay.dialect,
            stanzas,
        })
    }
}

/// Parse one cache-novel segment through the shared parser cores,
/// returning the owned segment and the bytes of text it covered (line
/// lengths + newlines — the "changed bytes" the delta path actually pays
/// string work for).
fn parse_segment(
    archive: &SnapshotArchive,
    keys: &mut KeyInterner,
    scratch: &mut String,
    dialect: Dialect,
    ids: &[LineId],
) -> (Segment, u64) {
    match dialect {
        Dialect::BlockKeyword => {
            let mut bytes = 0u64;
            let BlockLines { stanzas, hostname } = parse_block_lines(ids.iter().map(|&id| {
                let line = archive.line_text(id);
                bytes += line.len() as u64 + 1;
                line
            }))
            .expect("segment starts at a header line");
            let stanzas = own_stanzas(keys, dialect, &stanzas);
            let hostname = hostname.map(|h| h.map(str::to_string));
            (Segment { stanzas, hostname }, bytes)
        }
        Dialect::BraceHierarchy => {
            scratch.clear();
            for &id in ids {
                scratch.push_str(archive.line_text(id));
                scratch.push('\n');
            }
            let tree =
                parse_tree(scratch.as_str()).expect("segment braces balanced by construction");
            let (stanzas, hostname) = brace_stanzas(&tree);
            let stanzas = own_stanzas(keys, dialect, &stanzas);
            let hostname = hostname.map(|h| Some(h.to_string()));
            (Segment { stanzas, hostname }, scratch.len() as u64)
        }
    }
}

fn own_stanzas(
    keys: &mut KeyInterner,
    dialect: Dialect,
    stanzas: &[ParsedStanza<'_>],
) -> Vec<SegStanza> {
    stanzas
        .iter()
        .map(|s| SegStanza {
            key: keys.intern(dialect, &s.kind, &s.name),
            kind: s.kind.to_string(),
            name: s.name.to_string(),
            lines: s.lines.iter().map(|l| l.to_string()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_configs;
    use crate::parse::parse_config;
    use crate::snapshot::{Login, Snapshot, SnapshotMeta};
    use mpa_model::Timestamp;

    fn archive_of(dev: u32, texts: &[&str]) -> SnapshotArchive {
        let mut a = SnapshotArchive::new();
        for (i, t) in texts.iter().enumerate() {
            a.push(Snapshot {
                meta: SnapshotMeta {
                    device: DeviceId(dev),
                    time: Timestamp(i as u64 * 10),
                    login: Login::new("x"),
                },
                text: (*t).to_string(),
            })
            .unwrap();
        }
        a
    }

    /// Replay `texts` through the engine and check every state's assembled
    /// config and every adjacent transition's changes against the full
    /// parse + diff oracle.
    fn check_equivalence(dialect: Dialect, texts: &[&str]) {
        let archive = archive_of(1, texts);
        let classes = LineClasses::new(&archive);
        let mut engine = DeltaInference::new(&archive, &classes);
        let replay = engine.replay_device(DeviceId(1), dialect).expect("history");
        assert_eq!(replay.n_snapshots(), texts.len());
        let oracle: Vec<Option<ParsedConfig<'_>>> =
            texts.iter().map(|t| parse_config(t, dialect).ok()).collect();
        for (ix, want) in oracle.iter().enumerate() {
            let slot = replay.slot(ix);
            assert_eq!(replay.parseable(slot), want.is_some(), "snapshot {ix} parseability");
            if let Some(want) = want {
                let got = engine.state_config(&replay, slot).expect("parseable");
                assert_eq!(&got, want, "snapshot {ix} assembled config");
            }
        }
        for ix in 1..texts.len() {
            let (Some(old), Some(new)) = (&oracle[ix - 1], &oracle[ix]) else {
                continue;
            };
            let want = diff_configs(old, new);
            let got = engine.stanza_changes(&replay, replay.slot(ix - 1), replay.slot(ix));
            assert_eq!(got, want, "transition {} -> {}", ix - 1, ix);
        }
    }

    #[test]
    fn block_dialect_matches_oracle_on_edits_reverts_and_newlines() {
        check_equivalence(
            Dialect::BlockKeyword,
            &[
                "hostname h\n!\nvlan 10\n name v10\n!\n",
                "hostname h\n!\nvlan 10\n name v10-renamed\n!\n",
                "hostname h\n!\nvlan 10\n name v10-renamed\n!\nvlan 20\n name v20\n!\n",
                // Revert to the first state.
                "hostname h\n!\nvlan 10\n name v10\n!\n",
                // Same lines, no trailing newline: a distinct state whose
                // parse (and diff against the previous) is identical.
                "hostname h\n!\nvlan 10\n name v10\n!",
                // Hostname moves (hostname is a header stanza too).
                "hostname h2\n!\nvlan 10\n name v10\n!\n",
            ],
        );
    }

    #[test]
    fn block_dialect_flags_unparseable_states_like_the_oracle() {
        check_equivalence(
            Dialect::BlockKeyword,
            &[
                "hostname h\nvlan 10\n name v10\n",
                " orphan-indent first\nhostname h\n",   // orphan line
                "vlan 10\n name v10\n",                 // missing hostname
                "",                                     // empty text
                "hostname\n!\n",                        // bare hostname resets
                "hostname h\nvlan 10\n name v10\n name extra\n",
            ],
        );
    }

    #[test]
    fn brace_dialect_matches_oracle_on_edits_reverts_and_newlines() {
        check_equivalence(
            Dialect::BraceHierarchy,
            &[
                "system {\n host-name h;\n}\nvlans {\n v10 {\n vlan-id 10;\n }\n}\n",
                "system {\n host-name h;\n}\nvlans {\n v10 {\n vlan-id 11;\n }\n}\n",
                // Add a top-level block.
                "system {\n host-name h;\n}\nvlans {\n v10 {\n vlan-id 11;\n }\n}\nprotocols {\n rstp {\n enable;\n }\n}\n",
                // Revert.
                "system {\n host-name h;\n}\nvlans {\n v10 {\n vlan-id 10;\n }\n}\n",
                // Trailing-newline variant of the same lines.
                "system {\n host-name h;\n}\nvlans {\n v10 {\n vlan-id 10;\n }\n}",
            ],
        );
    }

    #[test]
    fn brace_dialect_flags_unparseable_states_like_the_oracle() {
        check_equivalence(
            Dialect::BraceHierarchy,
            &[
                "system {\n host-name h;\n}\n",
                "system {\n host-name h;\n",      // unbalanced open
                "}\nsystem {\n host-name h;\n}\n", // stray close
                "snmp {\n community public;\n}\n", // missing hostname
                "system {\n host-name h;\n}\nsystem {\n services;\n}\n",
            ],
        );
    }

    #[test]
    fn duplicate_stanza_keys_follow_last_wins() {
        // Two stanzas with the same (kind, name): the diff must track the
        // *last* one, exactly like the full diff's map indexing.
        check_equivalence(
            Dialect::BlockKeyword,
            &[
                "hostname h\nvlan 10\n name first\nvlan 10\n name second\n",
                "hostname h\nvlan 10\n name first\nvlan 10\n name changed\n",
                // Winner content unchanged but the duplicate removed: the
                // survivor has equal lines, so no change is reported for
                // the key (matching the oracle).
                "hostname h\nvlan 10\n name changed\n",
            ],
        );
    }

    #[test]
    fn segment_cache_only_parses_novel_segments() {
        let texts = [
            "hostname h\n!\nvlan 10\n name v10\n!\nvlan 20\n name v20\n!\n",
            "hostname h\n!\nvlan 10\n name v10-edited\n!\nvlan 20\n name v20\n!\n",
        ];
        let archive = archive_of(1, &texts);
        let classes = LineClasses::new(&archive);
        let mut engine = DeltaInference::new(&archive, &classes);
        engine.replay_device(DeviceId(1), Dialect::BlockKeyword).expect("history");
        // State 1: hostname + vlan10 + vlan20 = 3 novel segments. State 2
        // only re-parses the edited vlan10 segment. (Asserted on the
        // engine's own cache — the obs counter is process-global and other
        // tests increment it concurrently.)
        let entries = engine.caches[dialect_ix(Dialect::BlockKeyword)].entries.len();
        assert_eq!(entries, 4, "3 base segments + 1 changed segment");
    }

    #[test]
    fn classes_grown_across_pushes_equal_classes_of_the_final_archive() {
        let texts = [
            "hostname a\ninterface e0\n description one\n",
            "hostname a\ninterface e0\n description two\n!\n",
            "system {\n  host-name a;\n}\n",
            "system {\n  host-name b;\n}\nvlans {\n  v1;\n}\n",
        ];
        let mut archive = SnapshotArchive::new();
        let mut grown = LineClasses::new(&archive);
        for (i, t) in texts.iter().enumerate() {
            archive
                .push(Snapshot {
                    meta: SnapshotMeta {
                        device: DeviceId(1 + i as u32 % 2),
                        time: Timestamp(i as u64 * 10),
                        login: Login::new("x"),
                    },
                    text: (*t).to_string(),
                })
                .unwrap();
            grown.extend(&archive);
            assert_eq!(grown.block.len(), archive.n_interned_lines());
        }
        grown.extend(&archive);
        assert_eq!(grown, LineClasses::new(&archive));
    }
}
