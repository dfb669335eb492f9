//! Replaying the snapshot archive into per-device change records.
//!
//! "We infer operational practices by comparing two successive configuration
//! snapshots from the same device" (§2.2). Each successive snapshot pair
//! that differs in at least one stanza becomes one [`DeviceChange`], typed
//! by the vendor-agnostic stanza types it touched and classified as
//! automated or manual from its login metadata.

use mpa_config::snapshot::{Login, SnapshotMeta, UserDirectory};
use mpa_config::typemap::ChangeType;
use mpa_config::{diff_configs, parse_config, ParsedConfig, SnapshotArchive};
use mpa_model::device::Dialect;
use mpa_model::{DeviceId, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One inferred configuration change on one device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceChange {
    /// Device that changed.
    pub device: DeviceId,
    /// Snapshot timestamp of the new configuration.
    pub time: Timestamp,
    /// Login that made the change.
    pub login: Login,
    /// Whether the login is an automation account.
    pub automated: bool,
    /// Distinct vendor-agnostic change types touched (sorted, deduped).
    pub types: Vec<ChangeType>,
    /// Number of stanzas that differed.
    pub n_stanzas: usize,
}

impl DeviceChange {
    /// Whether this change touched a given type.
    pub fn touches(&self, t: ChangeType) -> bool {
        self.types.binary_search(&t).is_ok()
    }
}

/// Replay a device's whole archived history into change records.
///
/// Snapshot pairs that are textually different but stanza-identical (e.g.
/// reordered whitespace) produce no record, matching the paper's "at least
/// one stanza differs" rule. Snapshots that fail to parse are skipped with
/// their predecessor retained as the diff base (defensive: our renderer
/// never produces such snapshots, but an inference layer must not panic on
/// dirty archives).
pub fn replay_device_changes(
    archive: &SnapshotArchive,
    device: DeviceId,
    dialect: Dialect,
    directory: &UserDirectory,
) -> Vec<DeviceChange> {
    let texts = archive.device_texts(device);
    let metas = archive.device_metas(device);
    let mut out = Vec::new();
    ParsedHistory::new(&texts, dialect).push_changes(device, metas, directory, &mut out);
    out
}

/// One device's snapshot texts, each distinct text parsed whole exactly
/// once: the full-parse walk behind [`replay_device_changes`] and the
/// inference oracle (`pipeline::infer_full`).
pub(crate) struct ParsedHistory<'t> {
    /// `slots[ix]`: the distinct-text slot of snapshot `ix`, numbered in
    /// first-seen order. A device that reverts to an earlier text reuses
    /// that text's slot, so equal slots mean byte-identical texts.
    pub(crate) slots: Vec<usize>,
    /// The parse of each distinct text, `None` where the parser rejects it.
    pub(crate) parsed: Vec<Option<ParsedConfig<'t>>>,
}

impl<'t> ParsedHistory<'t> {
    /// Slot and parse `texts` (a device's snapshots, oldest first).
    pub(crate) fn new(texts: &'t [String], dialect: Dialect) -> Self {
        // Lookup-only (never iterated): slots follow first-seen order.
        let mut first_seen: HashMap<&str, usize> = HashMap::new();
        let mut parsed = Vec::new();
        let slots = texts
            .iter()
            .map(|text| {
                *first_seen.entry(text).or_insert_with(|| {
                    parsed.push(parse_config(text, dialect).ok());
                    parsed.len() - 1
                })
            })
            .collect();
        Self { slots, parsed }
    }

    /// The parse of snapshot `ix`, `None` if it does not parse.
    pub(crate) fn at(&self, ix: usize) -> Option<&ParsedConfig<'t>> {
        self.parsed[self.slots[ix]].as_ref()
    }

    /// Append one record per successive pair of parseable snapshots that
    /// differ in at least one stanza. `metas` is the device's snapshot
    /// metadata, parallel to the texts.
    pub(crate) fn push_changes(
        &self,
        device: DeviceId,
        metas: &[SnapshotMeta],
        directory: &UserDirectory,
        out: &mut Vec<DeviceChange>,
    ) {
        let mut prev: Option<&ParsedConfig<'t>> = None;
        for (ix, meta) in metas.iter().enumerate() {
            let Some(parsed) = self.at(ix) else {
                continue;
            };
            if let Some(prev) = prev {
                let stanza_changes = diff_configs(prev, parsed);
                if !stanza_changes.is_empty() {
                    let mut types: Vec<ChangeType> =
                        stanza_changes.iter().map(|c| c.change_type).collect();
                    types.sort_unstable();
                    types.dedup();
                    out.push(DeviceChange {
                        device,
                        time: meta.time,
                        login: meta.login.clone(),
                        automated: directory.is_automated(&meta.login),
                        types,
                        n_stanzas: stanza_changes.len(),
                    });
                }
            }
            prev = Some(parsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_config::render_config;
    use mpa_config::semantic::{AclRule, DeviceConfig};
    use mpa_config::snapshot::Snapshot;

    fn snap(dev: u32, t: u64, login: &str, cfg: &DeviceConfig) -> Snapshot {
        Snapshot {
            meta: SnapshotMeta {
                device: DeviceId(dev),
                time: Timestamp(t),
                login: Login::new(login),
            },
            text: render_config(cfg),
        }
    }

    fn directory() -> UserDirectory {
        UserDirectory::new(["svc-netauto".to_string()])
    }

    #[test]
    fn replay_produces_typed_records() {
        let mut cfg = DeviceConfig::new("h", Dialect::BlockKeyword);
        cfg.assign_interface_vlan(1, 10);
        let mut archive = SnapshotArchive::new();
        archive.push(snap(1, 0, "alice", &cfg)).unwrap();

        cfg.acl_add_rule("edge", AclRule { permit: true, protocol: "tcp".into(), port: 443 });
        archive.push(snap(1, 100, "svc-netauto", &cfg)).unwrap();

        cfg.set_description(1, "rewired");
        archive.push(snap(1, 200, "bob", &cfg)).unwrap();

        let changes =
            replay_device_changes(&archive, DeviceId(1), Dialect::BlockKeyword, &directory());
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].types, vec![ChangeType::Acl]);
        assert!(changes[0].automated);
        assert_eq!(changes[1].types, vec![ChangeType::Interface]);
        assert!(!changes[1].automated);
        assert!(changes[0].touches(ChangeType::Acl));
        assert!(!changes[0].touches(ChangeType::Interface));
    }

    #[test]
    fn identical_snapshots_produce_no_record() {
        let cfg = DeviceConfig::new("h", Dialect::BlockKeyword);
        let mut archive = SnapshotArchive::new();
        archive.push(snap(1, 0, "a", &cfg)).unwrap();
        archive.push(snap(1, 50, "a", &cfg)).unwrap();
        let changes =
            replay_device_changes(&archive, DeviceId(1), Dialect::BlockKeyword, &directory());
        assert!(changes.is_empty());
    }

    #[test]
    fn unknown_device_yields_empty() {
        let archive = SnapshotArchive::new();
        assert!(replay_device_changes(&archive, DeviceId(9), Dialect::BlockKeyword, &directory())
            .is_empty());
    }

    #[test]
    fn unparseable_snapshots_are_skipped_gracefully() {
        let mut cfg = DeviceConfig::new("h", Dialect::BlockKeyword);
        let mut archive = SnapshotArchive::new();
        archive.push(snap(1, 0, "a", &cfg)).unwrap();
        // A corrupt snapshot (no hostname) in the middle.
        archive
            .push(Snapshot {
                meta: SnapshotMeta {
                    device: DeviceId(1),
                    time: Timestamp(10),
                    login: Login::new("a"),
                },
                text: "  orphan garbage\n".to_string(),
            })
            .unwrap();
        cfg.add_vlan(20);
        archive.push(snap(1, 20, "a", &cfg)).unwrap();
        let changes =
            replay_device_changes(&archive, DeviceId(1), Dialect::BlockKeyword, &directory());
        assert_eq!(changes.len(), 1, "diff bridges across the corrupt snapshot");
        assert_eq!(changes[0].types, vec![ChangeType::Vlan]);
    }

    #[test]
    fn multi_stanza_change_counts_each_type_once() {
        let mut cfg = DeviceConfig::new("h", Dialect::BlockKeyword);
        cfg.assign_interface_vlan(1, 10);
        let mut archive = SnapshotArchive::new();
        archive.push(snap(1, 0, "a", &cfg)).unwrap();
        cfg.assign_interface_vlan(2, 10);
        cfg.assign_interface_vlan(3, 10);
        cfg.add_user("tmp1", "contractor");
        archive.push(snap(1, 60, "a", &cfg)).unwrap();
        let changes =
            replay_device_changes(&archive, DeviceId(1), Dialect::BlockKeyword, &directory());
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].types, vec![ChangeType::Interface, ChangeType::User]);
        assert!(changes[0].n_stanzas >= 3);
    }
}
