//! Inventory records.
//!
//! Data source 1 of the paper (§2.1): "Most organizations directly track the
//! set of networks they manage ... the vendor, model, location, and role of
//! every device in their deployment, and the network it belongs to."
//!
//! [`Inventory`] is the flat, queryable view of that database: one record per
//! device, indexed by network. The metric-inference layer consumes *this*
//! view (not [`crate::Network`] directly), mirroring how the paper's pipeline
//! reads an inventory dump rather than a live topology.

use crate::device::{Device, DeviceModel, Firmware, Role};
use crate::ids::{DeviceId, NetworkId};
use serde::{Deserialize, Reader, Serialize};
use std::collections::BTreeMap;

/// One inventory row: the durable attributes of a device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InventoryRecord {
    /// Device id.
    pub device: DeviceId,
    /// Owning network.
    pub network: NetworkId,
    /// Hardware model (includes the vendor).
    pub model: DeviceModel,
    /// Role.
    pub role: Role,
    /// Firmware version recorded at inventory time.
    pub firmware: Firmware,
    /// Physical location tag (site / row / rack), free-form.
    pub location: String,
}

impl InventoryRecord {
    /// Build a record from a device and a location tag.
    pub fn from_device(d: &Device, location: impl Into<String>) -> Self {
        Self {
            device: d.id,
            network: d.network,
            model: d.model,
            role: d.role,
            firmware: d.firmware,
            location: location.into(),
        }
    }
}

/// The organization-wide inventory database.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Inventory {
    records: Vec<InventoryRecord>,
    #[serde(skip)]
    by_network: BTreeMap<NetworkId, Vec<usize>>,
}

/// Decoded through [`Inventory::new`], so the index (never on the wire) is
/// built with the records.
impl Deserialize for Inventory {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        // The derived reader of the wire fields, declared under this type's
        // name so that its errors read the same.
        #[derive(Deserialize)]
        struct Inventory {
            records: Vec<InventoryRecord>,
        }
        Inventory::deserialize(r).map(|wire| Self::new(wire.records))
    }
}

impl Inventory {
    /// Build an inventory from records (any order).
    pub fn new(records: Vec<InventoryRecord>) -> Self {
        let mut inv = Self { records, by_network: BTreeMap::new() };
        inv.rebuild_index();
        inv
    }

    /// Rebuild the per-network index from the records. [`Inventory::new`]
    /// and decoding already build it, so a further call changes nothing.
    pub fn rebuild_index(&mut self) {
        self.by_network.clear();
        for (i, r) in self.records.iter().enumerate() {
            self.by_network.entry(r.network).or_default().push(i);
        }
    }

    /// All records.
    pub fn records(&self) -> &[InventoryRecord] {
        &self.records
    }

    /// Total number of devices in the organization.
    pub fn n_devices(&self) -> usize {
        self.records.len()
    }

    /// Number of distinct networks that own at least one device.
    pub fn n_networks(&self) -> usize {
        self.by_network.len()
    }

    /// Records for one network (empty slice if unknown).
    pub fn network_records(&self, net: NetworkId) -> Vec<&InventoryRecord> {
        self.by_network
            .get(&net)
            .map(|ixs| ixs.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Network ids present in the inventory, ascending.
    pub fn network_ids(&self) -> Vec<NetworkId> {
        self.by_network.keys().copied().collect()
    }

    /// Look up a single device record.
    pub fn device_record(&self, dev: DeviceId) -> Option<&InventoryRecord> {
        // Records are appended network-by-network, not sorted by device id,
        // so this is a linear scan; it is only used in diagnostics.
        self.records.iter().find(|r| r.device == dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Vendor;

    fn rec(dev: u32, net: u32, role: Role) -> InventoryRecord {
        InventoryRecord {
            device: DeviceId(dev),
            network: NetworkId(net),
            model: DeviceModel { vendor: Vendor::Cirrus, line: 1 },
            role,
            firmware: Firmware { major: 1, minor: 0, patch: 0 },
            location: "dc1/r1".into(),
        }
    }

    #[test]
    fn indexing_by_network() {
        let inv = Inventory::new(vec![
            rec(0, 0, Role::Router),
            rec(1, 1, Role::Switch),
            rec(2, 0, Role::Switch),
        ]);
        assert_eq!(inv.n_devices(), 3);
        assert_eq!(inv.n_networks(), 2);
        assert_eq!(inv.network_records(NetworkId(0)).len(), 2);
        assert_eq!(inv.network_records(NetworkId(1)).len(), 1);
        assert!(inv.network_records(NetworkId(9)).is_empty());
        assert_eq!(inv.network_ids(), vec![NetworkId(0), NetworkId(1)]);
    }

    #[test]
    fn device_lookup() {
        let inv = Inventory::new(vec![rec(0, 0, Role::Router), rec(5, 1, Role::Adc)]);
        assert_eq!(inv.device_record(DeviceId(5)).unwrap().role, Role::Adc);
        assert!(inv.device_record(DeviceId(9)).is_none());
    }

    #[test]
    fn index_survives_serde_round_trip() {
        let inv = Inventory::new(vec![rec(0, 3, Role::Router)]);
        let json = serde_json::to_string(&inv).unwrap();
        let back: Inventory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.network_records(NetworkId(3)).len(), 1);
        assert_eq!(back, inv);
    }

    #[test]
    fn from_device_copies_attributes() {
        let d = Device {
            id: DeviceId(9),
            network: NetworkId(2),
            model: DeviceModel { vendor: Vendor::Nettle, line: 7 },
            role: Role::LoadBalancer,
            firmware: Firmware { major: 3, minor: 1, patch: 4 },
        };
        let r = InventoryRecord::from_device(&d, "dc2/r9");
        assert_eq!(r.device, d.id);
        assert_eq!(r.model, d.model);
        assert_eq!(r.location, "dc2/r9");
    }
}
