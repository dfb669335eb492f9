//! Design-fact extraction from parsed configurations.
//!
//! The paper's design metrics (Table 1, lines D4–D6) require understanding a
//! config's *logical* content: which data-plane constructs are in use, which
//! routing processes run, and how many configuration references exist within
//! and across devices. The paper extends Batfish for this; [`ConfigFacts`]
//! is our equivalent, computed strictly from [`ParsedConfig`] (i.e., from
//! the rendered text — never from the simulator's semantic intent).
//!
//! Reference conventions:
//!
//! * **Intra-device** references: an interface referencing a VLAN
//!   (`switchport access vlan N`) or an ACL (`ip access-group NAME` /
//!   `filter input NAME`); a VLAN stanza referencing member interfaces
//!   (brace dialect). Only references whose target stanza exists are
//!   counted, following Benson et al.'s referential-complexity definition.
//! * **Inter-device** references: BGP neighbor statements whose address is
//!   another device's loopback, and link descriptions naming a peer device
//!   (`description link to <hostname>`).

use crate::addr::parse_loopback;
use crate::parse::ParsedConfig;
use mpa_model::device::Dialect;
use mpa_model::DeviceId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A layer-2 data-plane protocol in use (paper line D4; Fig 11(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum L2Protocol {
    /// Virtual LANs.
    Vlan,
    /// Spanning tree.
    SpanningTree,
    /// Link aggregation.
    LinkAgg,
    /// Unidirectional link detection.
    Udld,
    /// DHCP relay.
    DhcpRelay,
}

/// Facts extracted from one device's configuration text.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigFacts {
    /// Number of interface stanzas.
    pub iface_count: usize,
    /// Number of VLAN stanzas.
    pub vlan_count: usize,
    /// The VLAN ids configured on this device (for network-wide distinct
    /// counting; line D4's "number of VLANs configured").
    pub vlan_ids: BTreeSet<u16>,
    /// Number of ACL/filter stanzas.
    pub acl_count: usize,
    /// Total ACL rules across all ACLs.
    pub acl_rule_count: usize,
    /// Number of load-balancer pools.
    pub pool_count: usize,
    /// Total pool members.
    pub pool_member_count: usize,
    /// Number of local user accounts.
    pub user_count: usize,
    /// Number of QoS classes.
    pub qos_class_count: usize,
    /// Whether sFlow export is configured.
    pub has_sflow: bool,
    /// Layer-2 protocols in use.
    pub l2_protocols: BTreeSet<L2Protocol>,
    /// Whether BGP runs, and its local AS if declared.
    pub bgp_local_as: Option<u32>,
    /// BGP neighbors resolved to other managed devices.
    pub bgp_neighbor_devices: Vec<DeviceId>,
    /// BGP neighbors outside the managed address plan.
    pub bgp_external_neighbors: usize,
    /// OSPF process id, if OSPF runs.
    pub ospf_process: Option<u32>,
    /// Intra-device configuration references.
    pub intra_refs: usize,
    /// Devices referenced from this config (BGP neighbors + link
    /// descriptions), with multiplicity.
    pub inter_ref_devices: Vec<DeviceId>,
}

impl ConfigFacts {
    /// Number of distinct layer-3 routing protocols in use (0–2).
    pub fn l3_protocol_count(&self) -> usize {
        usize::from(self.bgp_local_as.is_some()) + usize::from(self.ospf_process.is_some())
    }

    /// Number of inter-device references.
    pub fn inter_refs(&self) -> usize {
        self.inter_ref_devices.len()
    }
}

/// Extract facts from a parsed configuration.
pub fn extract_facts(cfg: &ParsedConfig<'_>) -> ConfigFacts {
    match cfg.dialect {
        Dialect::BlockKeyword => extract_block(cfg),
        Dialect::BraceHierarchy => extract_brace(cfg),
    }
}

/// Pull the peer device out of a `description ... link to <hostname>` line.
/// Hostnames end in `dev<ID>` (see `Device::hostname`).
fn description_peer(line: &str) -> Option<DeviceId> {
    let (_, rest) = line.split_once("link to ")?;
    let host = rest.trim().trim_matches('"');
    let dev_pos = host.rfind("dev")?;
    host[dev_pos + 3..].parse().ok().map(DeviceId)
}

fn extract_block(cfg: &ParsedConfig<'_>) -> ConfigFacts {
    let mut f = ConfigFacts::default();

    let vlan_ids: BTreeSet<&str> = cfg.of_kind("vlan").map(|s| s.name.as_ref()).collect();
    let acl_names: BTreeSet<&str> = cfg.of_kind("ip access-list").map(|s| s.name.as_ref()).collect();

    f.vlan_ids = vlan_ids.iter().filter_map(|n| n.parse().ok()).collect();
    f.vlan_count = vlan_ids.len();
    f.acl_count = acl_names.len();
    f.acl_rule_count = cfg
        .of_kind("ip access-list")
        .map(|s| s.lines.iter().filter(|l| l.starts_with("permit") || l.starts_with("deny")).count())
        .sum();
    f.user_count = cfg.count_kind("username");
    f.qos_class_count = cfg.count_kind("class-map");
    f.has_sflow = cfg.count_kind("sflow") > 0;

    if f.vlan_count > 0 {
        f.l2_protocols.insert(L2Protocol::Vlan);
    }
    if cfg.count_kind("spanning-tree") > 0 {
        f.l2_protocols.insert(L2Protocol::SpanningTree);
    }
    if cfg.count_kind("lacp") > 0 {
        f.l2_protocols.insert(L2Protocol::LinkAgg);
    }
    if cfg.count_kind("udld") > 0 {
        f.l2_protocols.insert(L2Protocol::Udld);
    }
    if cfg.count_kind("ip dhcp relay") > 0 {
        f.l2_protocols.insert(L2Protocol::DhcpRelay);
    }

    for s in cfg.of_kind("interface") {
        f.iface_count += 1;
        for line in &s.lines {
            if let Some(rest) = line.strip_prefix("switchport access vlan ") {
                if vlan_ids.contains(rest.trim()) {
                    f.intra_refs += 1;
                }
            } else if let Some(rest) = line.strip_prefix("ip access-group ") {
                let name = rest.split_whitespace().next().unwrap_or_default();
                if acl_names.contains(name) {
                    f.intra_refs += 1;
                }
            } else if line.starts_with("description") {
                if let Some(dev) = description_peer(line) {
                    f.inter_ref_devices.push(dev);
                }
            }
        }
    }

    for s in cfg.of_kind("router bgp") {
        f.bgp_local_as = s.name.parse().ok();
        for line in &s.lines {
            if let Some(rest) = line.strip_prefix("neighbor ") {
                let ip = rest.split_whitespace().next().unwrap_or_default();
                match parse_loopback(ip) {
                    Some(dev) => {
                        f.bgp_neighbor_devices.push(dev);
                        f.inter_ref_devices.push(dev);
                    }
                    None => f.bgp_external_neighbors += 1,
                }
            }
        }
    }
    for s in cfg.of_kind("router ospf") {
        f.ospf_process = s.name.parse().ok();
    }

    for s in cfg.of_kind("pool") {
        f.pool_count += 1;
        f.pool_member_count += s.lines.iter().filter(|l| l.starts_with("member ")).count();
    }

    f
}

fn extract_brace(cfg: &ParsedConfig<'_>) -> ConfigFacts {
    let mut f = ConfigFacts::default();

    let iface_names: BTreeSet<&str> = cfg.of_kind("interfaces").map(|s| s.name.as_ref()).collect();
    let filter_names: BTreeSet<&str> =
        cfg.of_kind("firewall filter").map(|s| s.name.as_ref()).collect();

    f.iface_count = iface_names.len();
    f.vlan_count = cfg.count_kind("vlans");
    for s in cfg.of_kind("vlans") {
        for line in &s.lines {
            if let Some(rest) = line.strip_prefix("vlan-id ") {
                if let Ok(id) = rest.trim().parse() {
                    f.vlan_ids.insert(id);
                }
            }
        }
    }
    f.acl_count = filter_names.len();
    f.acl_rule_count = cfg
        .of_kind("firewall filter")
        .map(|s| s.lines.iter().filter(|l| l.contains("from protocol")).count())
        .sum();
    f.user_count = cfg.count_kind("system login user");
    f.qos_class_count = cfg.count_kind("class-of-service");
    f.has_sflow = cfg.count_kind("protocols sflow") > 0;

    if f.vlan_count > 0 {
        f.l2_protocols.insert(L2Protocol::Vlan);
    }
    if cfg.count_kind("protocols rstp") > 0 {
        f.l2_protocols.insert(L2Protocol::SpanningTree);
    }
    if cfg.count_kind("protocols lacp") > 0 {
        f.l2_protocols.insert(L2Protocol::LinkAgg);
    }
    if cfg.count_kind("protocols udld") > 0 {
        f.l2_protocols.insert(L2Protocol::Udld);
    }
    if cfg.count_kind("forwarding-options dhcp-relay") > 0 {
        f.l2_protocols.insert(L2Protocol::DhcpRelay);
    }

    for s in cfg.of_kind("interfaces") {
        for line in &s.lines {
            if let Some(rest) = line.strip_prefix("filter input ") {
                if filter_names.contains(rest.trim()) {
                    f.intra_refs += 1;
                }
            } else if line.starts_with("description") {
                if let Some(dev) = description_peer(line) {
                    f.inter_ref_devices.push(dev);
                }
            }
        }
    }

    // VLAN member lists reference interfaces (the reverse direction of the
    // block dialect — same underlying complexity, counted the same way).
    for s in cfg.of_kind("vlans") {
        for line in &s.lines {
            if let Some(rest) = line.strip_prefix("interface ") {
                if iface_names.contains(rest.trim()) {
                    f.intra_refs += 1;
                }
            }
        }
    }

    for s in cfg.of_kind("protocols bgp") {
        for line in &s.lines {
            if let Some(rest) = line.strip_prefix("local-as ") {
                f.bgp_local_as = rest.trim().parse().ok();
            } else if let Some(rest) = line.strip_prefix("neighbor ") {
                let ip = rest.split_whitespace().next().unwrap_or_default();
                match parse_loopback(ip) {
                    Some(dev) => {
                        f.bgp_neighbor_devices.push(dev);
                        f.inter_ref_devices.push(dev);
                    }
                    None => f.bgp_external_neighbors += 1,
                }
            }
        }
    }
    for s in cfg.of_kind("protocols ospf") {
        for line in &s.lines {
            if let Some(rest) = line.strip_prefix("process ") {
                f.ospf_process = rest.trim().parse().ok();
            }
        }
    }

    for s in cfg.of_kind("load-balance pool") {
        f.pool_count += 1;
        f.pool_member_count += s.lines.iter().filter(|l| l.starts_with("member ")).count();
    }

    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::device_loopback;
    use crate::parse::parse_config;
    use crate::render::render_config;
    use crate::semantic::{AclRule, DeviceConfig};

    fn rich(dialect: Dialect) -> DeviceConfig {
        let mut c = DeviceConfig::new("net0-sw-dev0", dialect);
        c.set_description(1, "link to net0-rtr-dev7");
        c.set_description(2, "link to net0-rtr-dev8");
        c.assign_interface_vlan(1, 10);
        c.assign_interface_vlan(2, 10);
        c.assign_interface_vlan(3, 20);
        c.acl_add_rule("edge", AclRule { permit: true, protocol: "tcp".into(), port: 443 });
        c.acl_add_rule("edge", AclRule { permit: false, protocol: "udp".into(), port: 53 });
        c.apply_acl(1, "edge");
        c.bgp_add_neighbor(65001, &device_loopback(DeviceId(7)), 65007);
        c.bgp_add_neighbor(65001, "172.16.0.9", 64512); // external peer
        c.ospf_advertise(1, "10.0.0.0/8");
        c.add_pool("web", "http");
        c.pool_add_member("web", "192.168.1.10:443");
        c.pool_add_member("web", "192.168.1.11:443");
        c.add_user("ops1", "operator");
        c.features.spanning_tree = true;
        c.features.udld = true;
        c.set_sflow("192.0.2.9", 2048);
        c.set_qos_class("voice", 46);
        c
    }

    fn facts(dialect: Dialect) -> ConfigFacts {
        let cfg = rich(dialect);
        extract_facts(&parse_config(&render_config(&cfg), dialect).unwrap())
    }

    #[test]
    fn facts_agree_across_dialects() {
        let a = facts(Dialect::BlockKeyword);
        let b = facts(Dialect::BraceHierarchy);
        assert_eq!(a.iface_count, 3);
        assert_eq!(b.iface_count, 3);
        assert_eq!(a.vlan_count, 2);
        assert_eq!(b.vlan_count, 2);
        assert_eq!(a.vlan_ids, [10, 20].into_iter().collect());
        assert_eq!(b.vlan_ids, [10, 20].into_iter().collect());
        assert_eq!(a.acl_count, 1);
        assert_eq!(b.acl_count, 1);
        assert_eq!(a.acl_rule_count, 2);
        assert_eq!(b.acl_rule_count, 2);
        assert_eq!(a.pool_count, 1);
        assert_eq!(b.pool_count, 1);
        assert_eq!(a.pool_member_count, 2);
        assert_eq!(b.pool_member_count, 2);
        assert_eq!(a.user_count, 1);
        assert_eq!(b.user_count, 1);
        assert_eq!(a.qos_class_count, 1);
        assert_eq!(b.qos_class_count, 1);
        assert!(a.has_sflow && b.has_sflow);
        assert_eq!(a.bgp_local_as, Some(65001));
        assert_eq!(b.bgp_local_as, Some(65001));
        assert_eq!(a.ospf_process, Some(1));
        assert_eq!(b.ospf_process, Some(1));
        assert_eq!(a.bgp_external_neighbors, 1);
        assert_eq!(b.bgp_external_neighbors, 1);
        assert_eq!(a.bgp_neighbor_devices, vec![DeviceId(7)]);
        assert_eq!(b.bgp_neighbor_devices, vec![DeviceId(7)]);
    }

    #[test]
    fn protocol_counts() {
        let f = facts(Dialect::BlockKeyword);
        // L2: vlan + stp + udld = 3; L3: bgp + ospf = 2.
        assert_eq!(f.l2_protocols.len(), 3);
        assert_eq!(f.l3_protocol_count(), 2);
    }

    #[test]
    fn intra_refs_count_reference_edges_in_both_dialects() {
        // Block dialect: 3 vlan memberships (iface→vlan) + 1 acl binding = 4.
        let a = facts(Dialect::BlockKeyword);
        assert_eq!(a.intra_refs, 4);
        // Brace dialect: memberships live in the vlans stanza (vlan→iface),
        // same 3 edges + 1 filter binding = 4.
        let b = facts(Dialect::BraceHierarchy);
        assert_eq!(b.intra_refs, 4);
    }

    #[test]
    fn inter_refs_combine_bgp_and_descriptions() {
        for d in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            let f = facts(d);
            // 2 link descriptions (dev7, dev8) + 1 managed BGP neighbor (dev7).
            assert_eq!(f.inter_refs(), 3, "{d:?}");
            assert!(f.inter_ref_devices.contains(&DeviceId(8)));
        }
    }

    #[test]
    fn description_peer_parsing() {
        assert_eq!(description_peer("description link to net0-rtr-dev7"), Some(DeviceId(7)));
        assert_eq!(description_peer("description \"link to net3-sw-dev42\""), Some(DeviceId(42)));
        assert_eq!(description_peer("description uplink to core"), None);
        assert_eq!(description_peer("mtu 1500"), None);
    }

    #[test]
    fn dangling_references_are_not_counted() {
        // An interface referencing a non-existent VLAN should not count.
        let text = "hostname h\n!\ninterface Eth0/1\n switchport access vlan 99\n!\n";
        let f = extract_facts(&parse_config(text, Dialect::BlockKeyword).unwrap());
        assert_eq!(f.intra_refs, 0);
        assert_eq!(f.vlan_count, 0);
    }

    #[test]
    fn empty_config_yields_zero_facts() {
        let c = DeviceConfig::new("h", Dialect::BlockKeyword);
        let text = render_config(&c);
        let f = extract_facts(&parse_config(&text, Dialect::BlockKeyword).unwrap());
        assert!(f.l2_protocols.is_empty());
        assert_eq!(f.l3_protocol_count(), 0);
        assert_eq!(f.intra_refs, 0);
        assert_eq!(f.inter_refs(), 0);
        assert_eq!(f.iface_count, 0);
    }
}
