//! Semantic device configuration: the structured state an operator (or
//! automation) edits.
//!
//! [`DeviceConfig`] is the *source of truth* a network-management system
//! holds for one device. The operational simulator mutates it through the
//! semantic methods below (assign an interface to a VLAN, add an ACL rule,
//! resize a pool, …); the [`crate::render`] module then serializes it to
//! dialect-specific text, and only that text is visible to the inference
//! pipeline — mirroring reality, where intent is not logged (§2 of the
//! paper: "management practices are not explicitly logged").
//!
//! Every mutator keeps the config internally consistent (e.g. removing a
//! VLAN detaches its member interfaces) so that rendered snapshots always
//! parse cleanly.

use mpa_model::device::Dialect;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of one switched/routed port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterfaceCfg {
    /// Free-form description; link descriptions follow the pattern
    /// `link to <peer-hostname>` so inter-device references are extractable.
    pub description: String,
    /// Access VLAN membership, if any.
    pub access_vlan: Option<u16>,
    /// Inbound ACL/filter applied to the port.
    pub acl_in: Option<String>,
    /// Maximum transmission unit.
    pub mtu: u16,
    /// Administrative state.
    pub enabled: bool,
}

impl Default for InterfaceCfg {
    fn default() -> Self {
        Self { description: String::new(), access_vlan: None, acl_in: None, mtu: 1500, enabled: true }
    }
}

/// A named VLAN.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VlanCfg {
    /// Human-readable name (`v<id>` by convention).
    pub name: String,
}

/// One access-control rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AclRule {
    /// `permit` or `deny`.
    pub permit: bool,
    /// `tcp` or `udp`.
    pub protocol: String,
    /// Destination port matched.
    pub port: u16,
}

/// A named ACL (Cisco dialect: `ip access-list`; Juniper dialect:
/// `firewall filter` — the paper's canonical cross-vendor typing example).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AclCfg {
    /// Ordered rules.
    pub rules: Vec<AclRule>,
}

/// BGP routing process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BgpCfg {
    /// Local autonomous system number.
    pub local_as: u32,
    /// Neighbor address → remote AS.
    pub neighbors: BTreeMap<String, u32>,
}

/// OSPF routing process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OspfCfg {
    /// Process id.
    pub process: u32,
    /// Backbone area advertised networks (prefix strings).
    pub networks: Vec<String>,
}

/// A load-balancer server pool.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolCfg {
    /// Health-monitor type (`http`, `tcp`, ...).
    pub monitor: String,
    /// Member endpoints, `ip:port`.
    pub members: BTreeSet<String>,
}

/// A local user account.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserCfg {
    /// Authorization class.
    pub role: String,
}

/// Layer-2 feature toggles; each enabled feature counts as one data-plane
/// protocol in use (paper Table 1, line D4; Appendix A Fig 11(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2Features {
    /// Spanning tree (rapid PVST / RSTP).
    pub spanning_tree: bool,
    /// Link aggregation (LACP).
    pub lacp: bool,
    /// Unidirectional link detection.
    pub udld: bool,
    /// DHCP relay.
    pub dhcp_relay: bool,
}

/// sFlow export settings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SflowCfg {
    /// Collector address.
    pub collector: String,
    /// Sampling rate (1 in N packets).
    pub rate: u32,
}

/// A QoS class with a DSCP marking.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosClass {
    /// DSCP value assigned to the class.
    pub dscp: u8,
}

/// The full semantic configuration of one device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Device hostname (appears in the rendered config).
    pub hostname: String,
    /// Rendering dialect, fixed by the device's vendor.
    pub dialect: Dialect,
    /// Ports by port number.
    pub interfaces: BTreeMap<u16, InterfaceCfg>,
    /// VLANs by id.
    pub vlans: BTreeMap<u16, VlanCfg>,
    /// ACLs by name.
    pub acls: BTreeMap<String, AclCfg>,
    /// BGP process, if routing.
    pub bgp: Option<BgpCfg>,
    /// OSPF process, if routing.
    pub ospf: Option<OspfCfg>,
    /// Load-balancer pools by name (load balancers / ADCs only).
    pub pools: BTreeMap<String, PoolCfg>,
    /// Local user accounts.
    pub users: BTreeMap<String, UserCfg>,
    /// L2 feature toggles.
    pub features: L2Features,
    /// sFlow export.
    pub sflow: Option<SflowCfg>,
    /// QoS classes by name.
    pub qos: BTreeMap<String, QosClass>,
    /// NTP servers.
    pub ntp_servers: Vec<String>,
    /// SNMP community string.
    pub snmp_community: Option<String>,
}

impl DeviceConfig {
    /// A fresh config with nothing but a hostname.
    pub fn new(hostname: impl Into<String>, dialect: Dialect) -> Self {
        Self {
            hostname: hostname.into(),
            dialect,
            interfaces: BTreeMap::new(),
            vlans: BTreeMap::new(),
            acls: BTreeMap::new(),
            bgp: None,
            ospf: None,
            pools: BTreeMap::new(),
            users: BTreeMap::new(),
            features: L2Features::default(),
            sflow: None,
            qos: BTreeMap::new(),
            ntp_servers: Vec::new(),
            snmp_community: None,
        }
    }

    // --- interface operations -------------------------------------------

    /// Create (or reset) a port.
    pub fn add_interface(&mut self, port: u16) -> &mut InterfaceCfg {
        self.interfaces.entry(port).or_default()
    }

    /// Set a port's description.
    pub fn set_description(&mut self, port: u16, desc: impl Into<String>) {
        self.add_interface(port).description = desc.into();
    }

    /// Assign a port to an access VLAN, creating the VLAN if needed.
    ///
    /// This single semantic operation is the paper's cross-vendor typing
    /// example: rendered on the block-keyword dialect it edits the
    /// *interface* stanza (`switchport access vlan N`); on the
    /// brace-hierarchy dialect it edits the *vlans* stanza (member list).
    pub fn assign_interface_vlan(&mut self, port: u16, vlan: u16) {
        self.vlans.entry(vlan).or_insert_with(|| VlanCfg { name: format!("v{vlan}") });
        self.add_interface(port).access_vlan = Some(vlan);
    }

    /// Apply an ACL inbound on a port (the ACL must already exist).
    ///
    /// # Panics
    /// Panics if the ACL does not exist — simulator bugs should fail loudly.
    pub fn apply_acl(&mut self, port: u16, acl: &str) {
        assert!(self.acls.contains_key(acl), "ACL {acl} not defined on {}", self.hostname);
        self.add_interface(port).acl_in = Some(acl.to_string());
    }

    /// Toggle a port's administrative state.
    pub fn set_enabled(&mut self, port: u16, enabled: bool) {
        self.add_interface(port).enabled = enabled;
    }

    /// Set a port's MTU.
    pub fn set_mtu(&mut self, port: u16, mtu: u16) {
        self.add_interface(port).mtu = mtu;
    }

    // --- VLAN operations --------------------------------------------------

    /// Create a VLAN (idempotent).
    pub fn add_vlan(&mut self, vlan: u16) {
        self.vlans.entry(vlan).or_insert_with(|| VlanCfg { name: format!("v{vlan}") });
    }

    /// Remove a VLAN, detaching all member interfaces.
    pub fn remove_vlan(&mut self, vlan: u16) {
        self.vlans.remove(&vlan);
        for ifc in self.interfaces.values_mut() {
            if ifc.access_vlan == Some(vlan) {
                ifc.access_vlan = None;
            }
        }
    }

    /// Ports currently assigned to `vlan`, ascending.
    pub fn vlan_members(&self, vlan: u16) -> Vec<u16> {
        self.interfaces
            .iter()
            .filter(|(_, c)| c.access_vlan == Some(vlan))
            .map(|(&p, _)| p)
            .collect()
    }

    // --- ACL operations ---------------------------------------------------

    /// Append a rule to an ACL, creating the ACL if needed.
    pub fn acl_add_rule(&mut self, name: &str, rule: AclRule) {
        self.acls.entry(name.to_string()).or_default().rules.push(rule);
    }

    /// Remove the rule at `index` from an ACL, if it exists.
    pub fn acl_remove_rule(&mut self, name: &str, index: usize) {
        if let Some(acl) = self.acls.get_mut(name) {
            if index < acl.rules.len() {
                acl.rules.remove(index);
            }
        }
    }

    /// Delete an ACL and detach it from any interface.
    pub fn remove_acl(&mut self, name: &str) {
        self.acls.remove(name);
        for ifc in self.interfaces.values_mut() {
            if ifc.acl_in.as_deref() == Some(name) {
                ifc.acl_in = None;
            }
        }
    }

    // --- routing operations -----------------------------------------------

    /// Enable BGP with a local AS (idempotent; keeps existing neighbors).
    pub fn enable_bgp(&mut self, local_as: u32) {
        if self.bgp.is_none() {
            self.bgp = Some(BgpCfg { local_as, neighbors: BTreeMap::new() });
        }
    }

    /// Add (or update) a BGP neighbor. Enables BGP with `local_as` if not
    /// yet running.
    pub fn bgp_add_neighbor(&mut self, local_as: u32, neighbor_ip: &str, remote_as: u32) {
        self.enable_bgp(local_as);
        self.bgp
            .as_mut()
            .expect("just enabled")
            .neighbors
            .insert(neighbor_ip.to_string(), remote_as);
    }

    /// Remove a BGP neighbor, if present.
    pub fn bgp_remove_neighbor(&mut self, neighbor_ip: &str) {
        if let Some(bgp) = self.bgp.as_mut() {
            bgp.neighbors.remove(neighbor_ip);
        }
    }

    /// Enable OSPF and advertise a network.
    pub fn ospf_advertise(&mut self, process: u32, network: &str) {
        let ospf = self
            .ospf
            .get_or_insert_with(|| OspfCfg { process, networks: Vec::new() });
        if !ospf.networks.iter().any(|n| n == network) {
            ospf.networks.push(network.to_string());
        }
    }

    // --- pool operations ----------------------------------------------------

    /// Create a pool (idempotent).
    pub fn add_pool(&mut self, name: impl Into<String>, monitor: impl Into<String>) {
        self.pools
            .entry(name.into())
            .or_insert_with(|| PoolCfg { monitor: monitor.into(), members: BTreeSet::new() });
    }

    /// Add a member endpoint to a pool, creating the pool if needed.
    pub fn pool_add_member(&mut self, name: &str, member: &str) {
        self.pools
            .entry(name.to_string())
            .or_insert_with(|| PoolCfg { monitor: "tcp".into(), members: BTreeSet::new() })
            .members
            .insert(member.to_string());
    }

    /// Remove a member endpoint from a pool, if present.
    pub fn pool_remove_member(&mut self, name: &str, member: &str) {
        if let Some(p) = self.pools.get_mut(name) {
            p.members.remove(member);
        }
    }

    // --- misc operations ------------------------------------------------------

    /// Create or update a user account.
    pub fn add_user(&mut self, name: impl Into<String>, role: impl Into<String>) {
        self.users.insert(name.into(), UserCfg { role: role.into() });
    }

    /// Remove a user account.
    pub fn remove_user(&mut self, name: &str) {
        self.users.remove(name);
    }

    /// Configure sFlow export.
    pub fn set_sflow(&mut self, collector: impl Into<String>, rate: u32) {
        self.sflow = Some(SflowCfg { collector: collector.into(), rate });
    }

    /// Create or update a QoS class.
    pub fn set_qos_class(&mut self, name: impl Into<String>, dscp: u8) {
        self.qos.insert(name.into(), QosClass { dscp });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeviceConfig {
        DeviceConfig::new("net0-sw-dev0", Dialect::BlockKeyword)
    }

    #[test]
    fn vlan_assignment_creates_vlan() {
        let mut c = cfg();
        c.assign_interface_vlan(1, 10);
        assert!(c.vlans.contains_key(&10));
        assert_eq!(c.interfaces[&1].access_vlan, Some(10));
        assert_eq!(c.vlan_members(10), vec![1]);
    }

    #[test]
    fn removing_vlan_detaches_members() {
        let mut c = cfg();
        c.assign_interface_vlan(1, 10);
        c.assign_interface_vlan(2, 10);
        c.remove_vlan(10);
        assert!(c.vlans.is_empty());
        assert_eq!(c.interfaces[&1].access_vlan, None);
        assert_eq!(c.interfaces[&2].access_vlan, None);
    }

    #[test]
    fn acl_lifecycle() {
        let mut c = cfg();
        c.acl_add_rule("edge", AclRule { permit: true, protocol: "tcp".into(), port: 443 });
        c.acl_add_rule("edge", AclRule { permit: false, protocol: "udp".into(), port: 53 });
        assert_eq!(c.acls["edge"].rules.len(), 2);
        c.acl_remove_rule("edge", 0);
        assert_eq!(c.acls["edge"].rules.len(), 1);
        assert!(!c.acls["edge"].rules[0].permit);
        c.acl_remove_rule("edge", 99); // out of range: no-op
        c.acl_remove_rule("ghost", 0); // unknown ACL: no-op
        c.apply_acl(3, "edge");
        assert_eq!(c.interfaces[&3].acl_in.as_deref(), Some("edge"));
        c.remove_acl("edge");
        assert_eq!(c.interfaces[&3].acl_in, None);
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn applying_unknown_acl_panics() {
        cfg().apply_acl(1, "ghost");
    }

    #[test]
    fn bgp_neighbors() {
        let mut c = cfg();
        c.bgp_add_neighbor(65001, "10.0.0.1", 65002);
        c.bgp_add_neighbor(65001, "10.0.1.1", 65003);
        assert_eq!(c.bgp.as_ref().unwrap().local_as, 65001);
        assert_eq!(c.bgp.as_ref().unwrap().neighbors.len(), 2);
        c.bgp_remove_neighbor("10.0.0.1");
        assert_eq!(c.bgp.as_ref().unwrap().neighbors.len(), 1);
    }

    #[test]
    fn ospf_advertise_is_idempotent() {
        let mut c = cfg();
        c.ospf_advertise(1, "10.0.0.0/8");
        c.ospf_advertise(1, "10.0.0.0/8");
        assert_eq!(c.ospf.as_ref().unwrap().networks.len(), 1);
    }

    #[test]
    fn pool_membership() {
        let mut c = cfg();
        c.add_pool("web", "http");
        c.pool_add_member("web", "192.168.1.10:443");
        c.pool_add_member("web", "192.168.1.11:443");
        c.pool_remove_member("web", "192.168.1.10:443");
        assert_eq!(c.pools["web"].members.len(), 1);
        c.pool_remove_member("ghost", "x"); // no-op
    }

    #[test]
    fn user_lifecycle() {
        let mut c = cfg();
        c.add_user("ops1", "operator");
        assert!(c.users.contains_key("ops1"));
        c.remove_user("ops1");
        assert!(c.users.is_empty());
    }
}
