//! Vendor-agnostic change typing (§2.2 of the paper).
//!
//! > "Type names differ between vendors: e.g., an ACL is defined in Cisco
//! > IOS using an `ip access-list` stanza, while a `firewall filter` stanza
//! > is used in Juniper JunOS. We address this by manually identifying
//! > stanza types on different vendors that serve the same purpose, and we
//! > convert these to a vendor-agnostic type identifier."
//!
//! [`ChangeType`] is that identifier. The mapping is intentionally a *manual
//! table*, mirroring the paper's manual identification, and it intentionally
//! does **not** repair the second quirk the paper describes: a semantically
//! identical change (assigning an interface to a VLAN) still maps to
//! [`ChangeType::Interface`] on the block-keyword dialect and
//! [`ChangeType::Vlan`] on the brace dialect, because the *stanza* that
//! changed differs.

use mpa_model::device::Dialect;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Vendor-agnostic configuration change type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ChangeType {
    /// Physical/logical port settings.
    Interface,
    /// VLAN definitions and membership (brace dialect).
    Vlan,
    /// Access-control lists / firewall filters.
    Acl,
    /// Routing processes (BGP or OSPF).
    Router,
    /// Load-balancer server pools.
    Pool,
    /// Local user accounts.
    User,
    /// sFlow export settings.
    Sflow,
    /// QoS / class-of-service.
    Qos,
    /// Spanning-tree settings.
    SpanningTree,
    /// Link aggregation.
    LinkAgg,
    /// Unidirectional link detection.
    Udld,
    /// DHCP relay.
    DhcpRelay,
    /// System-level settings (hostname, banners).
    System,
    /// NTP configuration.
    Ntp,
    /// SNMP configuration.
    Snmp,
    /// Anything the table does not recognize.
    Other,
}

impl ChangeType {
    /// Short lowercase label used in reports (matches Fig 12(c)'s legend
    /// vocabulary: iface, pool, acl, router, user).
    pub fn label(self) -> &'static str {
        match self {
            ChangeType::Interface => "iface",
            ChangeType::Vlan => "vlan",
            ChangeType::Acl => "acl",
            ChangeType::Router => "router",
            ChangeType::Pool => "pool",
            ChangeType::User => "user",
            ChangeType::Sflow => "sflow",
            ChangeType::Qos => "qos",
            ChangeType::SpanningTree => "stp",
            ChangeType::LinkAgg => "lacp",
            ChangeType::Udld => "udld",
            ChangeType::DhcpRelay => "dhcp-relay",
            ChangeType::System => "system",
            ChangeType::Ntp => "ntp",
            ChangeType::Snmp => "snmp",
            ChangeType::Other => "other",
        }
    }

    /// All change types, fixed order.
    pub const ALL: [ChangeType; 16] = [
        ChangeType::Interface,
        ChangeType::Vlan,
        ChangeType::Acl,
        ChangeType::Router,
        ChangeType::Pool,
        ChangeType::User,
        ChangeType::Sflow,
        ChangeType::Qos,
        ChangeType::SpanningTree,
        ChangeType::LinkAgg,
        ChangeType::Udld,
        ChangeType::DhcpRelay,
        ChangeType::System,
        ChangeType::Ntp,
        ChangeType::Snmp,
        ChangeType::Other,
    ];
}

impl fmt::Display for ChangeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Map a vendor-native stanza kind to the vendor-agnostic change type.
pub fn map_stanza_kind(dialect: Dialect, kind: &str) -> ChangeType {
    match dialect {
        Dialect::BlockKeyword => match kind {
            "interface" => ChangeType::Interface,
            "vlan" => ChangeType::Vlan,
            "ip access-list" => ChangeType::Acl,
            "router bgp" | "router ospf" => ChangeType::Router,
            "pool" => ChangeType::Pool,
            "username" => ChangeType::User,
            "sflow" => ChangeType::Sflow,
            "class-map" => ChangeType::Qos,
            "spanning-tree" => ChangeType::SpanningTree,
            "lacp" => ChangeType::LinkAgg,
            "udld" => ChangeType::Udld,
            "ip dhcp relay" => ChangeType::DhcpRelay,
            "hostname" => ChangeType::System,
            "ntp" => ChangeType::Ntp,
            "snmp-server" => ChangeType::Snmp,
            _ => ChangeType::Other,
        },
        Dialect::BraceHierarchy => match kind {
            "interfaces" => ChangeType::Interface,
            "vlans" => ChangeType::Vlan,
            "firewall filter" => ChangeType::Acl,
            "protocols bgp" | "protocols ospf" => ChangeType::Router,
            "load-balance pool" => ChangeType::Pool,
            "system login user" => ChangeType::User,
            "protocols sflow" => ChangeType::Sflow,
            "class-of-service" => ChangeType::Qos,
            "protocols rstp" => ChangeType::SpanningTree,
            "protocols lacp" => ChangeType::LinkAgg,
            "protocols udld" => ChangeType::Udld,
            "forwarding-options dhcp-relay" => ChangeType::DhcpRelay,
            "system" => ChangeType::System,
            "system ntp" => ChangeType::Ntp,
            "snmp" => ChangeType::Snmp,
            _ => ChangeType::Other,
        },
    }
}

/// The vendor-native stanza kinds the table above recognizes for a
/// dialect, in table order. This is the stanza-kind *universe* for the
/// scenario coverage report: a generated corpus should exercise every
/// entry, and CI gates on entries dropping to zero.
pub fn known_stanza_kinds(dialect: Dialect) -> &'static [&'static str] {
    match dialect {
        Dialect::BlockKeyword => &[
            "interface",
            "vlan",
            "ip access-list",
            "router bgp",
            "router ospf",
            "pool",
            "username",
            "sflow",
            "class-map",
            "spanning-tree",
            "lacp",
            "udld",
            "ip dhcp relay",
            "hostname",
            "ntp",
            "snmp-server",
        ],
        Dialect::BraceHierarchy => &[
            "interfaces",
            "vlans",
            "firewall filter",
            "protocols bgp",
            "protocols ospf",
            "load-balance pool",
            "system login user",
            "protocols sflow",
            "class-of-service",
            "protocols rstp",
            "protocols lacp",
            "protocols udld",
            "forwarding-options dhcp-relay",
            "system",
            "system ntp",
            "snmp",
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_kinds_match_the_mapping_table() {
        // Every known kind must map to a non-Other type, and the two lists
        // must stay in sync with the match arms above.
        for dialect in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            for kind in known_stanza_kinds(dialect) {
                assert_ne!(
                    map_stanza_kind(dialect, kind),
                    ChangeType::Other,
                    "{dialect:?} kind '{kind}' is listed as known but maps to Other"
                );
            }
            // One entry per non-Other change type, plus one (Router absorbs
            // both the BGP and OSPF stanzas).
            assert_eq!(known_stanza_kinds(dialect).len(), ChangeType::ALL.len());
        }
    }

    #[test]
    fn acl_unifies_across_vendors() {
        assert_eq!(map_stanza_kind(Dialect::BlockKeyword, "ip access-list"), ChangeType::Acl);
        assert_eq!(map_stanza_kind(Dialect::BraceHierarchy, "firewall filter"), ChangeType::Acl);
    }

    #[test]
    fn router_unifies_bgp_and_ospf() {
        for k in ["router bgp", "router ospf"] {
            assert_eq!(map_stanza_kind(Dialect::BlockKeyword, k), ChangeType::Router);
        }
        for k in ["protocols bgp", "protocols ospf"] {
            assert_eq!(map_stanza_kind(Dialect::BraceHierarchy, k), ChangeType::Router);
        }
    }

    #[test]
    fn vlan_membership_quirk_is_preserved() {
        // Same semantic operation, different stanza kinds per dialect — the
        // typemap must NOT unify them (it maps stanzas, not semantics).
        assert_eq!(map_stanza_kind(Dialect::BlockKeyword, "interface"), ChangeType::Interface);
        assert_eq!(map_stanza_kind(Dialect::BraceHierarchy, "vlans"), ChangeType::Vlan);
    }

    #[test]
    fn unknown_kinds_map_to_other() {
        assert_eq!(map_stanza_kind(Dialect::BlockKeyword, "fancy-feature"), ChangeType::Other);
        assert_eq!(map_stanza_kind(Dialect::BraceHierarchy, "routing-options"), ChangeType::Other);
    }

    #[test]
    fn every_type_has_distinct_label() {
        let mut labels: Vec<_> = ChangeType::ALL.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ChangeType::ALL.len());
    }
}
