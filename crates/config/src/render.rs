//! Rendering a [`DeviceConfig`] to configuration text.
//!
//! Two dialects are supported, matching the two config-language families the
//! paper parses with its Batfish extension:
//!
//! * **Block-keyword** (Cisco-IOS-flavoured): flat stanzas introduced by a
//!   keyword at column zero, indented option lines, `!` separators.
//! * **Brace-hierarchy** (JunOS-flavoured): nested `{}` blocks with
//!   `;`-terminated leaves.
//!
//! Rendering is *deterministic*: all collections in [`DeviceConfig`] are
//! ordered (BTree maps), so the same semantic state always produces the same
//! bytes — a property both the snapshot-diff tests and the paper's "if at
//! least one stanza differs" change definition rely on.
//!
//! Both dialects are factored into *chunk* renderers — one function per
//! top-level stanza (or wrapper line, in the brace dialect) — and
//! [`render_config`] is nothing more than the chunks emitted in document
//! order. [`crate::chunk`] exposes the same chunk functions keyed by
//! [`crate::chunk::ChunkKey`], which is what makes delta-native generation
//! byte-identical to the full render by construction:
//! there is exactly one renderer per chunk, shared by both paths.
//!
//! The two dialects deliberately disagree about where VLAN membership lives:
//! the block-keyword dialect puts `switchport access vlan N` inside the
//! *interface* stanza, while the brace dialect lists member interfaces
//! inside the *vlans* stanza. The paper calls out exactly this quirk (§2.2):
//! the same semantic change is typed `interface` on one vendor and `vlan` on
//! the other.

use crate::semantic::DeviceConfig;
use mpa_model::device::Dialect;

/// Render a device config to text in its own dialect.
pub fn render_config(cfg: &DeviceConfig) -> String {
    let mut out = String::with_capacity(1024);
    render_config_into(cfg, &mut out);
    out
}

/// Render into a caller-owned buffer (cleared first). The simulator renders
/// one snapshot per device change; reusing one buffer keeps that hot loop
/// allocation-free.
pub fn render_config_into(cfg: &DeviceConfig, out: &mut String) {
    out.clear();
    match cfg.dialect {
        Dialect::BlockKeyword => block_keyword::render(cfg, out),
        Dialect::BraceHierarchy => brace_hierarchy::render(cfg, out),
    }
}

/// Interface name for a port number in the given dialect
/// (`Eth0/7` vs `xe-0/0/7`).
pub fn interface_name(dialect: Dialect, port: u16) -> String {
    match dialect {
        Dialect::BlockKeyword => format!("Eth0/{port}"),
        Dialect::BraceHierarchy => format!("xe-0/0/{port}"),
    }
}

/// Parse a port number back out of an interface name in either dialect.
pub fn parse_interface_name(name: &str) -> Option<u16> {
    let tail = name.strip_prefix("Eth0/").or_else(|| name.strip_prefix("xe-0/0/"))?;
    tail.parse().ok()
}

pub(crate) mod block_keyword {
    use super::*;

    /// Append one flat stanza followed by the `!` separator line.
    fn sect(out: &mut String, s: &str) {
        out.push_str(s);
        if !s.ends_with('\n') {
            out.push('\n');
        }
        out.push_str("!\n");
    }

    pub(crate) fn hostname(cfg: &DeviceConfig, out: &mut String) {
        sect(out, &format!("hostname {}", cfg.hostname));
    }

    pub(crate) fn ntp(cfg: &DeviceConfig, out: &mut String) {
        for server in &cfg.ntp_servers {
            sect(out, &format!("ntp server {server}"));
        }
    }

    pub(crate) fn snmp(cfg: &DeviceConfig, out: &mut String) {
        if let Some(comm) = &cfg.snmp_community {
            sect(out, &format!("snmp-server community {comm}"));
        }
    }

    pub(crate) fn user(cfg: &DeviceConfig, name: &str, out: &mut String) {
        if let Some(u) = cfg.users.get(name) {
            sect(out, &format!("username {name} role {}", u.role));
        }
    }

    pub(crate) fn sflow(cfg: &DeviceConfig, out: &mut String) {
        if let Some(sf) = &cfg.sflow {
            sect(out, &format!("sflow collector {} rate {}", sf.collector, sf.rate));
        }
    }

    pub(crate) fn features(cfg: &DeviceConfig, out: &mut String) {
        if cfg.features.spanning_tree {
            sect(out, "spanning-tree mode rapid-pvst");
        }
        if cfg.features.lacp {
            sect(out, "lacp system-priority 32768");
        }
        if cfg.features.udld {
            sect(out, "udld enable");
        }
        if cfg.features.dhcp_relay {
            sect(out, "ip dhcp relay enable");
        }
    }

    pub(crate) fn vlan(cfg: &DeviceConfig, id: u16, out: &mut String) {
        if let Some(v) = cfg.vlans.get(&id) {
            sect(out, &format!("vlan {id}\n name {}", v.name));
        }
    }

    pub(crate) fn acl(cfg: &DeviceConfig, name: &str, out: &mut String) {
        if let Some(acl) = cfg.acls.get(name) {
            let mut s = format!("ip access-list extended {name}");
            for r in &acl.rules {
                let act = if r.permit { "permit" } else { "deny" };
                s.push_str(&format!("\n {} {} any any eq {}", act, r.protocol, r.port));
            }
            sect(out, &s);
        }
    }

    pub(crate) fn qos(cfg: &DeviceConfig, name: &str, out: &mut String) {
        if let Some(q) = cfg.qos.get(name) {
            sect(out, &format!("class-map {name}\n set dscp {}", q.dscp));
        }
    }

    pub(crate) fn iface(cfg: &DeviceConfig, port: u16, out: &mut String) {
        if let Some(ifc) = cfg.interfaces.get(&port) {
            let mut s = format!("interface {}", interface_name(cfg.dialect, port));
            if !ifc.description.is_empty() {
                s.push_str(&format!("\n description {}", ifc.description));
            }
            s.push_str(&format!("\n mtu {}", ifc.mtu));
            if let Some(vlan) = ifc.access_vlan {
                s.push_str(&format!("\n switchport access vlan {vlan}"));
            }
            if let Some(acl) = &ifc.acl_in {
                s.push_str(&format!("\n ip access-group {acl} in"));
            }
            if !ifc.enabled {
                s.push_str("\n shutdown");
            }
            sect(out, &s);
        }
    }

    pub(crate) fn ospf(cfg: &DeviceConfig, out: &mut String) {
        if let Some(ospf) = &cfg.ospf {
            let mut s = format!("router ospf {}", ospf.process);
            for n in &ospf.networks {
                s.push_str(&format!("\n network {n} area 0"));
            }
            sect(out, &s);
        }
    }

    pub(crate) fn bgp(cfg: &DeviceConfig, out: &mut String) {
        if let Some(bgp) = &cfg.bgp {
            let mut s = format!("router bgp {}", bgp.local_as);
            for (ip, ras) in &bgp.neighbors {
                s.push_str(&format!("\n neighbor {ip} remote-as {ras}"));
            }
            sect(out, &s);
        }
    }

    pub(crate) fn pool(cfg: &DeviceConfig, name: &str, out: &mut String) {
        if let Some(p) = cfg.pools.get(name) {
            let mut s = format!("pool {name}\n monitor {}", p.monitor);
            for m in &p.members {
                s.push_str(&format!("\n member {m}"));
            }
            sect(out, &s);
        }
    }

    /// Full render: the chunks above, in document order. `chunk_keys`
    /// enumerates exactly this sequence.
    pub fn render(cfg: &DeviceConfig, out: &mut String) {
        hostname(cfg, out);
        ntp(cfg, out);
        snmp(cfg, out);
        for name in cfg.users.keys() {
            user(cfg, name, out);
        }
        sflow(cfg, out);
        features(cfg, out);
        for &id in cfg.vlans.keys() {
            vlan(cfg, id, out);
        }
        for name in cfg.acls.keys() {
            acl(cfg, name, out);
        }
        for name in cfg.qos.keys() {
            qos(cfg, name, out);
        }
        for &port in cfg.interfaces.keys() {
            iface(cfg, port, out);
        }
        ospf(cfg, out);
        bgp(cfg, out);
        for name in cfg.pools.keys() {
            pool(cfg, name, out);
        }
    }
}

pub(crate) mod brace_hierarchy {
    use super::*;
    use std::fmt::Write as _;

    /// Does the `protocols { ... }` wrapper appear at all?
    pub(crate) fn has_protocols(cfg: &DeviceConfig) -> bool {
        cfg.bgp.is_some()
            || cfg.ospf.is_some()
            || cfg.sflow.is_some()
            || cfg.features.spanning_tree
            || cfg.features.lacp
            || cfg.features.udld
    }

    pub(crate) fn system(cfg: &DeviceConfig, out: &mut String) {
        let mut w = Writer::at(out, 0);
        w.open("system");
        w.leaf(&format!("host-name {}", cfg.hostname));
        if !cfg.users.is_empty() {
            w.open("login");
            for (name, u) in &cfg.users {
                w.open(&format!("user {name}"));
                w.leaf(&format!("class {}", u.role));
                w.close();
            }
            w.close();
        }
        if !cfg.ntp_servers.is_empty() {
            w.open("ntp");
            for s in &cfg.ntp_servers {
                w.leaf(&format!("server {s}"));
            }
            w.close();
        }
        w.close();
    }

    pub(crate) fn snmp(cfg: &DeviceConfig, out: &mut String) {
        if let Some(comm) = &cfg.snmp_community {
            let mut w = Writer::at(out, 0);
            w.open("snmp");
            w.leaf(&format!("community {comm}"));
            w.close();
        }
    }

    pub(crate) fn if_open(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.interfaces.is_empty() {
            out.push_str("interfaces {\n");
        }
    }

    pub(crate) fn iface(cfg: &DeviceConfig, port: u16, out: &mut String) {
        if let Some(ifc) = cfg.interfaces.get(&port) {
            let mut w = Writer::at(out, 1);
            w.open(&interface_name(cfg.dialect, port));
            if !ifc.description.is_empty() {
                w.leaf(&format!("description \"{}\"", ifc.description));
            }
            w.leaf(&format!("mtu {}", ifc.mtu));
            if let Some(acl) = &ifc.acl_in {
                w.leaf(&format!("filter input {acl}"));
            }
            if !ifc.enabled {
                w.leaf("disable");
            }
            w.close();
        }
    }

    pub(crate) fn if_close(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.interfaces.is_empty() {
            out.push_str("}\n");
        }
    }

    pub(crate) fn vl_open(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.vlans.is_empty() {
            out.push_str("vlans {\n");
        }
    }

    pub(crate) fn vlan(cfg: &DeviceConfig, id: u16, out: &mut String) {
        if let Some(v) = cfg.vlans.get(&id) {
            let mut w = Writer::at(out, 1);
            w.open(&v.name);
            w.leaf(&format!("vlan-id {id}"));
            for port in cfg.vlan_members(id) {
                w.leaf(&format!("interface {}", interface_name(cfg.dialect, port)));
            }
            w.close();
        }
    }

    pub(crate) fn vl_close(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.vlans.is_empty() {
            out.push_str("}\n");
        }
    }

    pub(crate) fn fw_open(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.acls.is_empty() {
            out.push_str("firewall {\n");
        }
    }

    pub(crate) fn acl(cfg: &DeviceConfig, name: &str, out: &mut String) {
        if let Some(acl) = cfg.acls.get(name) {
            let mut w = Writer::at(out, 1);
            w.open(&format!("filter {name}"));
            for (i, r) in acl.rules.iter().enumerate() {
                w.open(&format!("term t{i}"));
                w.leaf(&format!("from protocol {} port {}", r.protocol, r.port));
                w.leaf(if r.permit { "then accept" } else { "then discard" });
                w.close();
            }
            w.close();
        }
    }

    pub(crate) fn fw_close(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.acls.is_empty() {
            out.push_str("}\n");
        }
    }

    pub(crate) fn cos_open(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.qos.is_empty() {
            out.push_str("class-of-service {\n");
        }
    }

    pub(crate) fn qos(cfg: &DeviceConfig, name: &str, out: &mut String) {
        if let Some(q) = cfg.qos.get(name) {
            let mut w = Writer::at(out, 1);
            w.open(name);
            w.leaf(&format!("dscp {}", q.dscp));
            w.close();
        }
    }

    pub(crate) fn cos_close(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.qos.is_empty() {
            out.push_str("}\n");
        }
    }

    pub(crate) fn proto_open(cfg: &DeviceConfig, out: &mut String) {
        if has_protocols(cfg) {
            out.push_str("protocols {\n");
        }
    }

    pub(crate) fn ospf(cfg: &DeviceConfig, out: &mut String) {
        if let Some(ospf) = &cfg.ospf {
            let mut w = Writer::at(out, 1);
            w.open("ospf");
            w.leaf(&format!("process {}", ospf.process));
            for n in &ospf.networks {
                w.leaf(&format!("area 0 network {n}"));
            }
            w.close();
        }
    }

    pub(crate) fn bgp(cfg: &DeviceConfig, out: &mut String) {
        if let Some(bgp) = &cfg.bgp {
            let mut w = Writer::at(out, 1);
            w.open("bgp");
            w.leaf(&format!("local-as {}", bgp.local_as));
            for (ip, ras) in &bgp.neighbors {
                w.open(&format!("neighbor {ip}"));
                w.leaf(&format!("peer-as {ras}"));
                w.close();
            }
            w.close();
        }
    }

    pub(crate) fn rstp(cfg: &DeviceConfig, out: &mut String) {
        if cfg.features.spanning_tree {
            feature_block(out, "rstp");
        }
    }

    pub(crate) fn lacp(cfg: &DeviceConfig, out: &mut String) {
        if cfg.features.lacp {
            feature_block(out, "lacp");
        }
    }

    pub(crate) fn udld(cfg: &DeviceConfig, out: &mut String) {
        if cfg.features.udld {
            feature_block(out, "udld");
        }
    }

    fn feature_block(out: &mut String, name: &str) {
        let mut w = Writer::at(out, 1);
        w.open(name);
        w.leaf("enable");
        w.close();
    }

    pub(crate) fn sflow(cfg: &DeviceConfig, out: &mut String) {
        if let Some(sf) = &cfg.sflow {
            let mut w = Writer::at(out, 1);
            w.open("sflow");
            w.leaf(&format!("collector {}", sf.collector));
            w.leaf(&format!("rate {}", sf.rate));
            w.close();
        }
    }

    pub(crate) fn proto_close(cfg: &DeviceConfig, out: &mut String) {
        if has_protocols(cfg) {
            out.push_str("}\n");
        }
    }

    pub(crate) fn fwd(cfg: &DeviceConfig, out: &mut String) {
        if cfg.features.dhcp_relay {
            let mut w = Writer::at(out, 0);
            w.open("forwarding-options");
            w.open("dhcp-relay");
            w.leaf("enable");
            w.close();
            w.close();
        }
    }

    pub(crate) fn lb_open(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.pools.is_empty() {
            out.push_str("load-balance {\n");
        }
    }

    pub(crate) fn pool(cfg: &DeviceConfig, name: &str, out: &mut String) {
        if let Some(p) = cfg.pools.get(name) {
            let mut w = Writer::at(out, 1);
            w.open(&format!("pool {name}"));
            w.leaf(&format!("monitor {}", p.monitor));
            for m in &p.members {
                w.leaf(&format!("member {m}"));
            }
            w.close();
        }
    }

    pub(crate) fn lb_close(cfg: &DeviceConfig, out: &mut String) {
        if !cfg.pools.is_empty() {
            out.push_str("}\n");
        }
    }

    /// Full render: the chunks above, in document order. `chunk_keys`
    /// enumerates exactly this sequence.
    pub fn render(cfg: &DeviceConfig, out: &mut String) {
        system(cfg, out);
        snmp(cfg, out);
        if_open(cfg, out);
        for &port in cfg.interfaces.keys() {
            iface(cfg, port, out);
        }
        if_close(cfg, out);
        vl_open(cfg, out);
        for &id in cfg.vlans.keys() {
            vlan(cfg, id, out);
        }
        vl_close(cfg, out);
        fw_open(cfg, out);
        for name in cfg.acls.keys() {
            acl(cfg, name, out);
        }
        fw_close(cfg, out);
        cos_open(cfg, out);
        for name in cfg.qos.keys() {
            qos(cfg, name, out);
        }
        cos_close(cfg, out);
        proto_open(cfg, out);
        ospf(cfg, out);
        bgp(cfg, out);
        rstp(cfg, out);
        lacp(cfg, out);
        udld(cfg, out);
        sflow(cfg, out);
        proto_close(cfg, out);
        fwd(cfg, out);
        lb_open(cfg, out);
        for name in cfg.pools.keys() {
            pool(cfg, name, out);
        }
        lb_close(cfg, out);
    }

    /// Indentation-tracking writer for brace blocks, appending to a
    /// caller-owned buffer at a fixed starting depth (chunk renderers for
    /// nested stanzas start at depth 1, inside their wrapper).
    struct Writer<'a> {
        out: &'a mut String,
        depth: usize,
    }

    impl<'a> Writer<'a> {
        fn at(out: &'a mut String, depth: usize) -> Self {
            Writer { out, depth }
        }

        fn open(&mut self, header: &str) {
            let _ = writeln!(self.out, "{}{} {{", "    ".repeat(self.depth), header);
            self.depth += 1;
        }

        fn leaf(&mut self, line: &str) {
            let _ = writeln!(self.out, "{}{};", "    ".repeat(self.depth), line);
        }

        fn close(&mut self) {
            self.depth -= 1;
            let _ = writeln!(self.out, "{}}}", "    ".repeat(self.depth));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::AclRule;

    fn sample(dialect: Dialect) -> DeviceConfig {
        let mut c = DeviceConfig::new("net0-sw-dev0", dialect);
        c.set_description(1, "link to net0-rtr-dev1");
        c.assign_interface_vlan(1, 10);
        c.assign_interface_vlan(2, 10);
        c.acl_add_rule("edge", AclRule { permit: true, protocol: "tcp".into(), port: 443 });
        c.apply_acl(1, "edge");
        c.bgp_add_neighbor(65001, "10.0.0.1", 65002);
        c.ospf_advertise(1, "10.0.0.0/8");
        c.add_pool("web", "http");
        c.pool_add_member("web", "192.168.1.10:443");
        c.add_user("ops1", "operator");
        c.features.spanning_tree = true;
        c.features.dhcp_relay = true;
        c.set_sflow("192.0.2.9", 2048);
        c.set_qos_class("voice", 46);
        c.ntp_servers.push("192.0.2.1".into());
        c.snmp_community = Some("public".into());
        c
    }

    #[test]
    fn interface_names_round_trip() {
        assert_eq!(interface_name(Dialect::BlockKeyword, 7), "Eth0/7");
        assert_eq!(interface_name(Dialect::BraceHierarchy, 7), "xe-0/0/7");
        assert_eq!(parse_interface_name("Eth0/7"), Some(7));
        assert_eq!(parse_interface_name("xe-0/0/7"), Some(7));
        assert_eq!(parse_interface_name("Gig1/1"), None);
    }

    #[test]
    fn block_keyword_places_vlan_membership_on_interface() {
        let text = render_config(&sample(Dialect::BlockKeyword));
        assert!(text.contains("interface Eth0/1"));
        assert!(text.contains(" switchport access vlan 10"));
        // The vlan stanza itself does NOT list members in this dialect.
        let vlan_stanza: Vec<&str> = text
            .split("!\n")
            .filter(|s| s.starts_with("vlan 10"))
            .collect();
        assert_eq!(vlan_stanza.len(), 1);
        assert!(!vlan_stanza[0].contains("Eth0/1"));
    }

    #[test]
    fn brace_hierarchy_places_vlan_membership_on_vlan() {
        let text = render_config(&sample(Dialect::BraceHierarchy));
        assert!(text.contains("vlans {"));
        assert!(text.contains("interface xe-0/0/1;"), "member listed in vlans block");
        // The interface block must NOT mention the vlan.
        let iface_region = text
            .split("interfaces {")
            .nth(1)
            .unwrap()
            .split("vlans {")
            .next()
            .unwrap();
        assert!(!iface_region.contains("vlan"), "no vlan membership under interfaces");
    }

    #[test]
    fn acl_naming_differs_across_dialects() {
        let cisco = render_config(&sample(Dialect::BlockKeyword));
        let junos = render_config(&sample(Dialect::BraceHierarchy));
        assert!(cisco.contains("ip access-list extended edge"));
        assert!(junos.contains("filter edge {"));
        assert!(junos.contains("firewall {"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_config(&sample(Dialect::BraceHierarchy));
        let b = render_config(&sample(Dialect::BraceHierarchy));
        assert_eq!(a, b);
    }

    #[test]
    fn brace_output_is_balanced() {
        let text = render_config(&sample(Dialect::BraceHierarchy));
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
        assert!(opens >= 10, "non-trivial structure, got {opens} blocks");
    }

    #[test]
    fn empty_config_renders_minimal_text() {
        let c = DeviceConfig::new("empty", Dialect::BlockKeyword);
        let text = render_config(&c);
        assert!(text.starts_with("hostname empty"));
        let c = DeviceConfig::new("empty", Dialect::BraceHierarchy);
        let text = render_config(&c);
        assert!(text.contains("host-name empty;"));
    }

    #[test]
    fn all_semantic_sections_appear() {
        for d in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            let text = render_config(&sample(d));
            for needle in ["65001", "65002", "10.0.0.1", "192.168.1.10:443", "ops1", "2048", "46", "public", "192.0.2.1"] {
                assert!(text.contains(needle), "{d:?} output missing {needle}:\n{text}");
            }
        }
    }
}
