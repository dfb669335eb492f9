//! Physical topology: unordered links between devices.
//!
//! The topology feeds two inference tasks downstream: routing-instance
//! extraction (processes on *adjacent* devices merge into one instance,
//! paper §2.2 / Table 1 line D5) and inter-device configuration references
//! (a link implies matching interface/neighbor statements on both ends).

use crate::ids::DeviceId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// An unordered pair of connected devices. Stored canonically with
/// `a <= b`, so `Link::new(x, y) == Link::new(y, x)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Lower endpoint id.
    pub a: DeviceId,
    /// Higher endpoint id.
    pub b: DeviceId,
}

impl Link {
    /// Canonicalizing constructor. Panics on self-links: a device cannot be
    /// cabled to itself in this model.
    pub fn new(x: DeviceId, y: DeviceId) -> Self {
        assert_ne!(x, y, "self-links are not representable");
        if x <= y {
            Self { a: x, b: y }
        } else {
            Self { a: y, b: x }
        }
    }

    /// The endpoint opposite `d`, or `None` if `d` is not an endpoint.
    pub fn other(&self, d: DeviceId) -> Option<DeviceId> {
        if d == self.a {
            Some(self.b)
        } else if d == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A set of links with adjacency queries. Deterministically ordered
/// (BTree-based) so iteration order never depends on hash seeds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    links: BTreeSet<Link>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a link; returns `false` if it was already present.
    pub fn add_link(&mut self, link: Link) -> bool {
        self.links.insert(link)
    }

    /// All links, in canonical order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Neighbors of `d`, in ascending id order.
    pub fn neighbors(&self, d: DeviceId) -> Vec<DeviceId> {
        self.links.iter().filter_map(|l| l.other(d)).collect()
    }

    /// Connected components over `universe` (devices with no links are
    /// singleton components). Components are returned sorted by their
    /// smallest member, members ascending.
    pub fn components(&self, universe: &[DeviceId]) -> Vec<Vec<DeviceId>> {
        // Union-find over the universe.
        let ids: Vec<DeviceId> = universe.to_vec();
        let index: BTreeMap<DeviceId, usize> =
            ids.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let mut parent: Vec<usize> = (0..ids.len()).collect();

        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        for l in &self.links {
            if let (Some(&ia), Some(&ib)) = (index.get(&l.a), index.get(&l.b)) {
                let ra = find(&mut parent, ia);
                let rb = find(&mut parent, ib);
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }

        let mut groups: BTreeMap<usize, Vec<DeviceId>> = BTreeMap::new();
        for (i, &d) in ids.iter().enumerate() {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(d);
        }
        let mut comps: Vec<Vec<DeviceId>> = groups.into_values().collect();
        for c in &mut comps {
            c.sort_unstable();
        }
        comps.sort_by_key(|c| c[0]);
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }

    #[test]
    fn links_are_canonical() {
        assert_eq!(Link::new(d(2), d(1)), Link::new(d(1), d(2)));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let _ = Link::new(d(1), d(1));
    }

    #[test]
    fn other_endpoint() {
        let l = Link::new(d(1), d(2));
        assert_eq!(l.other(d(1)), Some(d(2)));
        assert_eq!(l.other(d(2)), Some(d(1)));
        assert_eq!(l.other(d(3)), None);
    }

    #[test]
    fn duplicate_links_collapse() {
        let mut t = Topology::new();
        assert!(t.add_link(Link::new(d(1), d(2))));
        assert!(!t.add_link(Link::new(d(2), d(1))));
        assert_eq!(t.links().count(), 1);
    }

    #[test]
    fn neighbors_ascend_by_id() {
        let mut t = Topology::new();
        t.add_link(Link::new(d(1), d(2)));
        t.add_link(Link::new(d(1), d(3)));
        assert_eq!(t.neighbors(d(1)), vec![d(2), d(3)]);
        assert_eq!(t.neighbors(d(4)), Vec::<DeviceId>::new());
    }

    #[test]
    fn components_with_isolated_devices() {
        let mut t = Topology::new();
        t.add_link(Link::new(d(1), d(2)));
        t.add_link(Link::new(d(2), d(3)));
        t.add_link(Link::new(d(5), d(6)));
        let comps = t.components(&[d(1), d(2), d(3), d(4), d(5), d(6)]);
        assert_eq!(comps, vec![vec![d(1), d(2), d(3)], vec![d(4)], vec![d(5), d(6)]]);
    }

    #[test]
    fn components_ignore_links_outside_universe() {
        let mut t = Topology::new();
        t.add_link(Link::new(d(1), d(9)));
        let comps = t.components(&[d(1), d(2)]);
        assert_eq!(comps, vec![vec![d(1)], vec![d(2)]]);
    }
}
