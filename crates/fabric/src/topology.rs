//! Topology compilation: from a declarative spec to switch nodes, port
//! maps and structural routing.
//!
//! The fat-tree is *structurally routed*: the destination host index
//! alone determines the candidate output ports at every switch, so no
//! forwarding tables are built or stored. A [`Topology`] is therefore a
//! few integers — `route` is pure arithmetic and allocation-free, which
//! matters when a million-client run makes ~10⁸ routing decisions.
//!
//! # Fat-tree(k)
//!
//! The classic 3-tier Clos built from k-port switches (k even, m = k/2):
//!
//! * k pods, each with m edge and m aggregation switches;
//! * m² core switches; core `c = a·m + i` connects to aggregation index
//!   `a` in every pod (its `i`-th uplink);
//! * closed forms: `k³/4` hosts, `5k²/4` switches, `3k³/4` links
//!   (host links included).
//!
//! Host `h` lives in pod `h/m²` under edge switch `(h/m) mod m` at
//! position `h mod m`. Equal-cost paths: 1 under the same edge switch, m
//! within a pod, m² across pods.

/// Declarative description of a fabric shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// 3-tier fat-tree built from `k`-port switches (`k` even, ≥ 4).
    FatTree {
        /// Switch radix.
        k: usize,
    },
}

/// What a switch output port connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// A host attachment point (topology host index).
    Host(usize),
    /// Another switch (topology switch index).
    Switch(usize),
}

/// A compiled topology: host/switch/port numbering plus structural
/// routing. See the module docs for the numbering conventions.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    spec: TopologySpec,
}

impl Topology {
    /// Compiles `spec`, validating its parameters.
    ///
    /// # Panics
    ///
    /// Panics on a fat-tree radix that is odd or < 4.
    pub fn new(spec: TopologySpec) -> Self {
        let TopologySpec::FatTree { k } = spec;
        assert!(k >= 4 && k % 2 == 0, "fat-tree radix must be even and ≥ 4");
        Topology { spec }
    }

    /// The spec this topology was compiled from.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// The switch radix.
    fn k(&self) -> usize {
        let TopologySpec::FatTree { k } = self.spec;
        k
    }

    /// Number of host attachment points.
    pub fn hosts(&self) -> usize {
        let k = self.k();
        k * k * k / 4
    }

    /// Number of switches across all tiers.
    pub fn switches(&self) -> usize {
        let k = self.k();
        5 * k * k / 4
    }

    /// Number of undirected links, host access links included.
    pub fn links(&self) -> usize {
        let k = self.k();
        3 * k * k * k / 4
    }

    /// Tier of switch `sw`: 0 = edge, 1 = aggregation, 2 = core.
    pub fn switch_tier(&self, sw: usize) -> u8 {
        let k = self.k();
        let m = k / 2;
        if sw < k * m {
            0
        } else if sw < 2 * k * m {
            1
        } else {
            assert!(sw < 2 * k * m + m * m, "switch index out of range");
            2
        }
    }

    /// The edge switch host `h` attaches to.
    pub fn host_edge(&self, h: usize) -> usize {
        assert!(h < self.hosts(), "host index out of range");
        h / (self.k() / 2)
    }

    /// The destination of every output port on switch `sw`, in port
    /// order. Only used at fabric-construction time; the hot routing path
    /// goes through [`Topology::route`].
    pub fn switch_ports(&self, sw: usize) -> Vec<Hop> {
        let k = self.k();
        let m = k / 2;
        let (edges, aggs) = (k * m, k * m);
        if sw < edges {
            // Edge (pod p, index e): m down ports to hosts, then m up
            // ports to the pod's aggregation switches.
            let (p, e) = (sw / m, sw % m);
            (0..m)
                .map(|i| Hop::Host(p * m * m + e * m + i))
                .chain((0..m).map(|a| Hop::Switch(edges + p * m + a)))
                .collect()
        } else if sw < edges + aggs {
            // Aggregation (pod p, index a): m down ports to the pod's edge
            // switches, then m up ports to cores a·m .. a·m+m.
            let (p, a) = ((sw - edges) / m, (sw - edges) % m);
            (0..m)
                .map(|e| Hop::Switch(p * m + e))
                .chain((0..m).map(|i| Hop::Switch(edges + aggs + a * m + i)))
                .collect()
        } else {
            // Core c = a·m + i: one down port per pod, to that pod's
            // aggregation switch of index a.
            let c = sw - edges - aggs;
            assert!(c < m * m, "switch index out of range");
            (0..k).map(|p| Hop::Switch(edges + p * m + c / m)).collect()
        }
    }

    /// Structural routing: the candidate output ports on switch `sw` for a
    /// frame destined to host `dst`, as a contiguous `(first_port, count)`
    /// range. `count > 1` means the candidates are equal-cost and the
    /// caller picks one by flow hash.
    pub fn route(&self, sw: usize, dst: usize) -> (usize, usize) {
        assert!(dst < self.hosts(), "destination host out of range");
        let k = self.k();
        let m = k / 2;
        let (edges, aggs) = (k * m, k * m);
        let (dst_pod, dst_edge) = (dst / (m * m), (dst / m) % m);
        if sw < edges {
            let (p, e) = (sw / m, sw % m);
            if dst_pod == p && dst_edge == e {
                (dst % m, 1)
            } else {
                (m, m)
            }
        } else if sw < edges + aggs {
            let p = (sw - edges) / m;
            if dst_pod == p {
                (dst_edge, 1)
            } else {
                (m, m)
            }
        } else {
            (dst_pod, 1)
        }
    }

    /// Number of links a data frame traverses host-to-host (access links
    /// included). Also the per-link-latency multiplier for the reverse ACK
    /// path.
    pub fn path_links(&self, a: usize, b: usize) -> usize {
        assert!(a < self.hosts() && b < self.hosts(), "host out of range");
        let m = self.k() / 2;
        if a / m == b / m {
            2
        } else if a / (m * m) == b / (m * m) {
            4
        } else {
            6
        }
    }

    /// Closed-form count of equal-cost paths between two distinct hosts.
    pub fn equal_cost_paths(&self, a: usize, b: usize) -> usize {
        assert!(a < self.hosts() && b < self.hosts(), "host out of range");
        assert_ne!(a, b, "no path from a host to itself");
        let m = self.k() / 2;
        if a / m == b / m {
            1
        } else if a / (m * m) == b / (m * m) {
            m
        } else {
            m * m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_counts_match_closed_forms() {
        for k in [4usize, 6, 8] {
            let t = Topology::new(TopologySpec::FatTree { k });
            assert_eq!(t.hosts(), k * k * k / 4);
            assert_eq!(t.switches(), 5 * k * k / 4);
            assert_eq!(t.links(), 3 * k * k * k / 4);
        }
    }

    #[test]
    fn every_port_list_has_the_switch_radix() {
        let k = 6;
        let t = Topology::new(TopologySpec::FatTree { k });
        for sw in 0..t.switches() {
            assert_eq!(t.switch_ports(sw).len(), k, "switch {sw} must have k ports");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_radix_rejected() {
        let _ = Topology::new(TopologySpec::FatTree { k: 5 });
    }
}
