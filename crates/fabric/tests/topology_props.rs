//! Structural properties of the topology builder, checked by exhaustive
//! enumeration rather than closed forms alone: the enumerated structure
//! (port lists, structural routing) must agree with every formula the
//! runtime and the documentation rely on.

use ioat_fabric::{Fabric, FabricParams, Hop, Topology, TopologySpec};
use ioat_netsim::ConnId;
use std::collections::HashSet;

/// Counts distinct host-to-host forwarding paths by walking the
/// structural routing exactly as the runtime does.
fn count_paths(t: &Topology, sw: usize, dst: usize) -> usize {
    let ports = t.switch_ports(sw);
    let (first, n) = t.route(sw, dst);
    (first..first + n)
        .map(|p| match ports[p] {
            Hop::Host(h) => {
                assert_eq!(h, dst, "down port must reach the routed destination");
                1
            }
            Hop::Switch(next) => count_paths(t, next, dst),
        })
        .sum()
}

#[test]
fn fat_tree_closed_forms_match_enumeration() {
    for k in [4usize, 6, 8, 10] {
        let t = Topology::new(TopologySpec::FatTree { k });
        let mut hosts = HashSet::new();
        let mut directed_switch_links = 0usize;
        let mut host_links = 0usize;
        for sw in 0..t.switches() {
            for dest in t.switch_ports(sw) {
                match dest {
                    Hop::Host(h) => {
                        assert!(hosts.insert(h), "host {h} attached to two switches");
                        assert_eq!(t.host_edge(h), sw, "host_edge must invert the port map");
                        host_links += 1;
                    }
                    Hop::Switch(next) => {
                        // Inter-switch connectivity must be symmetric.
                        assert!(
                            t.switch_ports(next).contains(&Hop::Switch(sw)),
                            "link {sw}→{next} has no reverse port"
                        );
                        directed_switch_links += 1;
                    }
                }
            }
        }
        assert_eq!(hosts.len(), k * k * k / 4, "fat-tree({k}) host count");
        assert_eq!(t.hosts(), hosts.len());
        assert_eq!(t.switches(), 5 * k * k / 4, "fat-tree({k}) switch count");
        assert_eq!(
            host_links + directed_switch_links / 2,
            3 * k * k * k / 4,
            "fat-tree({k}) link count"
        );
        assert_eq!(t.links(), host_links + directed_switch_links / 2);
    }
}

#[test]
fn equal_cost_path_formula_matches_enumeration() {
    let t = Topology::new(TopologySpec::FatTree { k: 4 });
    for a in 0..t.hosts() {
        for b in 0..t.hosts() {
            if a == b {
                continue;
            }
            let enumerated = count_paths(&t, t.host_edge(a), b);
            assert_eq!(
                t.equal_cost_paths(a, b),
                enumerated,
                "path formula for {a}→{b}"
            );
            // Any pair not under the same edge switch routes through tier
            // ≥ 1 and must see real path diversity.
            if t.host_edge(a) != t.host_edge(b) {
                assert!(enumerated >= 2, "{a}→{b} must have ≥ 2 equal-cost paths");
            }
        }
    }
}

#[test]
fn ecmp_spreads_flows_across_uplinks_within_tolerance() {
    // Many connections from one edge switch to far-away hosts must land
    // on each of the m uplinks within a tolerance band of the fair share.
    let k = 8usize;
    let m = k / 2;
    let fabric = Fabric::new(TopologySpec::FatTree { k }, FabricParams::gige());
    let t = fabric.topology();
    let edge = 0usize; // pod 0, edge 0; hosts 0..m attach here
    let flows = 40_000usize;
    let mut counts = vec![0usize; k];
    for f in 0..flows {
        let src = f % m;
        let dst = t.hosts() - 1 - (f % (m * m)); // always inter-pod
        let port = fabric.route_port(edge, src, dst, ConnId(f as u64));
        assert!((m..2 * m).contains(&port), "must pick an uplink");
        counts[port] += 1;
    }
    let fair = flows as f64 / m as f64;
    for (port, &count) in counts.iter().enumerate().take(2 * m).skip(m) {
        let dev = (count as f64 - fair).abs() / fair;
        assert!(
            dev < 0.05,
            "uplink {port} got {count} flows, fair share {fair:.0} (dev {dev:.3})"
        );
    }
}

#[test]
fn routing_is_loop_free_and_hop_counts_match() {
    // Walk one concrete path per host pair (ECMP pick 0) and check it
    // reaches the destination in exactly `path_links` hops.
    let t = Topology::new(TopologySpec::FatTree { k: 4 });
    for a in 0..t.hosts() {
        for b in 0..t.hosts() {
            if a == b {
                continue;
            }
            let mut links = 1; // host a → edge
            let mut sw = t.host_edge(a);
            loop {
                let (first, _) = t.route(sw, b);
                links += 1;
                match t.switch_ports(sw)[first] {
                    Hop::Host(h) => {
                        assert_eq!(h, b);
                        break;
                    }
                    Hop::Switch(next) => sw = next,
                }
                assert!(links <= 6, "path {a}→{b} too long — routing loop?");
            }
            assert_eq!(links, t.path_links(a, b), "hop count {a}→{b}");
        }
    }
}
