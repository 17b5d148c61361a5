//! `SURFNET_CHECK=1` runtime invariant checker for the streaming planner.
//!
//! [`crate::RouteSearch`] reads minimum-noise routes off hub labels that
//! one pruned Dijkstra per node builds, while
//! [`crate::Network::shortest_path_by`] stays the plain one-sided
//! Dijkstra. When checking is on, each build's labels are checked once
//! ([`check_labels`]): the tree fibers an entry names must lead to its hub
//! at exactly the noise it records. Every answer is then cross-checked
//! against the reference search ([`check_route`]): a returned route must
//! be a connected walk from `src` to `dst` whose noise, folded forward, is
//! no larger than the reference route's, and a `None` must mean the
//! reference finds no route either. A pruning rule that fires too early, a
//! wrong parent fiber, a mis-sorted label or a broken merge would otherwise
//! only show as a quietly noisier route, or a request dropped as
//! unroutable. See `surfnet_lp::check` for the solver-side counterpart.
//!
//! Debug-only and opt-in: in release builds [`enabled`] is a `const fn`
//! returning `false`, so the guarded calls fold away. The harness is
//! [`surfnet_telemetry::check`]'s, re-exported here.

use crate::topology::{FiberId, LabelEntry, Network, NodeId, NO_FIBER};
pub use surfnet_telemetry::check::{assert_ok, enabled, InvariantViolation};

/// Relative slack on the noise comparison: summing the same fibers in
/// another order may round differently.
pub const NOISE_REL_EPS: f64 = 1e-12;

/// `route` (a search's answer from `src` to `dst`) is a connected walk over
/// incident fibers whose forward-folded noise is at most that of
/// [`Network::shortest_path_by`] over the same [`crate::Fiber::noise`]
/// values, within [`NOISE_REL_EPS`]; `None` is correct only if the
/// reference finds no route either.
pub fn check_route(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    route: Option<&[FiberId]>,
) -> Result<(), InvariantViolation> {
    let violation = |message: String| Err(InvariantViolation { message });
    let noise = |f: FiberId| net.fiber(f).noise();
    let reference = net.shortest_path_by(src, dst, noise);
    let Some(route) = route else {
        return match reference {
            None => Ok(()),
            Some(r) => violation(format!(
                "no route {src}->{dst}, but the reference finds {} fibers",
                r.len()
            )),
        };
    };
    let mut cur = src;
    for (i, &f) in route.iter().enumerate() {
        if !net.incident(cur).contains(&f) {
            return violation(format!(
                "route {src}->{dst} breaks at hop {i}: fiber {f} does not leave node {cur}"
            ));
        }
        cur = net.fiber(f).other(cur);
    }
    if cur != dst {
        return violation(format!("route {src}->{dst} ends at node {cur}"));
    }
    let Some(reference) = reference else {
        return violation(format!(
            "route {src}->{dst} found, but the reference finds none"
        ));
    };
    let fold = |r: &[FiberId]| r.iter().fold(0.0, |acc, &f| acc + noise(f));
    let (got, best) = (fold(route), fold(&reference));
    if got > best * (1.0 + NOISE_REL_EPS) {
        return violation(format!(
            "route {src}->{dst} has noise {got:.17e}, the reference {best:.17e}"
        ));
    }
    Ok(())
}

/// `labels` (every node's hub label, with hubs as ranks into `order`, where
/// `order[rank]` is the hub's node) holds what [`crate::RouteSearch`]'s
/// build leaves: each label's hubs strictly ascend; a hub's own entry has
/// noise 0 and no fiber; every other entry's fiber leaves its node, the
/// fiber's far end carries the same hub, and the far end's noise plus the
/// fiber's equals the entry's bit for bit, the fold the build computes.
pub(crate) fn check_labels(
    net: &Network,
    order: &[u32],
    labels: &[Vec<LabelEntry>],
) -> Result<(), InvariantViolation> {
    let violation = |message: String| Err(InvariantViolation { message });
    for (v, label) in labels.iter().enumerate() {
        for pair in label.windows(2) {
            if pair[0].hub >= pair[1].hub {
                return violation(format!(
                    "node {v}'s label lists hub {} before hub {}",
                    pair[0].hub, pair[1].hub
                ));
            }
        }
        for &LabelEntry { dist, hub, fiber } in label {
            let Some(&hub_node) = order.get(hub as usize) else {
                return violation(format!("node {v}'s label names hub {hub}, out of range"));
            };
            if hub_node as NodeId == v {
                if dist != 0.0 || fiber != NO_FIBER {
                    return violation(format!(
                        "hub {hub} (node {v}) has its own entry at noise {dist:e} by fiber {fiber}"
                    ));
                }
                continue;
            }
            let f = fiber as FiberId;
            if fiber == NO_FIBER || !net.incident(v).contains(&f) {
                return violation(format!(
                    "node {v}'s entry for hub {hub} names fiber {fiber}, which does not leave it"
                ));
            }
            let parent = net.fiber(f).other(v);
            let Some(up) = labels[parent].iter().find(|e| e.hub == hub) else {
                return violation(format!(
                    "node {v} reaches hub {hub} through node {parent}, which does not carry it"
                ));
            };
            let folded = up.dist + net.fiber(f).noise();
            if folded.to_bits() != dist.to_bits() {
                return violation(format!(
                    "node {v}'s noise to hub {hub} is {dist:.17e}, but node {parent}'s plus \
                     fiber {f}'s is {folded:.17e}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;

    /// a - s - b with a noisier direct a - b fiber: fibers 0, 1, 2.
    fn triangle() -> Network {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::User, 8);
        let s = net.add_node(NodeKind::Switch, 8);
        let b = net.add_node(NodeKind::User, 8);
        net.add_fiber(a, s, 0.95, 4, 0.0).unwrap();
        net.add_fiber(s, b, 0.95, 4, 0.0).unwrap();
        net.add_fiber(a, b, 0.7, 4, 0.0).unwrap();
        net
    }

    fn check(net: &Network, route: Option<&[FiberId]>) -> Result<(), InvariantViolation> {
        check_route(net, 0, 2, route)
    }

    #[test]
    fn minimum_noise_route_passes() {
        let net = triangle();
        assert_eq!(check(&net, Some(&[0, 1])), Ok(()));
    }

    #[test]
    fn broken_walk_fires() {
        let net = triangle();
        // Fiber 1 does not leave node 0.
        let err = check(&net, Some(&[1, 0])).unwrap_err();
        assert!(err.message.contains("hop 0"), "{err}");
        // Connected, but stops short of the destination.
        let err = check(&net, Some(&[0])).unwrap_err();
        assert!(err.message.contains("ends at node 1"), "{err}");
        // Out-of-range fiber id.
        assert!(check(&net, Some(&[9])).is_err());
    }

    #[test]
    fn costlier_route_fires() {
        let net = triangle();
        let err = check(&net, Some(&[2])).unwrap_err();
        assert!(err.message.contains("noise"), "{err}");
    }

    /// The triangle's hub labels, hubs by rank into the returned order.
    fn triangle_labels(net: &Network) -> (Vec<u32>, Vec<Vec<LabelEntry>>) {
        let (order, labels) = crate::topology::hub_labels(net);
        assert_eq!(check_labels(net, &order, &labels), Ok(()));
        // Node 2 reaches hub 0 (node 0) through node 1, and hub 1 (node 1)
        // directly, both by fiber 1.
        assert_eq!(order, vec![0, 1, 2]);
        let hubs: Vec<_> = labels[2].iter().map(|e| (e.hub, e.fiber)).collect();
        assert_eq!(hubs, vec![(0, 1), (1, 1), (2, NO_FIBER)]);
        (order, labels)
    }

    #[test]
    fn wrong_label_fiber_fires() {
        let net = triangle();
        let (order, mut labels) = triangle_labels(&net);
        // Fiber 0 joins nodes 0 and 1.
        labels[2][0].fiber = 0;
        let err = check_labels(&net, &order, &labels).unwrap_err();
        assert!(err.message.contains("does not leave"), "{err}");
        // Fiber 2 leaves node 2 for hub 0 itself, at another noise.
        labels[2][0].fiber = 2;
        let err = check_labels(&net, &order, &labels).unwrap_err();
        assert!(err.message.contains("node 0's plus fiber 2's"), "{err}");
    }

    #[test]
    fn unsorted_label_hubs_fire() {
        let net = triangle();
        let (order, mut labels) = triangle_labels(&net);
        labels[2].swap(0, 1);
        let err = check_labels(&net, &order, &labels).unwrap_err();
        assert!(err.message.contains("lists hub 1 before hub 0"), "{err}");
    }

    #[test]
    fn label_noise_one_ulp_off_fires() {
        let net = triangle();
        let (order, mut labels) = triangle_labels(&net);
        let entry = &mut labels[2][0];
        entry.dist = f64::from_bits(entry.dist.to_bits() + 1);
        let err = check_labels(&net, &order, &labels).unwrap_err();
        assert!(err.message.contains("noise to hub 0"), "{err}");
    }

    #[test]
    fn missing_route_fires_unless_unreachable() {
        let net = triangle();
        assert!(check(&net, None).is_err());
        let mut split = triangle();
        let lonely = split.add_node(NodeKind::User, 8);
        assert_eq!(check_route(&split, 0, lonely, None), Ok(()));
    }
}
