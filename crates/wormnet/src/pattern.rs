//! Communication patterns.
//!
//! The paper's experiments use **all-to-all** exclusively ("it causes much
//! message collision and is known as the weak point for non-contiguous
//! allocation", §5); the other patterns here are the remaining ProcSimity
//! patterns, swept by `scenarios/ablation_patterns.toml` to show how much
//! the all-to-all choice matters.

use desim::SimRng;
use mesh2d::Coord;

/// Destination-selection rule for a job's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Every processor sends to every other processor of the job in
    /// round-robin order (offset by sender rank so the first destinations
    /// are spread out rather than synchronized on processor 0).
    AllToAll,
    /// Processor 0 broadcasts: it sends each of its messages round-robin
    /// to the other processors; other processors send nothing.
    OneToAll,
    /// Each processor sends to the next processor in the allocation order
    /// (wrapping).
    Ring,
    /// Each message goes to an independently uniformly chosen partner.
    RandomPairs,
    /// Ring over the processors sorted row-major — partners are physically
    /// adjacent whenever the allocation is contiguous.
    NearNeighbour,
}

impl Pattern {
    /// Every supported pattern, in the ablation's sweep order.
    pub const ALL: [Pattern; 5] = [
        Pattern::AllToAll,
        Pattern::OneToAll,
        Pattern::Ring,
        Pattern::RandomPairs,
        Pattern::NearNeighbour,
    ];
}

impl core::fmt::Display for Pattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Pattern::AllToAll => "all-to-all",
            Pattern::OneToAll => "one-to-all",
            Pattern::Ring => "ring",
            Pattern::RandomPairs => "random-pairs",
            Pattern::NearNeighbour => "near-neighbour",
        };
        f.write_str(s)
    }
}

impl core::str::FromStr for Pattern {
    type Err = String;

    /// Parses the [`Display`](core::fmt::Display) spelling, e.g.
    /// `all-to-all`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pattern::ALL
            .into_iter()
            .find(|p| p.to_string() == s)
            .ok_or_else(|| {
                format!(
                    "unknown pattern '{s}' \
                     (all-to-all, one-to-all, ring, random-pairs, near-neighbour)"
                )
            })
    }
}

/// Expands a pattern into the `(src, dst)` message list for one job.
///
/// `nodes` is the job's allocated processor set in allocation order;
/// `msgs_per_node` is the per-processor message count (the paper's
/// exponentially distributed `num_mes` draw). Single-processor jobs send
/// nothing — the caller models their demand as local computation.
pub fn pattern_messages(
    pattern: Pattern,
    nodes: &[Coord],
    msgs_per_node: u32,
    rng: &mut SimRng,
) -> Vec<(Coord, Coord)> {
    let n = nodes.len();
    if n <= 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    match pattern {
        Pattern::AllToAll => {
            // Each node's messages are spread evenly over ALL other
            // processors of the job (strided sampling of the full
            // all-to-all destination set): with fewer messages than
            // partners the destinations still span the whole allocation,
            // which is what makes all-to-all "the weak point for
            // non-contiguous allocation" — traffic crosses the entire
            // spatial extent of the job, not just rank neighbours.
            let span = n as u32 - 1;
            for (i, &src) in nodes.iter().enumerate() {
                let stride = (span / msgs_per_node.min(span)).max(1);
                for k in 0..msgs_per_node {
                    let offset = 1 + (k * stride + k / span) % span;
                    let j = (i as u32 + offset) % n as u32;
                    out.push((src, nodes[j as usize]));
                }
            }
        }
        Pattern::OneToAll => {
            // only the root sends: msgs_per_node messages, round-robin
            // over the other processors (same per-sender volume as the
            // other patterns, so the pattern comparison isolates traffic
            // *shape* rather than volume)
            let src = nodes[0];
            for k in 0..msgs_per_node {
                out.push((src, nodes[1 + (k as usize % (n - 1))]));
            }
        }
        Pattern::Ring => {
            for (i, &src) in nodes.iter().enumerate() {
                let dst = nodes[(i + 1) % n];
                for _ in 0..msgs_per_node {
                    out.push((src, dst));
                }
            }
        }
        Pattern::RandomPairs => {
            for (i, &src) in nodes.iter().enumerate() {
                for _ in 0..msgs_per_node {
                    let mut j = rng.index(n - 1);
                    if j >= i {
                        j += 1;
                    }
                    out.push((src, nodes[j]));
                }
            }
        }
        Pattern::NearNeighbour => {
            let mut sorted = nodes.to_vec();
            sorted.sort_by_key(|c| (c.y, c.x));
            for (i, &src) in sorted.iter().enumerate() {
                let dst = sorted[(i + 1) % n];
                for _ in 0..msgs_per_node {
                    out.push((src, dst));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(k: usize) -> Vec<Coord> {
        (0..k as u16).map(|i| Coord::new(i % 4, i / 4)).collect()
    }

    #[test]
    fn no_self_messages_in_any_pattern() {
        let ns = nodes(7);
        let mut rng = SimRng::new(1);
        for p in Pattern::ALL {
            for (s, d) in pattern_messages(p, &ns, 5, &mut rng) {
                assert_ne!(s, d, "{p} produced a self message");
            }
        }
    }

    #[test]
    fn single_node_job_sends_nothing() {
        let mut rng = SimRng::new(1);
        for p in Pattern::ALL {
            assert!(pattern_messages(p, &nodes(1), 5, &mut rng).is_empty());
        }
    }

    #[test]
    fn all_to_all_counts_and_coverage() {
        let ns = nodes(5);
        let mut rng = SimRng::new(1);
        let msgs = pattern_messages(Pattern::AllToAll, &ns, 8, &mut rng);
        assert_eq!(msgs.len(), 5 * 8);
        // with msgs_per_node >= n-1 every ordered pair appears
        let mut pairs = std::collections::HashSet::new();
        for (s, d) in &msgs {
            pairs.insert((*s, *d));
        }
        assert_eq!(pairs.len(), 5 * 4, "all ordered pairs covered");
    }

    #[test]
    fn all_to_all_is_balanced_per_sender() {
        let ns = nodes(6);
        let mut rng = SimRng::new(1);
        let msgs = pattern_messages(Pattern::AllToAll, &ns, 10, &mut rng);
        for src in &ns {
            assert_eq!(msgs.iter().filter(|(s, _)| s == src).count(), 10);
        }
    }

    #[test]
    fn one_to_all_only_root_sends() {
        let ns = nodes(4);
        let mut rng = SimRng::new(1);
        let msgs = pattern_messages(Pattern::OneToAll, &ns, 7, &mut rng);
        assert!(msgs.iter().all(|(s, _)| *s == ns[0]));
        assert_eq!(msgs.len(), 7);
        // round-robin coverage of all peers
        let dsts: std::collections::HashSet<_> = msgs.iter().map(|(_, d)| *d).collect();
        assert_eq!(dsts.len(), 3);
    }

    #[test]
    fn ring_wraps() {
        let ns = nodes(3);
        let mut rng = SimRng::new(1);
        let msgs = pattern_messages(Pattern::Ring, &ns, 1, &mut rng);
        assert_eq!(msgs, vec![(ns[0], ns[1]), (ns[1], ns[2]), (ns[2], ns[0])]);
    }

    #[test]
    fn random_pairs_counts() {
        let ns = nodes(9);
        let mut rng = SimRng::new(7);
        let msgs = pattern_messages(Pattern::RandomPairs, &ns, 4, &mut rng);
        assert_eq!(msgs.len(), 9 * 4);
    }

    #[test]
    fn near_neighbour_prefers_short_distances() {
        // On a contiguous 4x2 block, near-neighbour mean distance must be
        // well below all-to-all mean distance.
        let ns: Vec<Coord> = (0..2u16)
            .flat_map(|y| (0..4u16).map(move |x| Coord::new(x, y)))
            .collect();
        let mut rng = SimRng::new(7);
        let mean = |msgs: &[(Coord, Coord)]| {
            msgs.iter().map(|(s, d)| s.manhattan(d) as f64).sum::<f64>() / msgs.len() as f64
        };
        let nn = pattern_messages(Pattern::NearNeighbour, &ns, 4, &mut rng);
        let a2a = pattern_messages(Pattern::AllToAll, &ns, 4, &mut rng);
        assert!(mean(&nn) < mean(&a2a));
    }
}
