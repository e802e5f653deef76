//! The shared VF2 verifier's exact work and answers on two seeded sets.
//!
//! Every method and `exhaustive_answers` verify through this one matcher,
//! so a pruning rule that drops a true embedding would change the answers
//! and the ground truth together, and no cross-method check could see it.
//! This fixture pins the answers instead: a digest of every (query, answer
//! ids) pair over all (query, graph) pairs of each set, recorded before the
//! search gained its label-aware look-ahead. Beside it, the summed search
//! states read off one reused [`MatchState`] pin the verifier's exact work:
//! they repeat to the state for a fixed input, so a pruning change moves
//! them by a known amount and an unintended one shows at once.

use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen, RealDataset};
use sqbench_graph::{Dataset, Graph};
use sqbench_iso::{MatchState, Vf2Matcher};

/// FNV-1a over a stream of `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Matches every query against every graph through one reused state.
/// Returns the answer digest, the hits, the summed search states and the
/// calls.
fn all_pairs(dataset: &Dataset, queries: &[Graph]) -> (u64, usize, usize, usize) {
    let mut state = MatchState::new();
    let mut digest = Digest::new();
    let mut hits = 0;
    for (qi, query) in queries.iter().enumerate() {
        let matcher = Vf2Matcher::new(query);
        digest.word(qi as u64);
        for gid in dataset.ids() {
            if matcher.matches_with(&mut state, dataset.graph_unchecked(gid)) {
                digest.word(gid as u64);
                hits += 1;
            }
        }
    }
    let (states, calls) = state.take_counts();
    (digest.0, hits, states, calls)
}

fn queries(dataset: &Dataset, seed: u64, per_size: usize, sizes: &[usize]) -> Vec<Graph> {
    QueryGen::new(seed)
        .generate_all_sizes(dataset, per_size, sizes)
        .into_iter()
        .flat_map(|w| w.queries)
        .collect()
}

#[test]
fn dense_two_label_answers_and_work_are_pinned() {
    // `dense_verify`'s shape at a debug-build size.
    let dataset = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(200)
            .with_avg_nodes(24)
            .with_avg_density(0.12)
            .with_label_count(2)
            .with_seed(35),
    )
    .generate();
    let queries = queries(&dataset, 3501, 32, &[8, 10]);
    let (digest, hits, states, calls) = all_pairs(&dataset, &queries);
    assert_eq!(calls, 200 * 64);
    assert_eq!(
        digest, 0xf60d_d10a_6e5b_691a,
        "answers differ from the recorded ones"
    );
    assert_eq!(hits, 4650);
    assert_eq!(states, 208_722);
}

#[test]
fn aids_like_answers_and_work_are_pinned() {
    // `sparse_screen`'s shape at a debug-build size.
    let aids = RealDataset::Aids.spec().graph_count as f64;
    let dataset = RealDataset::Aids.generate_with(400.0 / aids, 1.0, 35);
    let queries = queries(&dataset, 3502, 24, &[4, 8, 16]);
    let (digest, hits, states, calls) = all_pairs(&dataset, &queries);
    assert_eq!(calls, 400 * 72);
    assert_eq!(
        digest, 0x7b38_150d_3205_bba3,
        "answers differ from the recorded ones"
    );
    assert_eq!(hits, 73);
    assert_eq!(states, 28_341);
}
