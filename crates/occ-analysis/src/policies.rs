//! The policy registry: every policy a command line, experiment or test
//! can name, in one table ([`POLICIES`]), looked up with [`find`].

use occ_baselines::{CostGreedy, Fifo, GreedyDual, Lfu, Lru, LruK, Marking, RandomEvict};
use occ_core::{ConvexCaching, CostProfile};
use occ_offline::{Belady, CostAwareBelady};
use occ_sim::{ReplacementPolicy, Trace, UserId};
use Build::{Offline, Online};

/// A registry-built policy instance. `Send` so shard instances can move
/// to worker threads; it coerces to `Box<dyn ReplacementPolicy>` and
/// dispatches through the same vtable.
pub type BoxedPolicy = Box<dyn ReplacementPolicy + Send>;

/// The constructor of an online policy.
pub type MakeOnline = fn(&CostProfile) -> BoxedPolicy;

/// How an entry builds an instance.
#[derive(Clone, Copy)]
pub enum Build {
    /// Needs only the cost profile, so it can serve a stream.
    Online(MakeOnline),
    /// An offline oracle: needs the whole trace up front.
    Offline(fn(&CostProfile, &Trace) -> BoxedPolicy),
}

/// One registered policy.
pub struct PolicyEntry {
    /// Canonical name, as `--policy` takes it and as reports label it.
    pub name: &'static str,
    /// Other accepted spellings of `name`.
    pub aliases: &'static [&'static str],
    /// Its callbacks read only `ctx.universe` (never the cache, the
    /// stats or the clock), so per-segment instances of one shared
    /// cache behave exactly like the replay's sharded mirror.
    pub shared: bool,
    /// Constructor.
    pub build: Build,
}

impl PolicyEntry {
    /// Build an instance for a run over `trace` (any entry).
    pub fn build(&self, costs: &CostProfile, trace: &Trace) -> BoxedPolicy {
        match self.build {
            Build::Online(make) => make(costs),
            Build::Offline(make) => make(costs, trace),
        }
    }
}

/// GreedyDual's per-user weights: each user's cost at one miss, `f_i(1)`
/// (Young's Landlord rule; `w_i` for linear profiles), kept positive.
fn landlord_weights(costs: &CostProfile) -> Vec<f64> {
    (0..costs.num_users())
        .map(|u| costs.user(UserId(u)).eval(1.0).max(1e-9))
        .collect()
}

const fn entry(
    name: &'static str,
    aliases: &'static [&'static str],
    shared: bool,
    build: Build,
) -> PolicyEntry {
    PolicyEntry {
        name,
        aliases,
        shared,
        build,
    }
}

/// Every policy, baselines first and the paper's algorithm after them,
/// then the offline oracles. Suites run in this order.
#[rustfmt::skip]
pub const POLICIES: &[PolicyEntry] = &[
    entry("lru", &[], true, Online(|_| Box::new(Lru::new()))),
    entry("fifo", &[], true, Online(|_| Box::new(Fifo::new()))),
    entry("lfu", &[], false, Online(|_| Box::new(Lfu::new()))),
    entry("marking", &[], false, Online(|_| Box::new(Marking::new()))),
    entry("lru2", &[], false, Online(|_| Box::new(LruK::new(2)))),
    entry("random", &[], false, Online(|_| Box::new(RandomEvict::new(0xC0FFEE)))),
    entry("greedy-dual", &[], true, Online(|c| Box::new(GreedyDual::new(landlord_weights(c))))),
    entry("cost-greedy", &[], false, Online(|c| Box::new(CostGreedy::new(c.clone())))),
    entry("convex", &["alg-discrete"], false, Online(|c| Box::new(ConvexCaching::new(c.clone())))),
    entry("belady", &[], false, Offline(|_, t| Box::new(Belady::new(t)))),
    entry("belady-cost", &[], false, Offline(|c, t| Box::new(CostAwareBelady::new(t, c.clone())))),
];

/// Look a policy up by name or alias. The error lists every accepted
/// spelling.
pub fn find(name: &str) -> Result<&'static PolicyEntry, String> {
    POLICIES
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
        .ok_or_else(|| {
            let accepted: Vec<&str> = POLICIES
                .iter()
                .flat_map(|e| std::iter::once(e.name).chain(e.aliases.iter().copied()))
                .collect();
            format!(
                "unknown policy '{name}' (available: {})",
                accepted.join(", ")
            )
        })
}

/// One instance of every online entry, in table order.
pub fn online_suite(costs: &CostProfile) -> Vec<BoxedPolicy> {
    POLICIES
        .iter()
        .filter_map(|e| match e.build {
            Build::Online(make) => Some(make(costs)),
            Build::Offline(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_core::Monomial;
    use occ_sim::{Simulator, Universe};

    /// The eight online baselines: every online entry but the paper's
    /// algorithm.
    fn baselines(costs: &CostProfile) -> Vec<BoxedPolicy> {
        POLICIES
            .iter()
            .filter(|e| e.name != "convex")
            .filter_map(|e| match e.build {
                Build::Online(make) => Some(make(costs)),
                Build::Offline(_) => None,
            })
            .collect()
    }

    #[test]
    fn suite_runs_end_to_end() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..120u32).map(|i| (i * 11 + 2) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let costs = CostProfile::uniform(2, Monomial::power(2.0));
        let mut names = Vec::new();
        for mut policy in baselines(&costs) {
            let r = Simulator::new(3).run(&mut policy, &trace);
            assert!(r.total_misses() >= 6, "{} missed too little", policy.name());
            assert_eq!(r.steps, 120);
            names.push(policy.name());
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8, "policy names must be distinct");
    }

    #[test]
    fn suite_policies_are_resettable() {
        let u = Universe::single_user(4);
        let pages: Vec<u32> = (0..60u32).map(|i| (i * 3 + 1) % 4).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let costs = CostProfile::uniform(1, Monomial::power(2.0));
        for mut policy in baselines(&costs) {
            let a = Simulator::new(2).run(&mut policy, &trace).total_misses();
            policy.reset();
            let b = Simulator::new(2).run(&mut policy, &trace).total_misses();
            assert_eq!(a, b, "{} is not reproducible after reset", policy.name());
        }
    }

    #[test]
    fn names_and_aliases_resolve_to_one_entry_each() {
        let mut spellings = Vec::new();
        for e in POLICIES {
            assert_eq!(find(e.name).unwrap().name, e.name);
            for &a in e.aliases {
                assert_eq!(find(a).unwrap().name, e.name, "{a}");
            }
            spellings.push(e.name);
            spellings.extend_from_slice(e.aliases);
        }
        let n = spellings.len();
        spellings.sort_unstable();
        spellings.dedup();
        assert_eq!(spellings.len(), n, "a spelling names two policies");
        assert_eq!(find("alg-discrete").unwrap().name, "convex");
        let err = find("nope").map(|_| ()).unwrap_err();
        assert!(
            err.contains("belady-cost") && err.contains("alg-discrete"),
            "{err}"
        );
    }

    #[test]
    fn shared_entries_are_online() {
        let shared: Vec<&str> = POLICIES
            .iter()
            .filter(|e| e.shared)
            .map(|e| e.name)
            .collect();
        assert_eq!(shared, ["lru", "fifo", "greedy-dual"]);
        for e in POLICIES.iter().filter(|e| e.shared) {
            assert!(matches!(e.build, Build::Online(_)), "{}", e.name);
        }
    }
}
