//! Extending the library: implement your own replacement policy against
//! the `occ_sim` engine and benchmark it next to the built-in suite.
//!
//! The example policy is "SLA-aware CLOCK": a second-chance clock whose
//! hand skips pages of tenants that are deep into their SLA penalty
//! region. It is deliberately simple — the point is the integration
//! surface, not the policy.
//!
//! Run with: `cargo run --release --example custom_policy`

use occ_analysis::{compare_policies, evaluate_policy, fnum, policies, Table};
use occ_core::CostProfile;
use occ_sim::{EngineCtx, PageId, ReplacementPolicy};
use occ_workloads::two_tier;

/// Second-chance clock with an SLA-awareness twist: pages of users whose
/// next-eviction marginal is above the mean get a second second-chance.
struct SlaClock {
    costs: CostProfile,
    referenced: Vec<u8>,
    hand: usize,
}

impl SlaClock {
    fn new(costs: CostProfile) -> Self {
        SlaClock {
            costs,
            referenced: Vec::new(),
            hand: 0,
        }
    }

    fn ensure(&mut self, ctx: &EngineCtx) {
        let n = ctx.universe.num_pages() as usize;
        if self.referenced.len() < n {
            self.referenced.resize(n, 0);
        }
    }
}

impl ReplacementPolicy for SlaClock {
    fn name(&self) -> String {
        "sla-clock".into()
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.ensure(ctx);
        self.referenced[page.index()] = 1;
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.ensure(ctx);
        self.referenced[page.index()] = 1;
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
        self.ensure(ctx);
        let pages = ctx.cache.pages();
        // Mean marginal across users with cached pages.
        let mut marginals = Vec::with_capacity(pages.len());
        for &p in pages {
            let u = ctx.universe.owner(p);
            let m = ctx.stats.user(u).evictions;
            marginals.push(self.costs.user(u).marginal(m));
        }
        let mean = marginals.iter().sum::<f64>() / marginals.len() as f64;

        // Sweep the clock: clear reference bits; pages of above-mean
        // tenants need two sweeps, others one.
        loop {
            self.hand = (self.hand + 1) % pages.len();
            let p = pages[self.hand];
            let idx = p.index();
            let protect = u8::from(marginals[self.hand] > mean) + self.referenced[idx];
            if protect == 0 {
                return p;
            }
            self.referenced[idx] = self.referenced[idx].saturating_sub(1);
        }
    }

    fn reset(&mut self) {
        self.referenced.clear();
        self.hand = 0;
    }
}

fn main() {
    let scenario = two_tier();
    let trace = scenario.trace(40_000, 3);
    let k = scenario.suggested_k;

    let mut suite = policies::online_suite(&scenario.costs);
    let mut reports = compare_policies(&mut suite, &trace, k, &scenario.costs);
    let mut custom = SlaClock::new(scenario.costs.clone());
    reports.push(evaluate_policy(&mut custom, &trace, k, &scenario.costs));
    reports.sort_by(|a, b| a.cost.total_cmp(&b.cost));

    let mut table = Table::new(vec!["policy", "total cost", "miss rate"]);
    for r in &reports {
        table.row(vec![
            r.name.clone(),
            fnum(r.cost),
            format!("{:.3}", r.miss_rate()),
        ]);
    }
    println!("scenario '{}', k = {k}:\n", scenario.name);
    println!("{}", table.to_markdown());
    println!(
        "a custom policy is ~60 lines: implement ReplacementPolicy, get \
         hit/miss accounting, cost evaluation and the whole comparison \
         harness for free."
    );
}
