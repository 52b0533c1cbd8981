"""How much does strategic misreporting move the rank-minimizing outcome?

Rank minimization is not strategy-proof, so we stress it the way a
clearinghouse would worry about: run it truthfully, let a share of the
students with an incentive to deviate rewrite their reports, re-run on
the manipulated reports, and score everything against the students'
TRUE preferences.

The markets mimic reported-preference data: each student ranks only a
handful of the n schools, so some students end up unassigned (counted
at rank k+1 when a student ranks k schools; means are over assigned
students).  Two textbook manipulations:

  drop-assigned: a student not assigned their first choice moves the
      school they received to the end of their list.
  drop-first: a student assigned neither their first nor second choice
      moves their (apparently hopeless) first choice to the end.
"""

import numpy as np

from schoolmatch import (
    Market,
    apply_manipulation,
    deferred_acceptance,
    derive_seed,
    generate_uniform_market,
    rank_minimizing,
    rank_stats,
    top_trading_cycles,
)

N = 100
REPS = 60
SEED = 11


def short_list_market(n, seed):
    full = generate_uniform_market(n, seed)
    rng = np.random.default_rng(derive_seed(seed, 99))
    lengths = rng.integers(3, 8, size=n)
    prefs = [p[:k] for p, k in zip(full.pref_array.tolist(), lengths.tolist())]
    return Market(capacities=full.capacities, prefs=prefs, priorities=full.priority_array)


print(__doc__)
print(f"n={N}, {REPS} replications per cell, master seed {SEED}\n")

baseline = {"mean": [], "unassigned": [], "da": [], "ttc": []}
for r in range(REPS):
    market = short_list_market(N, derive_seed(SEED, r, 0))
    stats = rank_stats(market, rank_minimizing(market, derive_seed(SEED, r, 2)))
    baseline["mean"].append(stats.mean)
    baseline["unassigned"].append(stats.unassigned_count)
    baseline["da"].append(rank_stats(market, deferred_acceptance(market)).mean)
    baseline["ttc"].append(rank_stats(market, top_trading_cycles(market)).mean)

print(
    f"truthful RM: mean {np.mean(baseline['mean']):.3f}, "
    f"unassigned {np.mean(baseline['unassigned']):.1f} of {N}"
)
print(
    f"same markets truthfully: TTC mean {np.mean(baseline['ttc']):.3f}, "
    f"DA mean {np.mean(baseline['da']):.3f}\n"
)

for kind in ("drop_assigned", "drop_first"):
    print(f"{kind}:")
    print(f"  {'share':>6s} {'mean':>7s} {'envy':>6s} {'unassigned':>10s}")
    for share in (0.2, 0.4, 0.6, 0.8):
        means, envies, unassigned = [], [], []
        for r in range(REPS):
            market = short_list_market(N, derive_seed(SEED, r, 0))
            rm_seed = derive_seed(SEED, r, 2)
            truthful = rank_minimizing(market, rm_seed)
            twisted = apply_manipulation(
                market, truthful, kind, share, derive_seed(SEED, r, 3)
            )
            stats = rank_stats(market, rank_minimizing(twisted, rm_seed))
            means.append(stats.mean)
            envies.append(stats.envy_share)
            unassigned.append(stats.unassigned_count)
        print(
            f"  {share:6.1f} {np.mean(means):7.3f} {np.mean(envies):6.3f} "
            f"{np.mean(unassigned):10.1f}"
        )
    print()

print(
    "Scored against true preferences, the distribution barely moves even\n"
    "when most eligible students manipulate; the mean stays below what TTC\n"
    "and DA deliver truthfully on the same markets.  The two manipulations\n"
    "push the unassigned count in opposite directions: dropping your\n"
    "assigned school risks ending up with nothing, while dropping a\n"
    "hopeless first choice makes your effective list easier to serve."
)
