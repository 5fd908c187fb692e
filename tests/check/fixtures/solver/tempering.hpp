// Fixture: C011 covers the replica-exchange loop too (matched by
// basename): per-round replica state must stay in flat vectors. A set of
// swapped rungs is exactly the node-based bookkeeping the rule forbids.
#pragma once

#include <cstddef>
#include <set>
#include <vector>

namespace fixture {
inline std::set<std::size_t> swapped_rungs;       // line 11: std::set
inline std::vector<double> ladder_temperatures;  // flat: no finding
}  // namespace fixture
