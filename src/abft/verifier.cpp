#include "abft/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>

namespace ftgemm {

namespace {

constexpr std::size_t kMaxMismatches = 512;
constexpr std::size_t kMaxDfsRemainder = 20;
constexpr long kNodeBudget = 1 << 20;

/// DFS: assign each "individual" mismatch (an error value) to a "group"
/// mismatch (whose delta must equal the sum of its assigned values).
/// Returns pairs (group_index, individual_index).
bool assign(const std::vector<Mismatch>& individuals,
            const std::vector<Mismatch>& groups, double slack,
            std::vector<std::pair<int, int>>& pairs) {
  std::vector<double> residual(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    residual[g] = groups[g].delta;

  std::vector<int> owner(individuals.size(), -1);
  long nodes = 0;

  // Largest-magnitude first: prunes the search fastest.
  std::vector<int> order(individuals.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = int(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return std::abs(individuals[std::size_t(a)].delta) >
           std::abs(individuals[std::size_t(b)].delta);
  });

  auto all_settled = [&]() {
    for (double r : residual)
      if (std::abs(r) > slack) return false;
    return true;
  };

  std::function<bool(std::size_t)> dfs = [&](std::size_t step) -> bool {
    if (++nodes > kNodeBudget) return false;
    if (step == order.size()) return all_settled();
    const int ind = order[step];
    const double value = individuals[std::size_t(ind)].delta;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      // No magnitude-based pruning here: with mixed-sign bursts a group's
      // residual can legitimately be smaller than any member (deltas cancel),
      // so the only sound bound is the node budget.
      residual[g] -= value;
      owner[std::size_t(ind)] = int(g);
      if (dfs(step + 1)) return true;
      residual[g] += value;
      owner[std::size_t(ind)] = -1;
    }
    return false;
  };

  if (!dfs(0)) return false;
  pairs.clear();
  for (std::size_t i = 0; i < individuals.size(); ++i)
    pairs.emplace_back(owner[i], int(i));
  return true;
}

}  // namespace

SolveOutcome solve_error_assignment(const std::vector<Mismatch>& rows,
                                    const std::vector<Mismatch>& cols,
                                    double slack) {
  SolveOutcome outcome;
  if (rows.empty() && cols.empty()) {
    outcome.solved = true;
    return outcome;
  }
  // A mismatch on one axis only cannot be located (it would mean an error
  // whose contributions cancel on the other axis, or a fault in the
  // checksum arithmetic itself).
  if (rows.empty() || cols.empty()) return outcome;
  if (rows.size() > kMaxMismatches || cols.size() > kMaxMismatches)
    return outcome;
  // An Inf/NaN delta cannot be undone by subtraction (and NaN would pass
  // every "settled" comparison below): detected, not correctable.
  const auto finite = [](const Mismatch& mm) {
    return std::isfinite(mm.delta);
  };
  if (!std::all_of(rows.begin(), rows.end(), finite) ||
      !std::all_of(cols.begin(), cols.end(), finite))
    return outcome;

  // Stage 1 — peel isolated errors: a row and a column whose deltas match
  // *each other uniquely* identify one error at their intersection.  This
  // resolves arbitrarily many scattered errors in O(R*C) and shrinks the
  // residual problem (burst clusters) to DFS scale.  A coincidental unique
  // match would be repaired by the driver's exact-recheck rounds.
  std::vector<char> row_used(rows.size(), 0);
  std::vector<char> col_used(cols.size(), 0);
  std::vector<std::pair<int, int>> peeled;      // error value = column delta
  std::vector<std::pair<int, int>> burst_cols;  // error value = row delta
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (row_used[r]) continue;
      int match = -1;
      int match_count = 0;
      for (std::size_t ccol = 0; ccol < cols.size(); ++ccol) {
        if (col_used[ccol]) continue;
        if (std::abs(rows[r].delta - cols[ccol].delta) <= slack) {
          match = int(ccol);
          ++match_count;
        }
      }
      if (match_count != 1) continue;
      // Uniqueness must hold from the column side too.
      int back_count = 0;
      for (std::size_t rr = 0; rr < rows.size(); ++rr) {
        if (row_used[rr]) continue;
        if (std::abs(rows[rr].delta - cols[std::size_t(match)].delta) <=
            slack)
          ++back_count;
      }
      if (back_count != 1) continue;
      peeled.emplace_back(int(r), match);
      row_used[r] = 1;
      col_used[std::size_t(match)] = 1;
      progress = true;
    }
  }

  // Stage 1.5 — burst peel: a row whose delta is explained by *exactly one*
  // small subset of the remaining columns is a row burst (one error per
  // matched column); peel it, and symmetrically for column bursts.  This
  // resolves coexisting independent bursts that no single global hypothesis
  // covers.  An ambiguous row (multiple candidate subsets) is left for the
  // DFS stage.  A wrong peel (coincidental subset) is repaired by the
  // driver's exact-recheck rounds.
  constexpr std::size_t kMaxBurst = 4;
  const auto find_unique_subset = [&](double target,
                                      const std::vector<Mismatch>& pool,
                                      const std::vector<char>& used,
                                      std::vector<int>& subset) -> bool {
    // Enumerate subsets of size 2..kMaxBurst; stop at the second solution.
    std::vector<int> avail;
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (!used[i]) avail.push_back(int(i));
    int found = 0;
    std::vector<int> current, winner;
    const std::function<void(std::size_t, double, std::size_t)> dfs =
        [&](std::size_t at, double sum, std::size_t size) {
          if (found >= 2) return;
          if (size >= 2 && std::abs(sum - target) <= slack) {
            ++found;
            winner = current;
            // Keep searching for a second solution (ambiguity check).
          }
          if (size == kMaxBurst || at == avail.size()) return;
          for (std::size_t i = at; i < avail.size() && found < 2; ++i) {
            current.push_back(avail[i]);
            dfs(i + 1, sum + pool[std::size_t(avail[i])].delta, size + 1);
            current.pop_back();
          }
        };
    dfs(0, 0.0, 0);
    if (found != 1) return false;
    subset = std::move(winner);
    return true;
  };

  for (bool progress = true; progress;) {
    progress = false;
    // Row bursts: several errors sharing one row, one per column.
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (row_used[r]) continue;
      std::vector<int> subset;
      if (!find_unique_subset(rows[r].delta, cols, col_used, subset))
        continue;
      for (const int ci : subset) {
        peeled.emplace_back(int(r), ci);
        col_used[std::size_t(ci)] = 1;
      }
      row_used[r] = 1;
      progress = true;
    }
    // Column bursts: several errors sharing one column, one per row.
    for (std::size_t ccol = 0; ccol < cols.size(); ++ccol) {
      if (col_used[ccol]) continue;
      std::vector<int> subset;
      if (!find_unique_subset(cols[ccol].delta, rows, row_used, subset))
        continue;
      for (const int ri : subset) {
        // Column-burst pairs carry the *row* delta as the error value.
        burst_cols.push_back({ri, int(ccol)});
        row_used[std::size_t(ri)] = 1;
      }
      col_used[ccol] = 1;
      progress = true;
    }
    // Re-run the unique-match peel: bursts removed from the pools may make
    // previously ambiguous singles unique.
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (row_used[r]) continue;
      int match = -1, match_count = 0;
      for (std::size_t ccol = 0; ccol < cols.size(); ++ccol) {
        if (col_used[ccol]) continue;
        if (std::abs(rows[r].delta - cols[ccol].delta) <= slack) {
          match = int(ccol);
          ++match_count;
        }
      }
      if (match_count != 1) continue;
      int back_count = 0;
      for (std::size_t rr = 0; rr < rows.size(); ++rr) {
        if (row_used[rr]) continue;
        if (std::abs(rows[rr].delta - cols[std::size_t(match)].delta) <=
            slack)
          ++back_count;
      }
      if (back_count != 1) continue;
      peeled.emplace_back(int(r), match);
      row_used[r] = 1;
      col_used[std::size_t(match)] = 1;
      progress = true;
    }
  }

  // Collect the remainder (burst clusters whose row/column sums differ).
  std::vector<Mismatch> rem_rows, rem_cols;
  for (std::size_t r = 0; r < rows.size(); ++r)
    if (!row_used[r]) rem_rows.push_back(rows[r]);
  for (std::size_t ccol = 0; ccol < cols.size(); ++ccol)
    if (!col_used[ccol]) rem_cols.push_back(cols[ccol]);

  std::vector<LocatedError> located;
  located.reserve(peeled.size() + burst_cols.size());
  for (const auto& [r, ccol] : peeled) {
    located.push_back({rows[std::size_t(r)].idx,
                       cols[std::size_t(ccol)].idx,
                       cols[std::size_t(ccol)].delta});
  }
  for (const auto& [r, ccol] : burst_cols) {
    located.push_back({rows[std::size_t(r)].idx,
                       cols[std::size_t(ccol)].idx,
                       rows[std::size_t(r)].delta});
  }

  if (rem_rows.empty() && rem_cols.empty()) {
    outcome.solved = true;
    outcome.errors = std::move(located);
    return outcome;
  }
  if (rem_rows.empty() || rem_cols.empty()) return outcome;
  if (rem_rows.size() > kMaxDfsRemainder ||
      rem_cols.size() > kMaxDfsRemainder)
    return outcome;

  // Stage 2 — hypothesis DFS on the (small) remainder.
  // Hypothesis 1: every remaining mismatching column holds exactly one
  // error; the column deltas are individual error values grouped by row.
  std::vector<std::pair<int, int>> pairs;
  if (assign(rem_cols, rem_rows, slack, pairs)) {
    outcome.solved = true;
    for (auto& [rowg, coli] : pairs) {
      located.push_back({rem_rows[std::size_t(rowg)].idx,
                         rem_cols[std::size_t(coli)].idx,
                         rem_cols[std::size_t(coli)].delta});
    }
    outcome.errors = std::move(located);
    return outcome;
  }
  // Hypothesis 2 (symmetric): every remaining mismatching row holds exactly
  // one error; the row deltas are the individual error values.
  if (assign(rem_rows, rem_cols, slack, pairs)) {
    outcome.solved = true;
    for (auto& [colg, rowi] : pairs) {
      located.push_back({rem_rows[std::size_t(rowi)].idx,
                         rem_cols[std::size_t(colg)].idx,
                         rem_rows[std::size_t(rowi)].delta});
    }
    outcome.errors = std::move(located);
    return outcome;
  }
  return outcome;
}

}  // namespace ftgemm
