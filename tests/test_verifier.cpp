// Unit tests: mismatch scanning and the error-assignment solver, plus the
// end-to-end "never silent" contract for faults that leave C non-finite.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "abft/verifier.hpp"
#include "core/gemm.hpp"
#include "inject/injectors.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace ftgemm {
namespace {

constexpr double kSlack = 1e-9;

std::vector<Mismatch> mm(std::initializer_list<Mismatch> list) {
  return std::vector<Mismatch>(list);
}

TEST(FindMismatches, ThresholdAndBaseOffset) {
  const double pred[5] = {1.0, 2.0, 3.0, 4.0, 5.0};
  const double ref[5] = {1.0, 2.5, 3.0, 3.2, 5.0 + 1e-12};
  std::vector<Mismatch> out;
  find_mismatches(pred, ref, 5, 1e-6, 100, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].idx, 101);
  EXPECT_DOUBLE_EQ(out[0].delta, 0.5);
  EXPECT_EQ(out[1].idx, 103);
  EXPECT_NEAR(out[1].delta, -0.8, 1e-12);
}

TEST(FindMismatches, NonFiniteDifferenceIsReported) {
  // NaN compares false against every threshold; it must still be reported.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double pred[4] = {1.0, 2.0, 3.0, inf};
  const double ref[4] = {1.0, nan, inf, inf};
  std::vector<Mismatch> out;
  find_mismatches(pred, ref, 4, 1e-6, 0, out);
  ASSERT_EQ(out.size(), 3u);  // NaN, +Inf, and Inf - Inf = NaN
  EXPECT_EQ(out[0].idx, 1);
  EXPECT_EQ(out[1].idx, 2);
  EXPECT_EQ(out[2].idx, 3);
}

TEST(Solver, NonFiniteDeltaIsUncorrectable) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      solve_error_assignment(mm({{5, nan}}), mm({{9, nan}}), kSlack).solved);
  EXPECT_FALSE(
      solve_error_assignment(mm({{5, inf}}), mm({{9, inf}}), kSlack).solved);
  EXPECT_FALSE(solve_error_assignment(mm({{5, 2.0}, {6, nan}}),
                                      mm({{9, 2.0}, {3, nan}}), kSlack)
                   .solved);
}

TEST(NonFiniteFault, TopExponentFlipIsNeverSilent) {
  // Flipping bit 62 of an fp64 C element with |x| in [1, 2) sets the whole
  // exponent field: C gets Inf or NaN.  Such a panel must end flagged
  // (clean() false), never clean with a non-finite C.
  const index_t n = 256;
  Matrix<double> a(n, n), b(n, n), c0(n, n);
  a.fill_random(11);
  b.fill_random(12);
  c0.fill_random(13);
  Xoshiro256 rng(62);
  int nonfinite_trials = 0;
  for (int trial = 0; trial < 128; ++trial) {
    const std::int64_t i = std::int64_t(rng.bounded(std::uint64_t(n)));
    const std::int64_t j = std::int64_t(rng.bounded(std::uint64_t(n)));
    DeterministicInjector inj({{InjectionKind::kFlipBit, 0, i, j, 0.0, 62}});
    Matrix<double> c = c0.clone();
    Options opts;
    opts.threads = 1;
    opts.injector = &inj;
    const FtReport rep =
        ft_dgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n,
                 n, 1.0, a.data(), a.ld(), b.data(), b.ld(), 1.0, c.data(),
                 c.ld(), opts);
    ASSERT_EQ(inj.injected_count(), 1u) << "trial " << trial;
    bool finite = true;
    for (index_t jj = 0; jj < n && finite; ++jj)
      for (index_t ii = 0; ii < n && finite; ++ii)
        finite = std::isfinite(c(ii, jj));
    if (!finite) {
      ++nonfinite_trials;
      EXPECT_FALSE(rep.clean())
          << "trial " << trial << ": C(" << i << ", " << j
          << ") is non-finite but the call reported clean";
    }
  }
  EXPECT_GT(nonfinite_trials, 0) << "the sweep never produced Inf/NaN";
}

TEST(Solver, CleanPanelSolvesTrivially) {
  const SolveOutcome o = solve_error_assignment({}, {}, kSlack);
  EXPECT_TRUE(o.solved);
  EXPECT_TRUE(o.errors.empty());
}

TEST(Solver, SingleError) {
  const SolveOutcome o = solve_error_assignment(mm({{5, 2.5}}),
                                                mm({{9, 2.5}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 1u);
  EXPECT_EQ(o.errors[0].row, 5);
  EXPECT_EQ(o.errors[0].col, 9);
  EXPECT_DOUBLE_EQ(o.errors[0].delta, 2.5);
}

TEST(Solver, OneSidedMismatchIsUncorrectable) {
  EXPECT_FALSE(solve_error_assignment(mm({{5, 2.5}}), {}, kSlack).solved);
  EXPECT_FALSE(solve_error_assignment({}, mm({{9, 2.5}}), kSlack).solved);
}

TEST(Solver, DistinctRowsAndColumns) {
  // Errors at (1, 10)=+2, (3, 12)=-5, (7, 19)=+0.5.
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 2.0}, {3, -5.0}, {7, 0.5}}),
      mm({{10, 2.0}, {12, -5.0}, {19, 0.5}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 3u);
  for (const LocatedError& e : o.errors) {
    // Each located error pairs the row and column carrying the same delta.
    if (e.row == 1) { EXPECT_EQ(e.col, 10); EXPECT_NEAR(e.delta, 2.0, kSlack); }
    if (e.row == 3) { EXPECT_EQ(e.col, 12); EXPECT_NEAR(e.delta, -5.0, kSlack); }
    if (e.row == 7) { EXPECT_EQ(e.col, 19); EXPECT_NEAR(e.delta, 0.5, kSlack); }
  }
}

TEST(Solver, TwoErrorsSharingARow) {
  // Errors at (4, 10)=+1 and (4, 11)=+2: row 4 shows +3, columns show +1,+2.
  const SolveOutcome o = solve_error_assignment(
      mm({{4, 3.0}}), mm({{10, 1.0}, {11, 2.0}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 2u);
  EXPECT_EQ(o.errors[0].row, 4);
  EXPECT_EQ(o.errors[1].row, 4);
  EXPECT_NEAR(o.errors[0].delta + o.errors[1].delta, 3.0, kSlack);
}

TEST(Solver, TwoErrorsSharingAColumn) {
  // Errors at (4, 10)=+1 and (6, 10)=+2.
  const SolveOutcome o = solve_error_assignment(
      mm({{4, 1.0}, {6, 2.0}}), mm({{10, 3.0}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 2u);
  EXPECT_EQ(o.errors[0].col, 10);
  EXPECT_EQ(o.errors[1].col, 10);
  EXPECT_NEAR(o.errors[0].delta + o.errors[1].delta, 3.0, kSlack);
}

TEST(Solver, MixedBurst) {
  // (2, 7)=+1, (2, 8)=+4, (5, 9)=-2: rows {2:+5, 5:-2}, cols {7:+1, 8:+4,
  // 9:-2}; column-individual hypothesis must hold.
  const SolveOutcome o = solve_error_assignment(
      mm({{2, 5.0}, {5, -2.0}}), mm({{7, 1.0}, {8, 4.0}, {9, -2.0}}),
      kSlack);
  ASSERT_TRUE(o.solved);
  EXPECT_EQ(o.errors.size(), 3u);
}

TEST(Solver, NoisyDeltasWithinSlackStillMatch) {
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 2.0 + 3e-10}}), mm({{9, 2.0 - 3e-10}}), kSlack);
  EXPECT_TRUE(o.solved);
}

TEST(Solver, InconsistentDeltasFail) {
  // Row says +2 but column says +5: no assignment explains both.
  const SolveOutcome o =
      solve_error_assignment(mm({{1, 2.0}}), mm({{9, 5.0}}), kSlack);
  EXPECT_FALSE(o.solved);
}

TEST(Solver, AmbiguousCrossPatternFails) {
  // Rows {+1, +1}, cols {+1, +1} is solvable (either pairing works).  But a
  // genuinely contradictory sum pattern is not: rows {1, 2}, cols {2.5,
  // 0.5}: col-individual needs a row summing to 2.5 from {2.5|0.5}, and
  // row-individual needs cols summing from {1,2} — neither closes.
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 1.0}, {2, 2.0}}), mm({{5, 2.5}, {6, 0.5}}), kSlack);
  EXPECT_FALSE(o.solved);
}

TEST(Solver, SymmetricPairingIsSolvable) {
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 1.0}, {2, 1.0}}), mm({{5, 1.0}, {6, 1.0}}), kSlack);
  EXPECT_TRUE(o.solved);
  EXPECT_EQ(o.errors.size(), 2u);
}

TEST(Solver, OversizedDfsRemainderBailsOut) {
  // 30 rows/cols all carrying the SAME delta: nothing peels (no unique
  // match) and the remainder exceeds the DFS bound -> refuse, don't blow up.
  std::vector<Mismatch> rows, cols;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({i, 1.0});
    cols.push_back({i + 100, 1.0});
  }
  EXPECT_FALSE(solve_error_assignment(rows, cols, kSlack).solved);
}

TEST(Solver, ManyDistinctErrorsStillSolve) {
  std::vector<Mismatch> rows, cols;
  for (int i = 0; i < 12; ++i) {
    const double d = 1.0 + i;
    rows.push_back({i, d});
    cols.push_back({i + 50, d});
  }
  const SolveOutcome o = solve_error_assignment(rows, cols, kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 12u);
  for (const LocatedError& e : o.errors)
    EXPECT_EQ(e.col, e.row + 50) << "distinct deltas pin each pairing";
}

TEST(Solver, CoexistingRowAndColumnBursts) {
  // A row burst at (2, {7,8}) = {+1, +4} AND a column burst at ({5,6}, 9)
  // = {-2, -3}: no single global hypothesis fits, but burst peeling
  // resolves each cluster independently.
  const SolveOutcome o = solve_error_assignment(
      mm({{2, 5.0}, {5, -2.0}, {6, -3.0}}),
      mm({{7, 1.0}, {8, 4.0}, {9, -5.0}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 4u);
  int row2 = 0, col9 = 0;
  for (const LocatedError& e : o.errors) {
    row2 += (e.row == 2);
    col9 += (e.col == 9);
  }
  EXPECT_EQ(row2, 2) << "two errors in the row burst";
  EXPECT_EQ(col9, 2) << "two errors in the column burst";
}

TEST(Solver, BurstsPlusScatteredSingles) {
  // Mixed panel: one isolated error, one row burst, one isolated error.
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 7.0}, {4, 3.0}, {9, -1.25}}),
      mm({{10, 7.0}, {20, 1.0}, {21, 2.0}, {30, -1.25}}), kSlack);
  ASSERT_TRUE(o.solved);
  EXPECT_EQ(o.errors.size(), 4u);
  for (const LocatedError& e : o.errors) {
    if (e.col == 10) {
      EXPECT_EQ(e.row, 1);
    }
    if (e.col == 20 || e.col == 21) {
      EXPECT_EQ(e.row, 4);
    }
    if (e.col == 30) {
      EXPECT_EQ(e.row, 9);
    }
  }
}

TEST(Solver, AmbiguousBurstSubsetLeftToDfs) {
  // Row delta 3 could be {1,2} or {1.5,1.5}: two candidate subsets -> the
  // burst peel must not guess; the DFS hypothesis stage still solves it
  // (cols individual, all assigned to the single row).
  const SolveOutcome o = solve_error_assignment(
      mm({{3, 6.0}}), mm({{1, 1.0}, {2, 2.0}, {4, 1.5}, {5, 1.5}}), kSlack);
  ASSERT_TRUE(o.solved);
  EXPECT_EQ(o.errors.size(), 4u);
  for (const LocatedError& e : o.errors) EXPECT_EQ(e.row, 3);
}

TEST(Solver, ZeroSumRowBurstAcrossColumns) {
  // (3, 5)=+2 and (3, 6)=-2 cancel in the row checksum: row list is empty,
  // columns show +2/-2.  Detected but not locatable -> unsolved.
  const SolveOutcome o = solve_error_assignment(
      {}, mm({{5, 2.0}, {6, -2.0}}), kSlack);
  EXPECT_FALSE(o.solved);
}

}  // namespace
}  // namespace ftgemm
