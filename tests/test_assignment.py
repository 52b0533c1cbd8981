import numpy as np
import pytest

from schoolmatch.assignment import InfeasibleAssignmentError, min_cost_assignment

from oracles import brute_force_assignment, matched_total, min_cost_by_scan


@pytest.mark.parametrize("solve", [min_cost_assignment, brute_force_assignment])
class TestSharedContract:
    def test_all_zero(self, solve):
        cols = solve([[0, 0], [0, 0]])
        assert sorted(cols.tolist()) == [0, 1]

    def test_unique_diagonal_optimum(self, solve):
        # the matching is one 1-D array: the column of each row
        cols = solve([[1, 2], [2, 1]])
        assert cols.dtype == np.intp and cols.tolist() == [0, 1]

    def test_identical_rows(self, solve):
        # both matchings cost 3; someone must take the rank-2 column
        c = [[1, 2], [1, 2]]
        assert matched_total(c, solve(c)) == 3

    def test_one_by_one(self, solve):
        assert solve([[7]]).tolist() == [0]

    def test_infeasible_row_named(self, solve):
        c = [[1.0, 2.0], [np.inf, np.inf]]
        with pytest.raises(InfeasibleAssignmentError, match="row 1"):
            solve(c)

    def test_rejects_more_rows_than_cols(self, solve):
        with pytest.raises(ValueError):
            solve([[1], [2]])

    def test_rejects_negative(self, solve):
        with pytest.raises(ValueError):
            solve([[-1, 0], [0, 1]])

    @pytest.mark.parametrize("cost", [[[-np.inf, 1], [1, 2]], [[-np.inf, -np.inf], [1, 2]]])
    def test_rejects_minus_inf(self, solve, cost):
        with pytest.raises(ValueError, match="entries must be nonnegative"):
            solve(cost)

    def test_nan_reported_before_negative(self, solve):
        with pytest.raises(ValueError, match="contains NaN"):
            solve([[-1, np.nan], [0, 1]])


def test_brute_force_size_guard():
    c = np.ones((9, 9))
    with pytest.raises(ValueError, match="8 rows"):
        brute_force_assignment(c)


def test_brute_force_agrees_with_plain_scan():
    rng = np.random.default_rng(2)
    for _ in range(50):
        nr = int(rng.integers(1, 6))
        nc = int(rng.integers(nr, nr + 3))
        c = rng.integers(0, 20, size=(nr, nc))
        assert matched_total(c, brute_force_assignment(c)) == min_cost_by_scan(c)


def test_solver_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(4)
    for _ in range(300):
        nr = int(rng.integers(1, 8))
        nc = int(rng.integers(nr, nr + 3))
        c = rng.integers(0, 100, size=(nr, nc))
        a = min_cost_assignment(c)
        assert matched_total(c, a) == matched_total(c, brute_force_assignment(c))
        assert a.shape == (nr,) and len(set(a.tolist())) == nr


def test_solver_matches_oracle_with_forbidden_entries():
    rng = np.random.default_rng(6)
    for _ in range(150):
        nr = int(rng.integers(2, 7))
        nc = nr + int(rng.integers(0, 3))
        c = rng.integers(0, 30, size=(nr, nc)).astype(float)
        c[rng.random((nr, nc)) < 0.3] = np.inf
        for i in range(nr):
            if not np.isfinite(c[i]).any():
                c[i, int(rng.integers(0, nc))] = 5.0
        try:
            a = min_cost_assignment(c)
        except InfeasibleAssignmentError:
            with pytest.raises(InfeasibleAssignmentError):
                brute_force_assignment(c)
            continue
        assert matched_total(c, a) == matched_total(c, brute_force_assignment(c))


def test_row_constant_shift_moves_cost_exactly():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        c = rng.integers(0, 50, size=(n, n))
        base = matched_total(c, min_cost_assignment(c))
        shift = int(rng.integers(1, 25))
        row = int(rng.integers(0, n))
        shifted = c.copy()
        shifted[row] += shift
        assert matched_total(shifted, min_cost_assignment(shifted)) == base + shift


def test_column_permutation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        c = rng.integers(0, 50, size=(n, n))
        perm = rng.permutation(n)
        total = matched_total(c, min_cost_assignment(c))
        b = min_cost_assignment(c[:, perm])
        assert matched_total(c[:, perm], b) == total
        # mapped matching costs the same in the original matrix
        assert matched_total(c, perm[b]) == total


def test_deterministic():
    rng = np.random.default_rng(10)
    c = rng.integers(0, 5, size=(6, 6))  # small range forces ties
    first = min_cost_assignment(c)
    for _ in range(5):
        assert np.array_equal(min_cost_assignment(c), first)


def test_float_costs_supported():
    c = [[0.5, 1.5], [1.25, 0.25]]
    cols = min_cost_assignment(c)
    assert cols.tolist() == [0, 1]
    assert matched_total(c, cols) == pytest.approx(0.75)

