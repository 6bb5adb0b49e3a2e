import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiphoton.errors import ContractError, DataError, DimensionError
from multiphoton.linalg import (
    as_occupation,
    check_unitary,
    count_patterns,
    enumerate_patterns,
    haar_random_unitary,
    load_matrix,
    occupation_from_string,
    occupation_to_string,
    _pattern_table,
    save_matrix,
    transition_submatrix,
)
from properties import JSON_NUMBERS, JSON_VALUES, check_linalg_properties

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


class TestCheckUnitary:
    def test_identity(self):
        assert check_unitary(np.eye(4), 1e-12)

    def test_balanced_beamsplitter(self):
        assert check_unitary(BS, 1e-12)

    def test_all_ones_rejected(self):
        assert not check_unitary(np.ones((2, 2)), 1e-6)

    def test_non_square(self):
        with pytest.raises(DimensionError):
            check_unitary(np.ones((2, 3)))

    @pytest.mark.parametrize("modes, scale", [(1, 1e-3), (4, 1e-9), (12, 1e-6), (30, 1e-12)])
    def test_tolerance_is_the_exact_deviation(self, modes, scale):
        # max |U†U - I| by its defining formula: tol at the deviation passes,
        # one ulp below it fails.
        rng = np.random.default_rng(modes)
        m = haar_random_unitary(modes, modes) + scale * (
            rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes)))
        d = np.abs(m.conj().T @ m - np.eye(modes)).max()
        assert d > 0
        assert check_unitary(m, tol=d)
        assert not check_unitary(m, tol=np.nextafter(d, 0))


class TestHaarRandomUnitary:
    def test_postcondition_at_paper_scale(self):
        assert check_unitary(haar_random_unitary(12, 42), 1e-10)

    def test_single_mode_is_a_phase(self):
        u = haar_random_unitary(1, 3)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_determinism_and_seed_sensitivity(self):
        assert np.array_equal(haar_random_unitary(4, 1), haar_random_unitary(4, 1))
        assert not np.array_equal(haar_random_unitary(4, 1), haar_random_unitary(4, 2))

    def test_zero_modes_rejected(self):
        with pytest.raises(DimensionError):
            haar_random_unitary(0, 1)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ContractError, match="seed must be an integer"):
            haar_random_unitary(4, seed)


class TestTransitionSubmatrix:
    def test_identity_routing(self):
        got = transition_submatrix(np.eye(3), (1, 0, 1), (1, 0, 1))
        assert np.array_equal(got, np.eye(2))

    def test_column_repetition(self):
        got = transition_submatrix(BS, (1, 1), (2, 0))
        want = np.array([[BS[0, 0], BS[0, 0]], [BS[1, 0], BS[1, 0]]])
        assert np.array_equal(got, want)

    def test_identity_bunched_output(self):
        got = transition_submatrix(np.eye(2), (1, 1), (0, 2))
        assert np.array_equal(got, np.array([[0, 0], [1, 1]]))

    def test_photon_number_mismatch(self):
        with pytest.raises(ContractError):
            transition_submatrix(np.eye(2), (1, 1), (1, 0))

    def test_pattern_length_mismatch(self):
        with pytest.raises(DimensionError):
            transition_submatrix(np.eye(3), (1, 1), (1, 1, 0))


class TestOccupations:
    def test_validation(self):
        assert as_occupation([0, 2, 1]) == (0, 2, 1)
        with pytest.raises(ContractError):
            as_occupation([0, -1])
        with pytest.raises(ContractError):
            as_occupation([0.5, 1])
        with pytest.raises(DimensionError):
            as_occupation([1, 1], modes=3)

    def test_entries_are_bounded_to_int64(self):
        assert as_occupation([2**63 - 1, 0]) == (2**63 - 1, 0)
        for bad in (2**63, 2**70):
            with pytest.raises(ContractError, match="must not exceed"):
                as_occupation([bad, 0])

    def test_string_round_trip(self):
        assert occupation_to_string((0, 1, 2)) == "012"
        assert occupation_from_string("010011000000") == (0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0)
        with pytest.raises(DataError):
            occupation_from_string("01a")
        with pytest.raises(DataError):
            occupation_from_string("")

    @pytest.mark.parametrize("text", ["١٢٠", "²10", "1٣", " 10", "+1", "-1", "1_0", 110, None])
    def test_only_ascii_digits_decode(self, text):
        with pytest.raises(DataError):
            occupation_from_string(text)


class TestPatternEnumeration:
    def test_counts_match_enumeration(self):
        for modes, photons in [(4, 2), (6, 3), (12, 3)]:
            for collisions in (True, False):
                pats = enumerate_patterns(modes, photons, collisions)
                assert len(pats) == count_patterns(modes, photons, collisions)
                assert len(set(pats)) == len(pats)
                assert all(sum(p) == photons for p in pats)

    def test_matches_per_pattern_loop(self):
        for modes, photons in [(1, 0), (3, 0), (4, 2), (5, 3), (3, 4)]:
            for collisions in (True, False):
                chooser = (itertools.combinations_with_replacement if collisions
                           else itertools.combinations)
                want = []
                for modeset in chooser(range(modes), photons):
                    pattern = [0] * modes
                    for m in modeset:
                        pattern[m] += 1
                    want.append(tuple(pattern))
                assert enumerate_patterns(modes, photons, collisions) == want

    def test_row_lookup_inverts_the_table(self):
        for modes, photons, collisions in itertools.product(range(1, 8), range(1, 5),
                                                            (True, False)):
            table = _pattern_table(modes, photons, collisions)
            assert np.array_equal(table.rows(table.cols), np.arange(len(table.cols)))
            # the same lookup from the occupation tuples, against their dict index
            occupied = np.array([np.repeat(np.arange(modes), occ) for occ in table.outcomes],
                                dtype=np.intp).reshape(-1, photons)
            assert table.rows(occupied).tolist() == [table.index[o] for o in table.outcomes]
            assert not table.codes.flags.writeable

    def test_twelve_mode_counts(self):
        assert count_patterns(12, 3, collisions=False) == 220
        assert count_patterns(12, 3, collisions=True) == 364

    def test_guards(self):
        with pytest.raises(DimensionError):
            enumerate_patterns(0, 1)
        with pytest.raises(ContractError):
            enumerate_patterns(3, -1)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        a = haar_random_unitary(5, 9)
        path = tmp_path / "u.json"
        save_matrix(path, a, meta={"seed": 9})
        assert np.array_equal(load_matrix(path), a)

    def test_writes_the_bytes_of_json_dump(self, tmp_path):
        a = np.array([[-0.0, complex(5e-324, 1e300)],
                      [complex(0.0, 2.2250738585072014e-308), complex(-1e-310, -0.0)]])
        meta = {"seed": 9, "note": "caf\u00e9", "nested": [1.5, None, True]}
        for path, kept in ((tmp_path / "plain.json", None), (tmp_path / "meta.json", meta)):
            save_matrix(path, a, meta=kept)
            doc = {"rows": 2, "cols": 2,
                   "entries": [[float(z.real), float(z.imag)] for z in a.ravel()]}
            if kept is not None:
                doc["meta"] = kept
            want = tmp_path / "want.json"
            with open(want, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=None, separators=(",", ":"), sort_keys=False)
                fh.write("\n")
            assert path.read_bytes() == want.read_bytes()
            assert np.array_equal(load_matrix(path), a)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows":1,"cols":1,"entries":[[NaN,0.0]]}')
        with pytest.raises(DataError):
            load_matrix(path)

    def test_rejects_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"rows":2,"cols":2,"entries":[[1,0]]}')
        with pytest.raises(DataError):
            load_matrix(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not a matrix")
        with pytest.raises(DataError):
            load_matrix(path)

    def test_rejects_nesting_too_deep_to_parse(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DataError, match="recursion"):
            load_matrix(path)

    @pytest.mark.parametrize("entries", ["[[1]]", "[[1, 0, 0]]", "[[null, 0]]", '[["1", 0]]',
                                         "[1]", "[[1" + "0" * 400 + ", 0]]"],
                             ids=["one-part", "three-parts", "null", "string", "flat",
                                  "huge-integer"])
    def test_rejects_malformed_entries(self, tmp_path, entries):
        path = tmp_path / "entries.json"
        path.write_text('{"rows":1,"cols":1,"entries":%s}' % entries)
        with pytest.raises(DataError):
            load_matrix(path)

    def test_rejects_a_shape_too_large_to_hold(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"rows":1%s,"cols":0,"entries":[]}' % ("0" * 400))
        with pytest.raises(DataError, match="too large"):
            load_matrix(path)


# Mostly matrix-shaped documents, so that fuzzing reaches past the key checks.
_SIZES = st.integers(-2, 3) | st.integers(-10**400, 10**400) | JSON_VALUES
_MATRIX_DOCS = JSON_VALUES | st.fixed_dictionaries({}, optional={
    "rows": _SIZES, "cols": _SIZES,
    "entries": (st.lists(st.lists(JSON_NUMBERS | JSON_VALUES, max_size=3), max_size=9)
                | JSON_VALUES),
    "meta": JSON_VALUES,
})
_FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(doc=_MATRIX_DOCS)
def test_load_matrix_returns_or_raises_data_or_contract_error(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        matrix = load_matrix(path)
    except (DataError, ContractError):
        return
    assert matrix.shape == (doc["rows"], doc["cols"])


def test_module_properties():
    check_linalg_properties(seed=1)
