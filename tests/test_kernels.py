"""Backend selection and agreement for the loan-scan kernels."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdsplit import _kernels
from herdsplit._kernels import (
    BACKEND_ENV_VAR,
    _effective_backend,
    _scan_numpy,
    _scan_python,
    backend_choice,
    scan_first_loan,
)

CASES = [
    ((2,), 5, 20),
    ((2, 3), 10, 60),
    ((2, 3, 9), 17, 180),
    ((2, 3, 9), 16, 180),
    ((3, 6, 9, 12), 50, 360),
    ((5, 5, 5), 12, 150),
    ((7,), 13, 70),
]


class TestBackendChoice:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert backend_choice() == "numpy"

    @pytest.mark.parametrize("value", ["numpy", " NumPy ", "NUMPY"])
    def test_numpy_can_be_forced(self, monkeypatch, value):
        monkeypatch.setenv(BACKEND_ENV_VAR, value)
        assert backend_choice() == "numpy"

    def test_python_can_be_forced(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert backend_choice() == "python"

    def test_unknown_backend_is_rejected(self, monkeypatch):
        for value in ("cuda", "numba"):
            monkeypatch.setenv(BACKEND_ENV_VAR, value)
            with pytest.raises(ValueError):
                backend_choice()

    def test_empty_means_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert backend_choice() == "numpy"


class TestOverflowGuard:
    def test_huge_herd_routes_to_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert _effective_backend(10**30, 100, 3) == "python"
        assert _effective_backend(2**61, 2**61, 1) == "python"

    def test_small_values_use_the_fast_path(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert _effective_backend(17, 180, 3) != "python"

    def test_huge_values_still_scan_exactly(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        herd = 10**30  # far beyond int64
        assert scan_first_loan(herd, 200, (2, 3, 9)) is None
        # herd + bound straddling the guard threshold must not wrap either
        assert scan_first_loan(2**62, 10, (2,)) is None

    def test_huge_negative_herd_routes_to_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert _effective_backend(-(10**30), 5, 1) == "python"
        assert scan_first_loan(-(10**30), 5, (2,)) is None

    def test_python_backend_finds_hits(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert scan_first_loan(4, 10, (2,)) == 4
        assert scan_first_loan(17, 180, (2, 3, 9)) == 1


class TestBackendAgreement:
    @pytest.mark.parametrize("divisors, herd, bound", CASES)
    def test_numpy_matches_python(self, divisors, herd, bound):
        assert _scan_numpy(herd, bound, divisors) == _scan_python(herd, bound, divisors)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_dispatcher_honors_the_env_flag(self, monkeypatch, backend):
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        for divisors, herd, bound in CASES:
            assert scan_first_loan(herd, bound, divisors) == _scan_python(
                herd, bound, divisors
            )

    def test_exhaustive_small_grid(self):
        for divisors in [(2,), (2, 3), (2, 4), (3, 3)]:
            for herd in range(1, 40):
                for bound in (0, 1, 7, 50):
                    expected = _scan_python(herd, bound, divisors)
                    assert _scan_numpy(herd, bound, divisors) == expected


class TestChunking:
    def test_hits_beyond_the_first_chunk_are_found(self):
        # true loan is 11, with chunk=4 it lands in the third chunk
        assert _scan_numpy(25, 360, (3, 6, 9, 12), chunk=4) == 11
        assert _scan_numpy(25, 360, (3, 6, 9, 12), chunk=1) == 11

    def test_no_hit_scans_every_chunk(self):
        assert _scan_numpy(16, 180, (2, 3, 9), chunk=7) is None

    def test_chunk_edges_are_inclusive(self):
        # loan 4 sits exactly on a chunk boundary when chunk=4
        assert _scan_numpy(4, 4, (2,), chunk=4) == 4


def test_negative_bound_finds_nothing():
    assert scan_first_loan(17, -1, (2, 3, 9)) is None


GUARD = 2**62
EMPTY_MEMO = (None, 0, -1, -GUARD, {})
MEMO_SPECS = [(2, 3, 9), (2,), (3, 6, 9, 12), (2, 4), (2, 2), (1,), (1, 2)]


def small_chunks(monkeypatch, chunk, ahead):
    """Make numpy scans run in `chunk`-value pieces and look `ahead` values on."""
    real = _kernels._divisible
    monkeypatch.setattr(
        _kernels, "_divisible", lambda lo, hi, divisors, *_: real(lo, hi, divisors, chunk)
    )
    monkeypatch.setattr(_kernels, "_AHEAD", ahead)


class TestMemo:
    """Consecutive numpy calls on one divisor tuple are answered from a memo;
    every answer must still equal the python reference scan."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(_kernels, "_memo", EMPTY_MEMO)

    @staticmethod
    def check(divisors, herd, bound):
        got = scan_first_loan(herd, bound, divisors)
        assert got == _scan_python(herd, bound, divisors), (divisors, herd, bound)

    @settings(deadline=None)
    @given(
        st.sampled_from([(1, 0), (3, 5), (7, 40), (_kernels._CHUNK, _kernels._AHEAD)]),
        st.lists(
            st.tuples(
                st.sampled_from(MEMO_SPECS),
                st.lists(
                    st.tuples(st.integers(-20, 300), st.integers(0, 400)),
                    min_size=1,
                    max_size=8,
                ),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_call_sequences_match_python(self, sizes, runs):
        with pytest.MonkeyPatch.context() as mp:
            small_chunks(mp, *sizes)
            _kernels._memo = EMPTY_MEMO
            for divisors, windows in runs:
                for herd, bound in windows:
                    self.check(divisors, herd, bound)

    def test_scripted_sequence_matches_python(self, monkeypatch):
        small_chunks(monkeypatch, 4, 8)
        a, b = (2, 3, 9), (3, 6, 9, 12)  # a splits herd 17 * j at t = 18 * j
        self.check(a, 17, 0)  # a new tuple only remembers its divisors
        assert _kernels._memo == (a, 0, -1, -GUARD, {})
        self.check(a, 17, 1)  # second call in a row: records one chunk
        assert _kernels._memo == (a, 17, 20, 17, {17: 18})
        before = _kernels._memo
        for herd, bound in [(17, 0), (18, 0), (17, 1), (19, 1), (20, 0)]:
            self.check(a, herd, bound)  # covered: no scan
        assert _kernels._memo is before
        self.check(a, 34, 2)  # past hi + 1: starts afresh at the herd
        assert _kernels._memo[1:4] == (34, 37, 34)
        self.check(a, 35, 3)  # window ends past hi: grows, then looks ahead
        assert _kernels._memo[1:4] == (34, 45, 34)
        self.check(a, 40, 100)  # settled by a total >= herd, not by the end
        assert _kernels._memo[1:4] == (34, 65, 51)
        before = _kernels._memo
        for herd, bound in [(51, 3), (45, 400), (36, 1), (34, 0), (50, 10**6)]:
            self.check(a, herd, bound)  # down, inside, far past the end
        assert _kernels._memo is before
        self.check(a, 33, 2)  # below lo: starts afresh at the herd
        assert _kernels._memo[1] == 33
        for herd, bound in [(17, 0), (1, 30), (0, 0), (16, 2), (153, 17)]:
            self.check(a, herd, bound)
        self.check(b, 25, 11)  # switch ...
        self.check(b, 50, 22)
        self.check(a, 17, 1)  # ... and back: a starts over
        assert _kernels._memo == (a, 0, -1, -GUARD, {})
        self.check(a, 170, 10)
        self.check(a, 153, 17)  # window ends inside the recorded range
        self.check(a, 160, 1000)  # window ends past it

    def test_a_huge_bound_stops_at_the_first_total_past_the_herd(self):
        divisors = (2, 3, 9)
        for _ in range(3):
            assert scan_first_loan(17, 10**9, divisors) == 1
        key, lo, hi, top, first = _kernels._memo
        assert (key, lo, top) == (divisors, 17, max(first))
        assert hi - lo < _kernels._CHUNK and len(first) <= _kernels._CHUNK // 18 + 1
        j = hi // 17 + 1  # past the memo: grows to the hit, then one span on
        assert scan_first_loan(17 * j, 10**9, divisors) == j
        assert _kernels._memo[2] - lo < 4 * _kernels._CHUNK

    def test_a_total_below_the_window_is_no_hit(self):
        for herd in (2, 3, 3, 6):  # (1, 2) splits t = 2 into total 3 < t
            self.check((1, 2), herd, 4)

    def test_non_positive_divisors_skip_the_memo(self):
        for _ in range(2):
            assert scan_first_loan(0, 5, ()) == 0 == _scan_python(0, 5, ())
            assert scan_first_loan(3, 5, ()) is None
            for herd in (-7, 0, 4, 9):
                self.check((-2, 3), herd, 12)
        assert _kernels._memo == EMPTY_MEMO

    def test_a_grid_spec_scans_twice_for_300_herds(self):
        divisors, bound = (2, 3, 9), 180  # bound 10 * m, as in the desk grid
        memos = []
        for herd in range(1, 301):
            self.check(divisors, herd, bound)
            if not memos or memos[-1] is not _kernels._memo:
                memos.append(_kernels._memo)
        assert len(memos) == 2  # remember the tuple, then one chunk covers all

    def test_a_failed_extension_leaves_the_memo_as_it_was(self, monkeypatch):
        self.check((2, 3, 9), 17, 1)
        self.check((2, 3, 9), 17, 1)
        before = _kernels._memo

        recorded = dict(before[4])
        real = _kernels._divisible

        def broken(lo, hi, divisors, chunk=_kernels._CHUNK):
            yield next(real(lo, hi, divisors, chunk))
            raise MemoryError("no room")

        monkeypatch.setattr(_kernels, "_divisible", broken)
        with pytest.raises(MemoryError):
            scan_first_loan(before[2] + 1, 10**6, (2, 3, 9))
        assert _kernels._memo is before and before[4] == recorded

    def test_threads_sharing_the_memo_get_python_answers(self, monkeypatch):
        small_chunks(monkeypatch, 5, 20)

        def worker(divisors, errors):
            for herd in range(1, 120):
                got = scan_first_loan(herd, 60, divisors)
                if got != _scan_python(herd, 60, divisors):
                    errors.append((divisors, herd, got))

        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(MEMO_SPECS[i % 4], errors))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_look_ahead_stops_below_the_int64_guard(self):
        divisors, chunk = (2, 3, 9), _kernels._CHUNK
        cap = (GUARD - 1) // len(divisors)  # largest t with 3t < 2**62
        herd = cap - 40_000
        for h, bound in [(herd, 10), (herd, 10), (herd + 5, 5)]:
            self.check(divisors, h, bound)
        assert _kernels._memo[1:3] == (herd, herd + chunk - 1)
        # Ends at the guard, one chunk short of the look-ahead it asks for.
        h = herd + chunk
        assert _effective_backend(h, cap - h, len(divisors)) == "numpy"
        assert _effective_backend(h, cap - h + 1, len(divisors)) == "python"
        self.check(divisors, h, 20_000)
        key, lo, hi, top, first = _kernels._memo
        assert (key, lo, hi) == (divisors, herd, cap)
        assert max(first.values()) * len(divisors) < GUARD
        for h, bound in [(cap - 18, 18), (cap - 100, 50), (herd + 3, 36_000)]:
            self.check(divisors, h, bound)
        assert _kernels._memo[2] == cap
