import pytest
from hypothesis import given, strategies as st

from lsizeta.indices import (
    Index,
    dedupe_by_duality,
    dual,
    enumerate_admissible,
    truncate,
    truncations,
)


def word_dual(parts):
    # Independent oracle: encode the reversed index as a binary word
    # x^(s-1) y per part, reverse-complement, decode, reverse back.
    word = []
    for s in parts[::-1]:
        word += [1] * (s - 1) + [0]
    dword = [1 - b for b in reversed(word)]
    out, run = [], 0
    for b in dword:
        if b:
            run += 1
        else:
            out.append(run + 1)
            run = 0
    assert run == 0
    return tuple(out)[::-1]


class TestIndexBasics:
    def test_weight_depth(self):
        k = Index((1, 3))
        assert k.weight == 4 and k.depth == 2 and k.admissible

    def test_empty(self):
        assert Index().weight == 0
        assert Index().depth == 0
        assert not Index().admissible

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            Index((0, 2))

    def test_parse_roundtrip(self):
        assert Index.parse("1,3") == Index((1, 3))
        assert Index.parse("phi") == Index()
        assert Index((2, 1, 2)).to_json() == [2, 1, 2]

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            Index.parse("2,x")


class TestDual:
    def test_spec_examples(self):
        assert dual(Index((3,))) == Index((1, 2))
        assert dual(Index((1, 1, 2))) == Index((4,))
        assert dual(Index((2, 2))) == Index((2, 2))
        assert dual(Index((3, 2))) == Index((2, 1, 2))

    def test_non_admissible(self):
        with pytest.raises(ValueError, match="non-admissible"):
            dual(Index((2, 1)))
        with pytest.raises(ValueError):
            dual(Index())

    @pytest.mark.parametrize("w", range(2, 9))
    def test_involution_and_weight_exhaustive(self, w):
        for k in enumerate_admissible(w):
            kd = dual(k)
            assert dual(kd) == k
            assert kd.weight == k.weight
            assert k.depth + kd.depth == k.weight
            assert kd.parts == word_dual(k.parts)

    @given(st.lists(st.integers(1, 5), min_size=0, max_size=6))
    def test_involution_generated(self, parts):
        parts = tuple(parts) + (2,)
        k = Index(parts)
        assert dual(dual(k)) == k


class TestTruncate:
    def test_spec_examples(self):
        assert truncate(Index((2, 3)), 0) == Index((2, 3))
        assert truncate(Index((2, 3)), 2) == Index((2, 1))
        assert truncate(Index((1,)), 1) == Index()

    def test_full_truncation_is_empty(self):
        k = Index((2, 1, 3))
        assert truncate(k, k.weight) == Index()

    def test_past_empty(self):
        with pytest.raises(ValueError, match="past empty"):
            truncate(Index((2,)), 3)

    @pytest.mark.parametrize("w", range(2, 7))
    def test_single_steps_compose(self, w):
        for k in enumerate_admissible(w):
            for m in range(k.weight):
                assert truncate(k, m + 1) == truncate(truncate(k, m), 1)
                assert truncate(k, m).weight == k.weight - m

    @pytest.mark.parametrize("w", range(1, 8))
    def test_truncations_walk_every_step(self, w):
        for k in [Index((1,) * w), Index((w,))] + (enumerate_admissible(w) if w > 1 else []):
            steps = truncations(k)
            assert len(steps) == w + 1 and steps[0] == k and steps[-1] == Index()
            for a, b in zip(steps, steps[1:]):
                *head, last = a.parts
                assert b.parts == tuple(head) + ((last - 1,) if last > 1 else ())


class TestEnumerate:
    def test_weight_two(self):
        assert enumerate_admissible(2) == [Index((2,))]

    def test_weight_four_as_set(self):
        got = set(enumerate_admissible(4))
        assert got == {Index((4,)), Index((1, 3)), Index((2, 2)), Index((1, 1, 2))}

    @pytest.mark.parametrize("w", range(2, 13))
    def test_counts(self, w):
        ks = enumerate_admissible(w)
        assert len(ks) == 2 ** (w - 2)
        assert len(set(ks)) == len(ks)
        assert all(k.admissible and k.weight == w for k in ks)

    def test_too_small(self):
        with pytest.raises(ValueError):
            enumerate_admissible(1)


class TestDedupe:
    def test_weight_five(self):
        reps = dedupe_by_duality(enumerate_admissible(5))
        assert reps == [Index((5,)), Index((1, 4)), Index((2, 3)), Index((3, 2))]

    def test_weight_six_drop_self_dual(self):
        reps = dedupe_by_duality(enumerate_admissible(6), drop_self_dual=True)
        assert set(reps) == {Index((6,)), Index((1, 5)), Index((2, 4)),
                             Index((3, 3)), Index((4, 2)), Index((1, 3, 2))}

    def test_weight_four_drop_self_dual(self):
        # (1,3) and (2,2) are self-dual; (1,1,2) is the dual of (4)
        assert dual(Index((1, 3))) == Index((1, 3))
        reps = dedupe_by_duality(enumerate_admissible(4), drop_self_dual=True)
        assert reps == [Index((4,))]

    def test_keeps_first_in_input_order(self):
        ks = [Index((1, 1, 2)), Index((4,))]
        assert dedupe_by_duality(ks) == [Index((1, 1, 2))]

    @pytest.mark.parametrize("w", range(2, 9))
    def test_covers_all_pairs(self, w):
        all_ks = enumerate_admissible(w)
        reps = dedupe_by_duality(all_ks)
        covered = set()
        for k in reps:
            covered.add(k)
            covered.add(dual(k))
        assert covered == set(all_ks)
