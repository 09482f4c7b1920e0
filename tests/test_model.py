import pytest
from hypothesis import given
from hypothesis import strategies as st

from prp_sort import Preference, canonical_pair
from prp_sort.errors import IdenticalPair

doc_ids = st.text(alphabet="abcd123", min_size=1, max_size=5)
distinct_pairs = st.tuples(doc_ids, doc_ids).filter(lambda p: p[0] != p[1])


class TestCanonicalPair:
    def test_ordered_pair_is_kept(self):
        assert canonical_pair("d1", "d2") == ("d1", "d2", False)

    def test_reversed_pair_is_flipped(self):
        assert canonical_pair("d2", "d1") == ("d1", "d2", True)

    def test_identical_pair_is_rejected(self):
        with pytest.raises(IdenticalPair):
            canonical_pair("d1", "d1")

    @given(distinct_pairs)
    def test_symmetric_up_to_flip(self, pair):
        a, b = pair
        forward = canonical_pair(a, b)
        backward = canonical_pair(b, a)
        assert (forward.lo, forward.hi) == (backward.lo, backward.hi)
        assert forward.flipped != backward.flipped
        assert forward.lo < forward.hi

    @given(distinct_pairs)
    def test_recanonicalization_is_identity(self, pair):
        key = canonical_pair(*pair)
        assert canonical_pair(key.lo, key.hi) == (key.lo, key.hi, False)


class TestPreference:
    def test_flipped_is_involution(self):
        assert Preference.FIRST.flipped() is Preference.SECOND
        assert Preference.SECOND.flipped() is Preference.FIRST
        assert Preference.FIRST.flipped().flipped() is Preference.FIRST
