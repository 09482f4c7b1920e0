from prp_sort import Preference


class TestPreference:
    def test_flipped_is_involution(self):
        assert Preference.FIRST.flipped() is Preference.SECOND
        assert Preference.SECOND.flipped() is Preference.FIRST
        assert Preference.FIRST.flipped().flipped() is Preference.FIRST
