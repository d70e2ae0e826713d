"""Suite-wide settings and fixtures.

Property tests draw the same examples on every run: with a derandomized
search, no deadline and no example database, hypothesis neither depends on
timing nor replays examples saved by earlier runs, so the suite stays
deterministic under ``filterwarnings = ["error"]``.
"""

from fractions import Fraction

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("deterministic")


@pytest.fixture
def fraction_count(monkeypatch):
    """A cell counting the Fractions built from now on, to the end of the
    test.  From Python 3.12 arithmetic builds its results through
    ``_from_coprime_ints``, not ``__new__``, so that is counted too."""
    cell = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        cell[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    coprime = vars(Fraction).get("_from_coprime_ints")
    if coprime is not None:
        make = coprime.__func__

        def counting_coprime(cls, *args):
            cell[0] += 1
            return make(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return cell
