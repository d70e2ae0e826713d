"""Suite-wide settings: property tests draw the same examples on every run.

With a derandomized search, no deadline and no example database, hypothesis
neither depends on timing nor replays examples saved by earlier runs, so the
suite stays deterministic under ``filterwarnings = ["error"]``.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("deterministic")
