"""The outcome corpus: every document's outcome, as committed.

``tests/outcomes.py`` builds the corpus and says how to regenerate it.
"""

from outcomes import GOLDEN, outcome_lines


def test_every_outcome_matches_the_corpus():
    got = outcome_lines()
    want = GOLDEN.read_text().splitlines()
    for line, golden in zip(got, want):
        label = golden.rsplit(" ", 1)[0]
        assert line == golden, f"the outcome of {label} moved"
    assert len(got) == len(want)
