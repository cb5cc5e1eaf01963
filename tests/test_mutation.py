"""The kill suite: every annotated mutant fails at its annotated instance,
and only mutants fail."""
import time

from shortcat.catalogue import (
    catalogue_braidings, catalogue_mutants, catalogue_short_multis,
    catalogue_short_skews, catalogue_skew_closed, catalogue_skew_monoidals,
    validate_mutant,
)
from shortcat.shortmulti import validate_short_multicategory
from shortcat.shortskew import validate_short_skew
from shortcat.skewmon import validate_braiding, validate_skew_closed, validate_skew_monoidal


def test_suite_is_big_enough():
    assert len(catalogue_mutants()) >= 50


def test_every_mutant_fails_at_its_annotated_instance():
    start = time.monotonic()
    for mut in catalogue_mutants():
        report = validate_mutant(mut)
        assert not report.ok, f"{mut.name} survived"
        assert report.has_failure(mut.family, mut.subjects), (
            f"{mut.name}: expected {mut.family} @ {mut.subjects}, "
            f"got {[f.key() for f in report.failures[:4]]}")
    assert time.monotonic() - start < 30


def test_only_mutants_fail():
    for name, m in catalogue_short_multis().items():
        assert validate_short_multicategory(m).ok, name
    for name, m in catalogue_short_skews().items():
        assert validate_short_skew(m).ok, name
    for name, c in catalogue_skew_monoidals().items():
        assert validate_skew_monoidal(c).ok, name
    for name, (c, b) in catalogue_braidings(catalogue_skew_monoidals()).items():
        assert validate_skew_monoidal(c).ok and validate_braiding(c, b).ok, name
    for name, c in catalogue_skew_closed().items():
        assert validate_skew_closed(c).ok, name


def test_mutant_names_are_unique():
    names = [mut.name for mut in catalogue_mutants()]
    assert len(names) == len(set(names))
