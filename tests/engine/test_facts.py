"""FactExport.classifier_of: the overlapping region with the greatest
``(start, end)``, ties going to the later-written region."""

import pytest

from repro.core import Disassembler
from repro.core.engine import FactExport, RegionFact
from repro.core.evidence import Priority
from repro.eval.dataset import evaluation_corpus


def region(start, end, label="code", rule="trace"):
    return RegionFact(start, end, label, Priority.SOFT, "test", rule)


def export(*regions):
    return FactExport(sorted(regions, key=lambda f: (f.start, f.end)))


def brute_force(facts: FactExport, start: int, end: int):
    """Max over every overlapping region by (start, end, write order)."""
    hits = [(index, fact) for index, fact in enumerate(facts.regions)
            if fact.start < end and start < fact.end]
    if not hits:
        return None
    return max(hits, key=lambda hit: (hit[1].start, hit[1].end,
                                      hit[0]))[1]


class TestClassifierOf:
    def test_none_without_overlap(self):
        facts = export(region(0, 4), region(8, 12))
        assert facts.classifier_of(4, 8) is None
        assert facts.classifier_of(12, 20) is None
        assert export().classifier_of(0, 1) is None

    def test_greatest_start_wins(self):
        wide, late = region(0, 16), region(8, 12)
        facts = export(wide, late)
        assert facts.classifier_of(0, 16) is late
        assert facts.classifier_of(0, 8) is wide
        assert facts.classifier_of(12, 16) is wide

    def test_ties_go_to_the_later_written(self):
        first, second = region(0, 8, "data"), region(0, 8, "code")
        assert export(first, second).classifier_of(0, 8) is second

    def test_finds_an_overlap_far_back(self):
        """A long region stays visible past many short ones after it."""
        wide = region(0, 1000)
        short = [region(o, o + 1) for o in range(100, 300, 2)]
        facts = export(wide, *short)
        assert facts.classifier_of(500, 501) is wide
        assert facts.classifier_of(101, 102) is wide


@pytest.mark.usefixtures("models")
@pytest.mark.parametrize("case", evaluation_corpus(),
                         ids=lambda case: case.name)
def test_matches_brute_force_on_corpus(case):
    facts = Disassembler().disassemble_rich(case).facts
    assert len(facts) > 0
    for fact in facts:
        assert facts.classifier_of(fact.start, fact.end) is \
            brute_force(facts, fact.start, fact.end)
