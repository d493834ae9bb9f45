"""The mutation corpus of ``tools/mutants.py`` still applies to this tree."""
import runpy

from conftest import ROOT

CORPUS = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["CORPUS"]


def test_every_mutated_text_occurs_once():
    # an edit that moves or duplicates a mutated text fails here, instead of
    # leaving a mutant that no longer applies
    for file, old, _, _ in CORPUS:
        text = (ROOT / "src" / "qcausal" / file).read_text()
        assert text.count(old) == 1, (file, old)
